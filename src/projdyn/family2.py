"""A normalized family of plane maps with a designated degree-lowering divisor.

Instances are built from five forms P, Q1, Q2, Q3, R over (z, w, t)
subject to deg R = deg P + deg Q1 and the calibration
P(1,1,1) Q_j(1,1,1) = R(1,1,1) != 0; the induced map is
[P Q1 - R : P Q2 - R : P Q3 - R].  The divisor {P = 0} collapses to
[1:1:1] under one application, which makes the expected degree
recurrence (d, h, n0) = (deg P + deg Q1, deg P, 1).

Three preflight checks estimate whether an instance is quasi-stable
before any symbolic iteration: exact coprimality of the difference
forms and of (P, R); a pointwise condition on the finite set
{P=0} n {R=0}, decided exactly by gcds of binary forms on the line
t = 0 and by a Euclid over the roots of a resultant in the chart t = 1;
and the jacobian rank at (1,1,1) together with a coprimality scan over
the pencil spanned by the Q_j.  The preflight is advisory; the
authoritative verdict is always the symbolic certificate from the
iteration module.

The intersection check works on the integer primitive parts of its
forms, so the chart rows, the resultants (Sylvester determinants by the
fraction-free `mapiter._echelon`, which also gives the jacobian rank and
the pencil kernel) and the squarefree parts stay in Z, and every univariate
gcd is `poly_gcd` on binary forms.  The Euclid over Q[z]/(h) takes
pseudo-remainders, so it inverts nothing mod h; Fractions enter only in
its reductions mod h, in the rational roots and in the fibres over
them.  The rational points come from lines through [0:1:0], read off
the forms' coefficients and solved as binary forms by one gcd solver:
first t = 0, then the rational fibres z = z0 t.  The Euclid decides the rest.
"""

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .mapiter import (
    MapError,
    NotDominant,
    ProjMap,
    _default_names,
    _directives,
    _echelon,
    _extract,
    make_map,
    map_to_text,
)
from .polycore import (
    HomPoly,
    ParseError,
    PolyError,
    _TOP_PRIME,
    _dint_normalize,
    _is_prime,
    _modp_gcd,
    _point_rng,
    _quo,
    _utrim,
    compose_all,
    coprime_certificate,
    int_primitive,
    parse_poly,
    poly_gcd,
    poly_gcd_many,
    poly_to_text,
    random_hompoly,
)
from .specdeg import DegreeRecurrence

__all__ = [
    "PASS",
    "FAIL",
    "FamilyError",
    "DegreeConstraintViolated",
    "NormalizationViolated",
    "CommonFactor",
    "GenerationExhausted",
    "FamilyInstance",
    "IntersectionReport",
    "RankReport",
    "PencilReport",
    "PreflightReport",
    "build_family_map",
    "check_coprimality",
    "check_intersection_conditions",
    "check_rank_and_pencil",
    "run_preflight",
    "random_family",
    "sample_divisor_points",
    "parse_family_text",
    "family_to_text",
    "load_family",
    "save_family",
]

PASS = "PASS"
FAIL = "FAIL"


class FamilyError(Exception):
    """Base class for family construction failures."""


class DegreeConstraintViolated(FamilyError):
    """The five forms do not satisfy the degree relations."""


class NormalizationViolated(FamilyError):
    """P(1,1,1) Q_j(1,1,1) = R(1,1,1) != 0 fails for some j."""


class CommonFactor(FamilyError):
    """The three induced components share a nontrivial factor."""


class GenerationExhausted(FamilyError):
    """Rejection sampling hit its attempt cap without a valid instance."""


class FamilyInstance(NamedTuple):
    """Validated family data plus the induced map and its expected recurrence."""

    P: HomPoly
    Q1: HomPoly
    Q2: HomPoly
    Q3: HomPoly
    R: HomPoly
    map: ProjMap
    recurrence: DegreeRecurrence

    @property
    def names(self) -> tuple:
        return self.map.names


class IntersectionReport(NamedTuple):
    """Outcome of the pointwise check on {P=0} n {R=0}.

    The verdict is exact: PASS or FAIL.  rational_points lists every
    rational point of the set, each checked exactly.  failure_witnesses
    lists the listed points where both difference forms vanish, then
    ("line", m) and ("chart", m) for the failing points not listed: m
    is the monic polynomial in z whose roots are their z-coordinates,
    on the line [z:1:0] and in the chart [z:w:1].  boxed_points and
    unresolved are kept for the readers of the report format (the
    family-check schema and the benchmark tracer) and are always 0.
    """

    verdict: str
    rational_points: tuple
    boxed_points: int
    failure_witnesses: tuple
    unresolved: int


class RankReport(NamedTuple):
    rank: int
    verdict: str


class PencilReport(NamedTuple):
    """Coprimality of P against the Q-pencil.

    A FAIL carries the exact witness triple (a, b, c).  method records
    what decided the verdict: the exact divisibility kernel ("kernel"),
    which finds any pencil member divisible by P and so decides a
    linear P outright; a sampled member sharing a factor with P
    ("sampled", a FAIL); or a sampling scan that found none
    ("randomized", a PASS for P of degree 2 or more).
    """

    verdict: str
    witness: Optional[tuple]
    method: str


class PreflightReport(NamedTuple):
    """The reports of all preflight checks; overall is PASS iff each verdict is."""

    coprimality: str
    intersection: IntersectionReport
    rank: RankReport
    pencil: PencilReport
    overall: str


# -- construction -----------------------------------------------------------------


def build_family_map(P, Q1, Q2, Q3, R, names: Optional[Sequence[str]] = None) -> FamilyInstance:
    """Validate the five forms and assemble the induced projective map."""
    forms = (P, Q1, Q2, Q3, R)
    if any(f.is_zero for f in forms):
        raise DegreeConstraintViolated("all five forms must be nonzero")
    if any(f.nvars != 3 for f in forms):
        raise DegreeConstraintViolated("forms must use exactly three variables")
    dq = Q1.degree
    if Q2.degree != dq or Q3.degree != dq:
        raise DegreeConstraintViolated("the three Q forms must share one degree")
    if R.degree != P.degree + dq:
        raise DegreeConstraintViolated(
            f"deg R = {R.degree} does not equal deg P + deg Q1 = {P.degree + dq}"
        )
    one = (1, 1, 1)
    pv = P.evaluate(one)
    rv = R.evaluate(one)
    if rv == 0:
        raise NormalizationViolated("R(1,1,1) must be nonzero")
    for j, q in enumerate((Q1, Q2, Q3), start=1):
        if pv * q.evaluate(one) != rv:
            raise NormalizationViolated(
                f"P(1,1,1)*Q{j}(1,1,1) = {pv * q.evaluate(one)} differs from R(1,1,1) = {rv}"
            )
    comps = tuple(P * q - R for q in (Q1, Q2, Q3))
    if any(c.is_zero for c in comps):
        raise CommonFactor("a component P*Qj - R vanishes identically")
    # make_map records the factor it divides out; when it refuses the map, a
    # shared factor is still the error reported.  No d = deg P + deg Q1 < 2
    # gets past make_map: by Euler's identity and the calibration the Jacobian
    # at (1, 1, 1) kills (1, 1, 1), and for d <= 1 it is constant
    try:
        f = make_map(comps, names)
    except (MapError, PolyError):
        if (g := poly_gcd_many(comps)).degree == 0:
            raise
    else:
        g = f.normalization.primitive
    if g.degree > 0:
        raise CommonFactor(
            f"components share the factor {poly_to_text(g, names or _default_names(3))}"
        )
    rec = DegreeRecurrence(d=P.degree + dq, h=P.degree, n0=1)
    return FamilyInstance(P=P, Q1=Q1, Q2=Q2, Q3=Q3, R=R, map=f, recurrence=rec)


# -- first check: exact coprimality -----------------------------------------------


def check_coprimality(inst: FamilyInstance) -> str:
    """PASS iff Q2-Q1, Q3-Q1 are coprime and P, R are coprime.  Exact."""
    pairs = ((inst.Q2 - inst.Q1, inst.Q3 - inst.Q1), (inst.P, inst.R))
    return PASS if all(coprime_certificate(a, b) for a, b in pairs) else FAIL


# -- exact univariate toolkit (dense lists, low degree first) ---------------------
# Coefficients are ints or Fractions, and every quotient is an int when it
# is integral (`_quo`), so polynomials over Z stay in Z; the gcd is the
# modular engine's, through `poly_gcd` on binary forms.


def _udeg(u):
    return len(u) - 1


def _uadd(a, b):
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _uscale(a, c):
    return _utrim([x * c for x in a]) if c else []


def _umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _utrim(out)


def _udivmod(a, b):
    """Quotient and remainder of a by b."""
    assert b, "division by the zero polynomial"
    a = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = _quo(a[-1], b[-1])
        k = len(a) - len(b)
        out[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _utrim(a)
    return _utrim(out), a


def _ugcd(a, b):
    """The primitive integer gcd of a and b ([] when both are zero), by `poly_gcd`."""
    if not (a or b):
        return []
    forms = (HomPoly(2, (((i, len(u) - 1 - i), c) for i, c in enumerate(u) if c)) for u in (a, b))
    return _dehom_binary(poly_gcd(*forms))[0]


def _uderiv(a):
    return _utrim([a[i] * i for i in range(1, len(a))])


def _ueval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _usquarefree(a):
    if _udeg(a) < 1:
        return list(a)
    g = _ugcd(a, _uderiv(a))
    if _udeg(g) < 1:
        return list(a)
    return _udivmod(a, g)[0]


def _urational_roots(a):
    """Rational roots of a in ascending order, found by p-adic lifting.

    f is the squarefree part of a with integer coefficients and leading
    coefficient lc.  A root u/v in lowest terms has v | lc, so lc*u/v is
    an integer of absolute value at most B = |lc| + max|c_i| (Cauchy).
    p is the least prime not dividing lc modulo which f stays
    squarefree; the search ends because f is squarefree, so its
    discriminant is a nonzero integer.  Each root mod p is then simple
    and Newton-lifts to one p-adic root; once p^k > 2B, the symmetric
    residue of lc times the lift is lc*u/v if the root is u/v.  Distinct
    roots mod p give distinct candidates, each checked exactly.
    """
    f = _usquarefree(a)
    if _udeg(f) < 1:
        return []
    den = math.lcm(*(c.denominator for c in f))
    f = [int(c * den) for c in f]
    df, lc = [i * c for i, c in enumerate(f)][1:], f[-1]
    p = 2
    while lc % p == 0 or len(_modp_gcd(f, df, p)) > 1:
        p = next(q for q in itertools.count(p + 1) if _is_prime(q))
    bound = 2 * (abs(lc) + max(map(abs, f)))

    def at(u, x, q):
        return sum(c * pow(x, i, q) for i, c in enumerate(u)) % q

    def lift(r):
        q = p
        while q <= bound:
            q *= q
            r = (r - at(f, r, q) * pow(at(df, r, q), -1, q)) % q
        m = lc * r % q
        return Fraction(m - q if 2 * m > q else m, lc)

    cands = (lift(r) for r in range(p) if at(f, r, p) == 0)
    return sorted(c for c in cands if _ueval(f, c) == 0)


# -- bivariate charts and resultants -------------------------------------------------


def _rows(f: HomPoly):
    """f at t = 1 as coefficient lists in z, one per power of w."""
    rows = [[0] * (f.degree + 1) for _ in range(max((e[1] for e, _ in f.terms), default=-1) + 1)]
    for (i, j, _), c in f.terms:
        rows[j][i] = c
    return [_utrim(r) for r in rows]


def _sylvester_resultant(A, B):
    """Resultant in w of two polys given as rows (`_rows`), as a poly in z."""
    da, db = len(A) - 1, len(B) - 1
    if da < 0 or db < 0:
        return []
    if da == 0 and db == 0:
        return [1]
    size = da + db
    mat = [[[] for _ in range(size)] for _ in range(size)]
    for s in range(db):
        for k in range(da + 1):
            mat[s][s + k] = list(A[da - k])
    for s in range(da):
        for k in range(db + 1):
            mat[db + s][s + k] = list(B[db - k])
    rows, _, sign = _echelon(
        mat, lambda a, b: _udivmod(a, b)[0], _umul, lambda a, b: _uadd(a, _uscale(b, -1))
    )
    return _uscale(rows[-1][-1], sign)


# -- second check: the difference forms on {P=0} n {R=0} ------------------------------


def _on_line(f: HomPoly, x: int, b) -> HomPoly:
    """The binary form f(s e_x + u b) in (s, u), where b[x] = 0.

    A term c y^e adds c prod_{i != x} b_i^e_i to the coefficient of s^e_x u^(d - e_x).
    """
    d = f.degree
    out = [0] * (d + 1)
    b = [1 if i == x else bi for i, bi in enumerate(b)]
    for e, c in f.terms:
        out[e[x]] += c * math.prod(map(pow, b, e))
    return HomPoly._new(2, {(j, d - j): v for j, v in enumerate(out)}, d)


def _dehom_binary(g: HomPoly):
    """Binary form -> (poly in s with u = 1, multiplicity of the root [1:0])."""
    u_order = min(e[1] for e, _ in g.terms)
    out = [0] * (g.degree + 1)
    for (i, _), c in g.terms:
        out[i] += c
    return _utrim(out), u_order


def _line_zeros(binary):
    """Rational zeros and failures of binary forms on a line, as points [s:u].

    The first two forms are coprime.  The failing zeros are those of the
    gcd of all the forms.  Returns the rational zeros of the first two,
    the failing ones among them, and the squarefree part of the gcd at
    u = 1 with their s-coordinates divided out: its roots are the
    s-coordinates of the failing points [s:1] not listed.
    """
    g = poly_gcd_many(binary[:2])
    spoly, u_order = _dehom_binary(g)
    gpoly, u_fail = _dehom_binary(poly_gcd_many((g, *binary[2:])))
    corner = (Fraction(1), Fraction(0))
    points = [corner] if u_order else []
    points += [(s0, Fraction(1)) for s0 in _urational_roots(spoly)]
    failing = [corner] if u_fail else []
    bad = _usquarefree(gpoly)
    for s0 in _urational_roots(bad):
        failing.append((s0, Fraction(1)))
        bad = _udivmod(bad, [-s0, 1])[0]
    return points, failing, bad


def _chart_points(p, r, *ds):
    """Rational points and failures in the chart t = 1, coordinates (z, w).

    Every common zero of p and r has its z-coordinate among the roots of
    h, the squarefree part of their resultant in w; every failing one, a
    zero of every form, is also a root of each resultant of a d in ds
    with p or r.  A Euclid in w over Q[z]/(h) then decides the gcd of
    all the forms: once the leading coefficient u of b is a unit mod h,
    the pseudo-remainder a <- u a - c w^k b keeps that gcd on every
    factor of h, and h splits whenever u is a zero divisor (dynamic
    evaluation).  `_line_zeros` solves each rational fibre z = z0 t,
    less its zero [1:0], which is [0:1:0] on the line t = 0.  Returns
    the rational zeros of p and r, the failing ones among them, and the
    product of the factors of h over which the gcd has positive degree
    in w, with each z-coordinate whose failing points are all listed
    divided out.
    """
    forms = (p, r, *ds)
    p, r, *ds = (_rows(f) for f in forms)
    res = _sylvester_resultant(p, r)
    assert res, "coprime forms have a nonzero resultant"
    h = _usquarefree(res)
    for d in ds:
        for e in (p, r):
            # the resultant of two w-free polys is 1 by convention, not in the ideal
            cut = _sylvester_resultant(e, d) if max(len(e), len(d)) > 1 else []
            if cut:
                h = _ugcd(h, cut)
                break
    bad = [1]
    # (h, a, b, rest): a is the gcd so far over Q[z]/(h), with a unit leading coefficient,
    # b the next form, rest the forms still to fold in; coefficients are polys in z
    work = [(h, [], p, [r, *ds])]
    while work:
        h, a, b, rest = work.pop()
        if _udeg(h) < 1 or len(a) == 1:
            continue  # no z left, or the gcd is already 1
        b = [_udivmod(c, h)[1] for c in b]
        while b and not b[-1]:
            b.pop()
        if not b:
            if rest:
                work.append((h, a, rest[0], rest[1:]))
            else:
                bad = _umul(bad, h)
            continue
        g = _ugcd(b[-1], h)
        if _udeg(g) > 0:
            work += [(g, a, b, rest), (_udivmod(h, g)[0], a, b, rest)]
            continue
        a = [_udivmod(c, h)[1] for c in a]
        while len(a) >= len(b):
            cb = [[]] * (len(a) - len(b)) + [_umul(a[-1], y) for y in b]
            a = [_udivmod(_uadd(_umul(b[-1], x), _uscale(y, -1)), h)[1] for x, y in zip(a, cb)]
            while a and not a[-1]:
                a.pop()
        work.append((h, b, a, rest))
    points, failing = [], []
    for z0 in _urational_roots(res):
        zeros, fails, fibre_bad = _line_zeros([_on_line(f, 1, (z0, 0, 1)) for f in forms])
        points += [(z0, w0, Fraction(1)) for w0, u in zeros if u]
        fails = [(z0, w0, Fraction(1)) for w0, u in fails if u]
        failing += fails
        if fails and _udeg(fibre_bad) < 1:
            bad = _udivmod(bad, [-z0, 1])[0]  # every failing point over z0 is listed
    return points, failing, bad


def check_intersection_conditions(inst: FamilyInstance) -> IntersectionReport:
    """Pointwise difference condition on the finite set {P=0} n {R=0}.

    Finiteness comes exactly from the two coprimality facts.  The
    verdict is exact: FAIL iff some point of the set is a zero of both
    Q1 - Q3 and Q2 - Q3, decided by a gcd of binary forms on the line
    t = 0 and by a Euclid over the roots of a resultant in the chart
    t = 1.  Each of the two lists its rational points, the failing ones
    among them and a witness for the failing points it does not list.
    """
    return _intersection_conditions(inst, check_coprimality(inst))


def _intersection_conditions(inst: FamilyInstance, coprimality: str) -> IntersectionReport:
    """`check_intersection_conditions` given the verdict of `check_coprimality`."""
    if coprimality == FAIL:
        return IntersectionReport(
            verdict=FAIL,
            rational_points=(),
            boxed_points=0,
            failure_witnesses=(),
            unresolved=0,
        )
    forms = tuple(
        int_primitive(f).primitive for f in (inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3)
    )
    line, line_fail, line_bad = _line_zeros([_on_line(f, 0, (0, 1, 0)) for f in forms])
    line, line_fail = ([(z0, w0, Fraction(0)) for z0, w0 in pts] for pts in (line, line_fail))
    chart, chart_fail, chart_bad = _chart_points(*forms)
    witnesses = line_fail + chart_fail + [
        (where, tuple(_quo(c, bad[-1]) for c in bad))
        for where, bad in (("line", line_bad), ("chart", chart_bad))
        if _udeg(bad) >= 1
    ]
    return IntersectionReport(
        verdict=FAIL if witnesses else PASS,
        rational_points=tuple(line + chart),
        boxed_points=0,
        failure_witnesses=tuple(witnesses),
        unresolved=0,
    )


# -- third check: rank and pencil -----------------------------------------------------


def _pencil_kernel_witness(P: HomPoly, Qs):
    """Exact witness (a, b, c) with P dividing a Q1 + b Q2 + c Q3, or None.

    The forms have int coefficients, so the elimination stays in Z: its
    divisions are exact, and only the back-substitution takes Fractions.
    """
    dp, dq = P.degree, Qs[0].degree
    if dp > dq:
        return None
    cols = [dict(q.terms) for q in Qs]
    for m in _monomials(dq - dp):
        cols.append({e: -c for e, c in (P * HomPoly.monomial(3, m)).terms})
    rows_idx = sorted({e for col in cols for e in col})
    mat = [[col.get(e, 0) for col in cols] for e in rows_idx]
    ech, pivots, _ = _echelon(mat, operator.floordiv)
    free = [c for c in range(len(cols)) if c not in pivots]
    if not free:
        return None
    # any nonzero kernel vector has a nonzero (a, b, c) head, because the
    # L-columns alone are independent (multiplication by P is injective);
    # back-substitution from 1 at the first free column and 0 at the
    # others gives the kernel vector of the reduced echelon form
    vec = [Fraction(0)] * len(cols)
    vec[free[0]] = Fraction(1)
    for row, pc in reversed(list(zip(ech, pivots))):
        vec[pc] = Fraction(-sum(x * v for x, v in zip(row[pc + 1 :], vec[pc + 1 :]) if v), row[pc])
    head = {-i: x for i, x in enumerate(vec[:3]) if x}
    assert head, "kernel vector with zero pencil part"
    # coprime ints whose first nonzero entry, the largest key, is positive
    _, head = _dint_normalize(head)
    return tuple(head.get(-i, 0) for i in range(3))


def _monomials(deg):
    return [(i, j, deg - i - j) for i in range(deg + 1) for j in range(deg + 1 - i)]


_AXIS_TRIPLES = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
    (1, 1, -2),
    (2, -1, -1),
)
# seeded random triples the pencil scan adds to the axis triples
_PENCIL_SAMPLES = 40


def check_rank_and_pencil(inst: FamilyInstance):
    """Exact jacobian rank at (1,1,1) and pencil coprimality check.

    The rank is computed over Z (and must be exactly 2 to PASS; 3 is
    impossible since every row annihilates (1,1,1)).  The pencil check
    first solves exactly for any member divisible by P.  For linear P,
    sharing a factor with P means being divisible by it, so the kernel
    solve decides the pencil.  Otherwise fixed axis triples and
    `_PENCIL_SAMPLES` random triples drawn from a fixed seed are
    sampled; any hit is an exact FAIL with the witness triple, and a
    PASS is only as strong as the sampling.

    A sampled member is decided on the line s (1,1,1) + b over
    GF(2^61 - 1), with b drawn once per instance.  A form's leading
    coefficient in s there is its value at (1,1,1).  The value there of
    each integer factor of the integer-primitive P divides the nonzero
    int P(1,1,1), so when p does not divide P(1,1,1), each common factor
    of P and a member keeps its degree on the line, and a constant gcd
    of the two images proves them coprime.  Only a member whose image
    gcd is not constant, and every member when p divides P(1,1,1), is
    built and goes to `poly_gcd`.
    """
    # the jacobian at (1,1,1): d f / d x_i there is the sum of c e_i over the terms c x^e
    rows = [[sum(c * e[i] for e, c in f.terms) for i in range(3)] for f in inst.map.components]
    for row in rows:
        assert sum(row) == 0, "jacobian row not orthogonal to (1,1,1)"
    rank = len(_echelon(rows, operator.floordiv)[1])
    assert rank <= 2
    rank_report = RankReport(rank=rank, verdict=PASS if rank == 2 else FAIL)

    # one common scale of the Q_j keeps every member's gcd with P
    P = int_primitive(inst.P).primitive
    den = math.lcm(*(c.denominator for q in (inst.Q1, inst.Q2, inst.Q3) for _, c in q.terms))
    Qs = [q * den for q in (inst.Q1, inst.Q2, inst.Q3)]
    witness = _pencil_kernel_witness(P, Qs)
    if witness is not None:
        return rank_report, PencilReport(verdict=FAIL, witness=witness, method="kernel")
    if P.degree == 1:
        return rank_report, PencilReport(verdict=PASS, witness=None, method="kernel")
    rng = random.Random(0)
    triples = list(_AXIS_TRIPLES)
    while len(triples) < len(_AXIS_TRIPLES) + _PENCIL_SAMPLES:
        t = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if any(t):
            triples.append(t)
    p = _TOP_PRIME
    line = [HomPoly(2, (((1, 0), 1), ((0, 1), _point_rng(p).randrange(p)))) for _ in range(3)]
    imgs = []
    for f, g in zip((P, *Qs), compose_all((P, *Qs), line)):
        terms = dict(g.terms)
        imgs.append([terms.get((j, f.degree - j), 0) % p for j in range(f.degree + 1)])
    # the images at u = 1, low degree first; P's top one is P(1,1,1) mod p
    p_img, *q_imgs = imgs
    for a, b, c in triples:
        if p_img[-1]:
            img = [a * x + b * y + c * z for x, y, z in zip(*q_imgs)]
            if len(_modp_gcd(p_img, img, p)) == 1:
                continue
        member = Qs[0] * a + Qs[1] * b + Qs[2] * c
        if member.is_zero or poly_gcd(P, member).degree > 0:
            return rank_report, PencilReport(verdict=FAIL, witness=(a, b, c), method="sampled")
    return rank_report, PencilReport(verdict=PASS, witness=None, method="randomized")


def run_preflight(inst: FamilyInstance) -> PreflightReport:
    """All three checks; overall is PASS iff every verdict is PASS."""
    cop = check_coprimality(inst)
    inter = _intersection_conditions(inst, cop)
    rank, pencil = check_rank_and_pencil(inst)
    ok = all(v == PASS for v in (cop, inter.verdict, rank.verdict, pencil.verdict))
    return PreflightReport(
        coprimality=cop,
        intersection=inter,
        rank=rank,
        pencil=pencil,
        overall=PASS if ok else FAIL,
    )


# -- random generation ------------------------------------------------------------------


def random_family(deg_p: int, deg_q: int, coeff_bound: int, seed: int) -> FamilyInstance:
    """Seeded rejection sampling of a valid instance.

    Q2, Q3 and R are nudged by integer multiples of a single monomial
    so the calibration at (1,1,1) holds exactly; candidates failing
    construction or the exact coprimality check are rejected.
    """
    if deg_p < 1:
        raise ValueError("deg_p must be >= 1")
    if deg_q < 2:
        raise ValueError(
            "deg_q must be >= 2: with deg_q = 1 the dominant growth rate "
            "degenerates to 1 and iteration gains nothing"
        )
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    rng = random.Random(seed)
    one = (1, 1, 1)
    for _ in range(400):
        P = random_hompoly(rng, 3, deg_p, 6, coeff_bound)
        if P.is_zero or P.evaluate(one) == 0:
            continue
        q1 = random_hompoly(rng, 3, deg_q, 8, coeff_bound)
        if q1.is_zero or q1.evaluate(one) == 0:
            continue
        target = q1.evaluate(one)
        q2 = _calibrate(random_hompoly(rng, 3, deg_q, 8, coeff_bound), target, (0, deg_q, 0))
        q3 = _calibrate(random_hompoly(rng, 3, deg_q, 8, coeff_bound), target, (0, 0, deg_q))
        if q2 is None or q3 is None or q2 == q1 or q3 == q1 or q2 == q3:
            continue
        r0 = random_hompoly(rng, 3, deg_p + deg_q, 10, coeff_bound)
        R = _calibrate(r0, P.evaluate(one) * target, (deg_p + deg_q, 0, 0))
        if R is None:
            continue
        try:
            inst = build_family_map(P, q1, q2, q3, R)
        except (FamilyError, NotDominant):
            continue
        if check_coprimality(inst) != PASS:
            continue
        return inst
    raise GenerationExhausted(f"no valid instance in 400 attempts (seed {seed})")


def _calibrate(p: HomPoly, target, mono):
    one = (1, 1, 1)
    delta = target - p.evaluate(one)
    if delta:
        p = p + HomPoly.monomial(3, mono) * int(delta)
    if p.is_zero or p.evaluate(one) != target:
        return None
    return p


def sample_divisor_points(inst: FamilyInstance, count: int, seed: int = 0):
    """Exact rational points on {P = 0}, found by solving for one coordinate.

    Solves for a coordinate in which P is linear, else for t, taking
    the least rational root of P with the other two coordinates drawn
    at random.  May return fewer than `count` points when rational
    points are scarce.
    """
    P = inst.P
    rng = random.Random(seed)
    x = next((x for x in range(3) if max(e[x] for e, _ in P.terms) == 1), 2)
    out = []
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        vals = [rng.randint(-20, 20) for _ in range(3)]
        vals[x] = 0
        line = _on_line(P, x, vals)  # [s:1] is vals + s e_x
        roots = _urational_roots(_dehom_binary(line)[0]) if line else []
        if not roots:
            continue
        vals[x] = roots[0]
        pt = tuple(map(Fraction, vals))
        if all(v == 0 for v in pt):
            continue
        assert P.evaluate(pt) == 0
        out.append(pt)
    return out


# -- family files ------------------------------------------------------------------------


_FAMILY_KEYS = ("P", "Q1", "Q2", "Q3", "R")


def parse_family_text(text: str) -> FamilyInstance:
    """Parse a family file: vars line, optional map lines, and the five forms.

    Map lines, when present, must equal the map built from the forms as
    `family_to_text` writes it, or once normalized by `_extract`.
    """
    names = None
    maps = []
    forms = {}
    for lineno, head, body in _directives(text):
        if head == "vars":
            if names is not None:
                raise ParseError(f"line {lineno}: duplicate vars line")
            names = tuple(body.split())
            if len(names) != 3:
                raise ParseError(f"line {lineno}: need exactly three variables")
        elif head != "map" and head not in _FAMILY_KEYS:
            raise ParseError(f"line {lineno}: unexpected directive {head!r}")
        elif names is None:
            raise ParseError(f"line {lineno}: vars line must come first")
        elif head == "map":
            maps.append(parse_poly(body, names))
        elif head in forms:
            raise ParseError(f"line {lineno}: duplicate {head} line")
        else:
            forms[head] = parse_poly(body, names)
    if names is None:
        raise ParseError("missing vars line")
    missing = [k for k in _FAMILY_KEYS if k not in forms]
    if missing:
        raise ParseError(f"missing lines: {', '.join(missing)}")
    inst = build_family_map(*(forms[k] for k in _FAMILY_KEYS), names=names)
    if maps:
        if len(maps) != 3:
            raise ParseError("a family file needs exactly three map lines when present")
        if not any(maps):
            raise ParseError("all components are zero")
        maps, comps = tuple(maps), inst.map.components
        if maps != comps and _extract(maps, HomPoly.one(3))[1] != comps:
            raise ParseError("map lines disagree with the map induced by the forms")
    return inst


def family_to_text(inst: FamilyInstance) -> str:
    names = inst.names
    lines = [map_to_text(inst.map).rstrip("\n")]
    for key, form in zip(_FAMILY_KEYS, (inst.P, inst.Q1, inst.Q2, inst.Q3, inst.R)):
        lines.append(f"{key} {poly_to_text(form, names)}")
    return "\n".join(lines) + "\n"


def load_family(path) -> FamilyInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family_text(fh.read())


def save_family(inst: FamilyInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(family_to_text(inst))
