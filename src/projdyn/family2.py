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
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .mapiter import NotDominant, ProjMap, make_map, map_to_text
from .polycore import (
    HomPoly,
    ParseError,
    _is_prime,
    _modp_gcd,
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


@dataclass(frozen=True)
class FamilyInstance:
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


@dataclass(frozen=True)
class IntersectionReport:
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


@dataclass(frozen=True)
class RankReport:
    rank: int
    verdict: str


@dataclass(frozen=True)
class PencilReport:
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


@dataclass(frozen=True)
class PreflightReport:
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
    one = (Fraction(1), Fraction(1), Fraction(1))
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
    g = poly_gcd_many(comps)
    if g.degree > 0:
        raise CommonFactor(f"components share the factor {poly_to_text(g)}")
    f = make_map(comps, names)
    try:
        rec = DegreeRecurrence(d=P.degree + dq, h=P.degree, n0=1)
    except ValueError as exc:
        raise DegreeConstraintViolated(str(exc)) from exc
    return FamilyInstance(P=P, Q1=Q1, Q2=Q2, Q3=Q3, R=R, map=f, recurrence=rec)


# -- first check: exact coprimality -----------------------------------------------


def _is_coprime_pair(a: HomPoly, b: HomPoly) -> bool:
    if a.is_zero or b.is_zero:
        return False  # gcd is the other form, of positive degree
    return poly_gcd(a, b).degree == 0


def check_coprimality(inst: FamilyInstance) -> str:
    """PASS iff Q2-Q1, Q3-Q1 are coprime and P, R are coprime.  Exact."""
    ok = _is_coprime_pair(inst.Q2 - inst.Q1, inst.Q3 - inst.Q1) and _is_coprime_pair(inst.P, inst.R)
    return PASS if ok else FAIL


# -- exact univariate toolkit (dense Fraction lists, low degree first) -------------


def _utrim(u):
    while u and u[-1] == 0:
        u.pop()
    return u


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
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _utrim(out)


def _udivexact(a, b):
    """Quotient of a by b; the division must be exact."""
    assert b, "division by the zero polynomial"
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        out[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _utrim(a)
    assert not a, "inexact polynomial division"
    return _utrim(out)


def _urem(a, b):
    a = list(a)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _utrim(a)
    return a


def _ugcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _urem(a, b)
    if a:
        lc = a[-1]
        a = [x / lc for x in a]
    return a


def _uinvmod(a, h):
    """Inverse of a modulo h by the extended Euclidean algorithm; a must be a unit mod h."""
    r0, r1 = list(h), _urem(a, h)
    s0, s1 = [], [Fraction(1)]
    while _udeg(r1) > 0:
        rem = _urem(r0, r1)
        q = _udivexact(_uadd(r0, _uscale(rem, -1)), r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _uadd(s0, _uscale(_umul(q, s1), -1))
    assert r1, "not a unit modulo h"
    return _urem(_uscale(s1, 1 / r1[0]), h)


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
    return _udivexact(a, g)


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


def _chart(p: HomPoly, drop: int) -> dict:
    """Affine chart: set coordinate `drop` to 1, keep the other two."""
    keep = [i for i in range(3) if i != drop]
    out = {}
    for e, c in p.terms:
        key = (e[keep[0]], e[keep[1]])
        out[key] = out.get(key, 0) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def _bideg(d: dict, var: int) -> int:
    return max((k[var] for k in d), default=-1)


def _bi_to_upolys(d: dict, main: int):
    """List (by main-variable degree) of coefficient polys in the other variable."""
    other = 1 - main
    n = _bideg(d, main)
    rows = [[] for _ in range(n + 1)]
    for (i, j), c in d.items():
        mdeg = (i, j)[main]
        odeg = (i, j)[other]
        row = rows[mdeg]
        while len(row) <= odeg:
            row.append(Fraction(0))
        row[odeg] += c
    return [_utrim(r) for r in rows]


def _bareiss_poly_det(mat):
    """Fraction-free determinant of a matrix of univariate polynomials."""
    n = len(mat)
    m = [[list(entry) for entry in row] for row in mat]
    prev = [Fraction(1)]
    sign = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                # zero column: determinant vanishes
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _uadd(_umul(m[i][j], m[k][k]), _uscale(_umul(m[i][k], m[k][j]), -1))
                m[i][j] = _udivexact(num, prev) if num else []
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return _uscale(det, sign)


def _sylvester_resultant(d: dict, e: dict, elim: int):
    """Resultant of two bivariate polys w.r.t. variable `elim`, as a univariate poly."""
    A = _bi_to_upolys(d, elim)
    B = _bi_to_upolys(e, elim)
    da, db = len(A) - 1, len(B) - 1
    if da < 0 or db < 0:
        return []
    if da == 0 and db == 0:
        return [Fraction(1)]
    size = da + db
    mat = [[[] for _ in range(size)] for _ in range(size)]
    for s in range(db):
        for k in range(da + 1):
            mat[s][s + k] = list(A[da - k])
    for s in range(da):
        for k in range(db + 1):
            mat[db + s][s + k] = list(B[db - k])
    return _bareiss_poly_det(mat)


def _bi_eval_partial(d: dict, main: int, value: Fraction):
    """Substitute `value` for the main variable; univariate in the other."""
    rows = _bi_to_upolys(d, main)
    acc = []
    power = Fraction(1)
    for row in rows:
        acc = _uadd(acc, _uscale(row, power))
        power *= value
    return acc


# -- second check: the difference forms on {P=0} n {R=0} ------------------------------


def _restrict_t0(p: HomPoly) -> HomPoly:
    """The binary form p(z, w, 0)."""
    return HomPoly(2, (((e[0], e[1]), c) for e, c in p.terms if e[2] == 0))


def _dehom_binary(g: HomPoly):
    """Binary form -> (poly in z with w = 1, multiplicity of the root [1:0])."""
    w_order = min(e[1] for e, _ in g.terms)
    out = [Fraction(0)] * (g.degree + 1)
    for (i, _), c in g.terms:
        out[i] += c
    return _utrim(out), w_order


def _line_points(forms):
    """Rational points and failures on the line t = 0.

    forms are P, R and the two difference forms.  On the line they are
    binary forms in (z, w); the failing points are the zeros of their
    gcd.  Returns the rational zeros of P and R, then the squarefree
    part of that gcd at w = 1, whose roots are the z-coordinates of the
    failing points [z:1:0].
    """
    binary = [_restrict_t0(f) for f in forms]
    zpoly, w_order = _dehom_binary(poly_gcd_many(binary[:2]))
    points = [(Fraction(1), Fraction(0), Fraction(0))] if w_order else []
    if _udeg(zpoly) >= 1:
        roots = _urational_roots(zpoly)
        points += [(z0, Fraction(1), Fraction(0)) for z0 in roots]
    bad = _usquarefree(_dehom_binary(poly_gcd_many(binary))[0])
    return points, bad


def _chart_points(forms):
    """Rational points and failures in the chart t = 1, coordinates (z, w).

    Every common zero of p and r has its z-coordinate among the roots of
    h, the squarefree part of their resultant in w; every failing one is
    also a root of each resultant of a difference with p or r.  A monic
    Euclid in w over Q[z]/(h) then decides the gcd of all four forms,
    splitting h whenever a leading coefficient is a zero divisor
    (dynamic evaluation).  Returns the rational zeros of p and r, then
    the product of the factors of h over which that gcd has positive
    degree in w, the z-coordinates of all failing points.
    """
    charts = [_chart(f, 2) for f in forms]
    p, r, d1, d2 = charts
    res = _sylvester_resultant(p, r, 1)
    assert res, "coprime forms have a nonzero resultant"
    points = []
    zroots = _urational_roots(res)
    for z0 in zroots:
        q = _ugcd(_bi_eval_partial(p, 0, z0), _bi_eval_partial(r, 0, z0))
        if _udeg(q) >= 1:
            wroots = _urational_roots(q)
            points += [(z0, w0, Fraction(1)) for w0 in wroots]
    h = _usquarefree(res)
    for d in (d1, d2):
        for e in (p, r):
            # the resultant of two w-free polys is 1 by convention, not in the ideal
            cut = _sylvester_resultant(e, d, 1) if max(_bideg(e, 1), _bideg(d, 1)) > 0 else []
            if cut:
                h = _ugcd(h, cut)
                break
    bad = [Fraction(1)]
    # (h, a, b, rest): a is the monic gcd so far over Q[z]/(h), b the next
    # form, rest the forms still to fold in; coefficients are polys in z
    work = [(h, [], _bi_to_upolys(p, 1), [_bi_to_upolys(f, 1) for f in (r, d1, d2)])]
    while work:
        h, a, b, rest = work.pop()
        if _udeg(h) < 1 or len(a) == 1:
            continue  # no z left, or the gcd is already 1
        b = [_urem(c, h) for c in b]
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
            work += [(g, a, b, rest), (_udivexact(h, g), a, b, rest)]
            continue
        inv = _uinvmod(b[-1], h)
        b = [_urem(_umul(c, inv), h) for c in b]
        a = [_urem(c, h) for c in a]
        while len(a) >= len(b):
            c, k = a.pop(), len(a) + 1 - len(b)
            for i, y in enumerate(b[:-1]):
                a[k + i] = _urem(_uadd(a[k + i], _uscale(_umul(c, y), -1)), h)
            while a and not a[-1]:
                a.pop()
        work.append((h, b, a, rest))
    return points, bad, charts


def check_intersection_conditions(inst: FamilyInstance) -> IntersectionReport:
    """Pointwise difference condition on the finite set {P=0} n {R=0}.

    Finiteness comes exactly from the two coprimality facts.  The
    verdict is exact: FAIL iff some point of the set is a zero of both
    Q1 - Q3 and Q2 - Q3, decided by a gcd of binary forms on the line
    t = 0 and by a Euclid over the roots of a resultant in the chart
    t = 1.  The rational points are listed and checked one by one.
    """
    if check_coprimality(inst) == FAIL:
        return IntersectionReport(
            verdict=FAIL,
            rational_points=(),
            boxed_points=0,
            failure_witnesses=(),
            unresolved=0,
        )
    forms = (inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3)
    line, line_bad = _line_points(forms)
    chart, chart_bad, charts = _chart_points(forms)
    failing = [pt for pt in line + chart if all(d.evaluate(pt) == 0 for d in forms[2:])]
    # divide out the z-coordinates whose failing points are all listed
    for z0, w0, t0 in failing:
        if t0 == 0 and w0 == 1:
            line_bad = _udivexact(line_bad, [-z0, Fraction(1)])
    for z0 in {pt[0] for pt in failing if pt[2] == 1}:
        fiber = []
        for f in charts:
            fiber = _ugcd(fiber, _bi_eval_partial(f, 0, z0))
        listed = sum(1 for pt in failing if pt[2] == 1 and pt[0] == z0)
        if _udeg(_usquarefree(fiber)) == listed:
            chart_bad = _udivexact(chart_bad, [-z0, Fraction(1)])
    witnesses = failing + [
        (where, tuple(c / bad[-1] for c in bad))
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


def _rref(rows):
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _jacobian_rows_at_one(inst: FamilyInstance):
    one = (Fraction(1), Fraction(1), Fraction(1))
    comps = [inst.P * q - inst.R for q in (inst.Q1, inst.Q2, inst.Q3)]
    rows = []
    for comp in comps:
        rows.append([Fraction(comp.partial(j).evaluate(one)) for j in range(3)])
    return rows


def _pencil_kernel_witness(inst: FamilyInstance):
    """Exact witness (a, b, c) with P dividing a Q1 + b Q2 + c Q3, or None."""
    dp, dq = inst.P.degree, inst.Q1.degree
    if dp > dq:
        return None
    lmons = _monomials(dq - dp)
    cols = []
    for q in (inst.Q1, inst.Q2, inst.Q3):
        cols.append({e: Fraction(c) for e, c in q.terms})
    for m in lmons:
        prod = inst.P * HomPoly.monomial(3, m)
        cols.append({e: -Fraction(c) for e, c in prod.terms})
    rows_idx = sorted({e for col in cols for e in col})
    mat = [[col.get(e, Fraction(0)) for col in cols] for e in rows_idx]
    rref, pivots = _rref(mat)
    free = [c for c in range(len(cols)) if c not in pivots]
    if not free:
        return None
    # any nonzero kernel vector has a nonzero (a, b, c) head, because the
    # L-columns alone are independent (multiplication by P is injective)
    fc = free[0]
    vec = [Fraction(0)] * len(cols)
    vec[fc] = Fraction(1)
    for rr, pc in zip(rref, pivots):
        vec[pc] = -rr[fc]
    abc = tuple(vec[:3])
    assert any(x != 0 for x in abc), "kernel vector with zero pencil part"
    lcm = math.lcm(*(x.denominator for x in abc))
    scaled = [int(x * lcm) for x in abc]
    g = math.gcd(*(abs(x) for x in scaled))
    scaled = [x // g for x in scaled]
    if next(x for x in scaled if x) < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


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


def check_rank_and_pencil(inst: FamilyInstance, samples: int = 40, seed: int = 0):
    """Exact jacobian rank at (1,1,1) and pencil coprimality check.

    The rank is computed in rational arithmetic (and must be exactly 2
    to PASS; 3 is impossible since every row annihilates (1,1,1)).
    The pencil check first solves exactly for any member divisible by
    P.  For linear P, sharing a factor with P means being divisible by
    it, so the kernel solve decides the pencil.  Otherwise gcds are
    sampled at fixed axis triples plus `samples` seeded random triples;
    any hit is an exact FAIL with the witness triple, and a PASS is
    only as strong as the sampling.
    """
    rows = _jacobian_rows_at_one(inst)
    for row in rows:
        assert sum(row) == 0, "jacobian row not orthogonal to (1,1,1)"
    _, pivots = _rref(rows)
    rank = len(pivots)
    assert rank <= 2
    rank_report = RankReport(rank=rank, verdict=PASS if rank == 2 else FAIL)

    witness = _pencil_kernel_witness(inst)
    if witness is not None:
        return rank_report, PencilReport(verdict=FAIL, witness=witness, method="kernel")
    if inst.P.degree == 1:
        return rank_report, PencilReport(verdict=PASS, witness=None, method="kernel")
    rng = random.Random(seed)
    triples = list(_AXIS_TRIPLES)
    while len(triples) < len(_AXIS_TRIPLES) + samples:
        t = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if any(t):
            triples.append(t)
    for a, b, c in triples:
        member = inst.Q1 * a + inst.Q2 * b + inst.Q3 * c
        if member.is_zero or poly_gcd(inst.P, member).degree > 0:
            return rank_report, PencilReport(verdict=FAIL, witness=(a, b, c), method="sampled")
    return rank_report, PencilReport(verdict=PASS, witness=None, method="randomized")


def run_preflight(inst: FamilyInstance, samples: int = 40, seed: int = 0) -> PreflightReport:
    """All three checks; overall is PASS iff every verdict is PASS."""
    cop = check_coprimality(inst)
    inter = check_intersection_conditions(inst)
    rank, pencil = check_rank_and_pencil(inst, samples=samples, seed=seed)
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
    one = (Fraction(1), Fraction(1), Fraction(1))
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
    one = (Fraction(1), Fraction(1), Fraction(1))
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
    x = next((x for x in range(3) if _deg_in_var(P, x) == 1), 2)
    out = []
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        vals = [Fraction(rng.randint(-20, 20)) for _ in range(3)]
        roots = _urational_roots(_specialize_to_var(P, x, vals))
        if not roots:
            continue
        vals[x] = roots[0]
        pt = tuple(vals)
        if all(v == 0 for v in pt):
            continue
        assert P.evaluate(pt) == 0
        out.append(pt)
    return out


def _deg_in_var(p: HomPoly, x: int) -> int:
    return max((e[x] for e, _ in p.terms), default=0)


def _specialize_to_var(p: HomPoly, x: int, vals):
    """p as a univariate in coordinate x, the others set to vals."""
    out = []
    for e, c in p.terms:
        coef = Fraction(c)
        for y in range(3):
            if y != x:
                coef *= vals[y] ** e[y]
        while len(out) <= e[x]:
            out.append(Fraction(0))
        out[e[x]] += coef
    return _utrim(out)


# -- family files ------------------------------------------------------------------------


_FAMILY_KEYS = ("P", "Q1", "Q2", "Q3", "R")


def parse_family_text(text: str) -> FamilyInstance:
    """Parse a family file: vars line, optional map lines, and the five forms.

    When map lines are present they must agree with the map rebuilt
    from the forms.
    """
    names = None
    maps = []
    forms = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(" ")
        if head == "vars":
            names = tuple(line.split()[1:])
            if len(names) != 3:
                raise ParseError(f"line {lineno}: need exactly three variables")
        elif head == "map":
            if names is None:
                raise ParseError(f"line {lineno}: vars line must come first")
            maps.append(parse_poly(body, names))
        elif head in _FAMILY_KEYS:
            if names is None:
                raise ParseError(f"line {lineno}: vars line must come first")
            if head in forms:
                raise ParseError(f"line {lineno}: duplicate {head} line")
            forms[head] = parse_poly(body, names)
        else:
            raise ParseError(f"line {lineno}: unexpected directive {head!r}")
    if names is None:
        raise ParseError("missing vars line")
    missing = [k for k in _FAMILY_KEYS if k not in forms]
    if missing:
        raise ParseError(f"missing lines: {', '.join(missing)}")
    inst = build_family_map(*(forms[k] for k in _FAMILY_KEYS), names=names)
    if maps:
        if len(maps) != 3:
            raise ParseError("a family file needs exactly three map lines when present")
        built = make_map(maps, names)
        if built.components != inst.map.components:
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
