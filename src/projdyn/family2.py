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
{P=0} n {R=0}, decided exactly by the solver of `plane` on the
integer primitive parts of the forms; and the jacobian rank at (1,1,1)
together with a coprimality scan over the pencil spanned by the Q_j.
The preflight is advisory; the authoritative verdict is always the
symbolic certificate from the iteration module.
"""

import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import _EXPORTS
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
from .plane import _chart_points, _dehom_binary, _line_zeros, _on_line, _urational_roots
from .polycore import (
    HomPoly,
    ParseError,
    PolyError,
    _TOP_PRIME,
    _dint_normalize,
    _modp_gcd,
    _point_rng,
    _quo,
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

__all__ = list(_EXPORTS["family2"])

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


# -- second check: the difference forms on {P=0} n {R=0} ------------------------------


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
        if len(bad) >= 2
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
