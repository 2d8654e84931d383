"""Tests for the normalized family: construction, preflight checks, generation."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

from projdyn import (
    FAIL,
    PASS,
    CommonFactor,
    DegreeConstraintViolated,
    DegreeRecurrence,
    GenerationExhausted,
    HomPoly,
    NormalizationViolated,
    ParseError,
    build_family_map,
    char_poly_roots,
    check_coprimality,
    check_intersection_conditions,
    check_rank_and_pencil,
    extend_degrees,
    family_to_text,
    infer_qas,
    iterate_degrees,
    parse_family_text,
    parse_poly,
    point_class,
    poly_gcd,
    poly_to_text,
    random_family,
    run_preflight,
    same_up_to_scalar,
    sample_divisor_points,
)
import projdyn.family2 as family2
import projdyn.mapiter as mapiter
import projdyn.plane as plane
from projdyn.cli import main
from projdyn.mapiter import NotDominant, _echelon, _jacobian, _jacobian_at
from projdyn.polycore import random_hompoly

V = ("z", "w", "t")


def pp(text):
    return parse_poly(text, V)


@pytest.fixture(scope="module")
def reference():
    """Extraction drops the expected divisor pattern after two steps."""
    return build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("w^2*t"))


@pytest.fixture(scope="module")
def stable():
    """Certifiably quasi-stable; every preflight check passes."""
    return build_family_map(
        pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t")
    )


@pytest.fixture(scope="module")
def twisted():
    """Sampling at points misses the bad pencil member; the kernel finds it."""
    return build_family_map(pp("z - 2*w"), pp("w^2"), pp("t^2"), pp("z*w"), pp("-w^2*t"))


@pytest.fixture(scope="module")
def line_fail():
    """Both difference forms vanish at [±sqrt2 : 1 : 0]; decided exactly."""
    return build_family_map(
        pp("z^2 - 2*w^2"),
        pp("z*w + z^2 - 2*w^2 + w*t"),
        pp("z*w + z^2 - 2*w^2 + t^2"),
        pp("z*w"),
        pp("z^2*w^2 - 2*w^4 + z^3*t - z^2*w*t"),
    )


@pytest.fixture(scope="module")
def chart_fail():
    """Both difference forms vanish at [±sqrt2 : 1 : 1]; decided exactly."""
    return build_family_map(
        pp("z^2 - 2*w^2"),
        pp("z*w*t - z^3 + z^2*w + 2*z*w^2 - w^3 - t^3"),
        pp("z*w*t - z^3 + z^2*t + 2*z*w^2 - 2*w^3"),
        pp("z*w*t"),
        pp("z^3*w*t - 2*z*w^3*t + w*z^4 - t*z^4"),
    )


# -- construction -------------------------------------------------------------


def test_reference_components_and_recurrence(reference):
    texts = [poly_to_text(c, V) for c in reference.map.components]
    assert texts == ["z*w^2 - w^2*t", "z*t^2 - w^2*t", "z^2*w - w^2*t"]
    assert reference.recurrence == DegreeRecurrence(d=3, h=1, n0=1)
    assert reference.names == V


def test_build_rejects_wrong_r_degree():
    with pytest.raises(DegreeConstraintViolated):
        build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("w^2*t^2"))


def test_build_rejects_mismatched_q_degrees():
    with pytest.raises(DegreeConstraintViolated):
        build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("w"), pp("w^2*t"))


def test_build_rejects_zero_form():
    with pytest.raises(DegreeConstraintViolated):
        build_family_map(pp("z"), HomPoly.zero(3), pp("t^2"), pp("z*w"), pp("w^2*t"))


def test_build_rejects_uncalibrated_r():
    with pytest.raises(NormalizationViolated):
        build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("2*w^2*t"))


def test_build_rejects_r_vanishing_at_one():
    with pytest.raises(NormalizationViolated):
        build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("w^2*t - w*t^2"))


def test_build_rejects_shared_component_factor():
    # every component P*Qj - R is divisible by w
    with pytest.raises(CommonFactor):
        build_family_map(pp("z"), pp("w^2"), pp("w*t"), pp("z*w"), pp("w^2*t"))


def test_build_rejects_two_variable_forms():
    two = ("z", "w")
    forms = [parse_poly(f, two) for f in ("z", "w^2", "z^2", "z*w", "z*w^2")]
    with pytest.raises(DegreeConstraintViolated, match="three variables"):
        build_family_map(*forms)


def test_build_rejects_a_vanishing_component():
    # R = P*Q1 satisfies the calibration, and P*Q1 - R is zero
    with pytest.raises(CommonFactor, match="vanishes identically"):
        build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("z*w^2"))


def test_degree_one_family_is_not_dominant():
    # d = deg P + deg Q1 = 1 is refused by make_map, before the recurrence:
    # the components -z + w, 2(w - z), t - 2z + w have a singular Jacobian
    with pytest.raises(NotDominant):
        build_family_map(pp("1"), pp("z"), pp("w"), pp("t"), pp("2*z - w"))


def test_shared_factor_is_named_in_the_family_variables():
    forms = [parse_poly(f, ("a", "b", "c")) for f in ("a", "b^2", "b^2", "b^2", "b^2*c")]
    with pytest.raises(CommonFactor, match=r"factor a\*b\^2 - b\^2\*c$"):
        build_family_map(*forms, names=("a", "b", "c"))
    with pytest.raises(CommonFactor, match=r"factor z\*w\^2 - w\^2\*t$"):
        build_family_map(*forms)


# -- coprimality check --------------------------------------------------------


def test_coprimality_reference_passes(reference):
    assert check_coprimality(reference) == PASS


def test_coprimality_fails_on_shared_difference_factor():
    # Q2 - Q1 = (z-w)(z+w) and Q3 - Q1 = (z-w)(z+2w) share z - w
    inst = build_family_map(
        pp("z"), pp("w^2"), pp("z^2"), pp("z^2 + z*w - w^2"), pp("w^2*t")
    )
    assert check_coprimality(inst) == FAIL


def test_coprimality_checks_p_against_r(reference):
    # sharing a factor between P and R cannot survive construction (it
    # would divide every component), so exercise the clause directly
    tampered = reference._replace(R=pp("z*w*t"))
    assert check_coprimality(tampered) == FAIL


# -- intersection check -------------------------------------------------------


def test_intersection_reference_exact_points(reference):
    rep = check_intersection_conditions(reference)
    assert rep.verdict == PASS
    assert rep.rational_points == (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    assert rep.boxed_points == 0
    assert rep.failure_witnesses == ()
    assert rep.unresolved == 0
    # both points share a z-coordinate whose denominator is above 10^9
    P = pp(f"{10**10 + 19}*z - {10**12 + 39}*t")
    inst = reference._replace(P=P, R=pp("w^2 - w*t - 2*t^2") + pp("w") * P)
    rep = check_intersection_conditions(inst)
    z0 = Fraction(10**12 + 39, 10**10 + 19)
    assert rep.verdict == PASS == _oracle_verdict(inst)
    assert rep.rational_points == ((z0, Fraction(-1), Fraction(1)), (z0, Fraction(2), Fraction(1)))


def test_intersection_twisted_passes(twisted):
    rep = check_intersection_conditions(twisted)
    assert rep.verdict == PASS
    assert rep.rational_points == (
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_intersection_line_failure_is_exact(line_fail):
    rep = check_intersection_conditions(line_fail)
    assert rep.verdict == FAIL
    # the witness records the minimal polynomial z^2 - 2 of the bad points
    assert rep.failure_witnesses == (
        ("line", (Fraction(-2), Fraction(0), Fraction(1))),
    )
    assert rep.rational_points == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert rep.boxed_points == 0


def test_intersection_chart_failure_is_exact(chart_fail):
    rep = check_intersection_conditions(chart_fail)
    assert rep.verdict == FAIL
    # the witness records the minimal polynomial z^2 - 2 of the bad z-coordinates
    assert rep.failure_witnesses == (
        ("chart", (Fraction(-2), Fraction(0), Fraction(1))),
    )
    assert rep.unresolved == 0
    assert rep.rational_points == ((Fraction(0), Fraction(0), Fraction(1)),)


@pytest.mark.parametrize("forms", [
    # the leading coefficient z^2 - 3 of p is zero on the factor without failures
    ("z^2*w - 3*w*t^2 + z^2*t - 2*t^3", "z^2*w^2 - 3*w^2*t^2 + z^2*t^2 - 2*t^4",
     "z^2*w - 3*w*t^2 + 2*z^2*t - 4*t^3", "z^2*w^2 - 3*w^2*t^2 + 3*z^2*w*t - 6*w*t^3"),
    # the leading coefficient z^2 - 2 of p is zero on the factor with the failures
    ("z^2*w^2 - 2*w^2*t^2 - z^2*w*t + 3*w*t^3 - z^2*t^2 + 2*t^4", "z^2*t - 2*t^3 - w*t^2",
     "z^2 - 2*t^2 - w^2", "z^2 - 2*t^2 + w*t"),
], ids=["passing-factor", "failing-factor"])
def test_chart_euclid_splits_at_zero_divisors(forms):
    """P, R, D1, D2 with h = (z^2 - 2)(z^2 - 3); all four vanish only at (±sqrt2, 0)."""
    _, _, bad = plane._chart_points(*(pp(f) for f in forms))
    assert bad == [Fraction(-2), Fraction(0), Fraction(1)]


@pytest.mark.parametrize("forms, witnesses", [
    # P and Q1 - Q3 are free of w at t = 1, where their resultant in w says
    # nothing; both differences vanish at (1, ±sqrt2, 1)
    (("z - t", "z*w^2 + w^2*t - 2*z*t^2 - 2*t^3", "z^2 - t^2", "w^2 + z*w - w*t - 2*t^2"),
     (("chart", (Fraction(-1), Fraction(1))),)),
    # the only failing point [0:0:1] is listed, so no polynomial is added
    (("z", "w*t", "w", "z + w"), ((Fraction(0), Fraction(0), Fraction(1)),)),
])
def test_intersection_witnesses(reference, forms, witnesses):
    P, R, D1, D2 = (pp(f) for f in forms)
    inst = reference._replace(P=P, R=R, Q1=D1, Q2=D2, Q3=HomPoly.zero(3))
    rep = check_intersection_conditions(inst)
    assert rep.verdict == FAIL == _oracle_verdict(inst)
    assert rep.failure_witnesses == witnesses


@pytest.mark.parametrize("forms, witnesses, points", [
    # z = 0 carries the failing point (0, 1) and the failing points (0, ±sqrt2),
    # which are not rational: z stays in the witness though (0, 1) is listed
    (("z", "(w - t)*(w^2 - 2*t^2) + z*t^2", "(w - t)*(w^2 - 2*t^2) + z*w^2",
      "2*(w - t)*(w^2 - 2*t^2) - z*w*t"),
     ((Fraction(0), Fraction(1), Fraction(1)), ("chart", (Fraction(0), Fraction(1)))),
     ((Fraction(0), Fraction(1), Fraction(1)),)),
    # [1:0:0] fails on the line and [0:0:1] passes in the chart
    (("w", "z*t + w^2", "w*z + t^2", "t*z + w^2"),
     ((Fraction(1), Fraction(0), Fraction(0)),),
     ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))),
], ids=["partly-listed-fibre", "corner"])
def test_intersection_lists_each_failure_once(reference, forms, witnesses, points):
    P, R, D1, D2 = (pp(f) for f in forms)
    inst = reference._replace(P=P, R=R, Q1=D1, Q2=D2, Q3=HomPoly.zero(3))
    rep = check_intersection_conditions(inst)
    assert rep.verdict == FAIL == _oracle_verdict(inst)
    assert rep.failure_witnesses == witnesses
    assert rep.rational_points == points


def test_intersection_fails_fast_without_finiteness():
    inst = build_family_map(
        pp("z"), pp("w^2"), pp("z^2"), pp("z^2 + z*w - w^2"), pp("w^2*t")
    )
    rep = check_intersection_conditions(inst)
    assert rep.verdict == FAIL
    assert rep.rational_points == ()
    assert rep.boxed_points == 0


def test_rational_roots_of_large_height():
    # (x - r)(x^2 + 1)
    r = Fraction(10**12 + 39, 7)
    assert plane._urational_roots([-r, Fraction(1), -r, Fraction(1)]) == [r]


def _planted(*factors):
    """Product of factors given as integer coefficient lists, low degree first."""
    out = [Fraction(1)]
    for f in factors:
        out = plane._umul(out, [Fraction(c) for c in f])
    return out


def _catalogue_resultant():
    inst = random_family(3, 3, 5, 0)
    return plane._sylvester_resultant(plane._rows(inst.P), plane._rows(inst.R))


@pytest.mark.parametrize("make", [
    # denominators above 10^9, next to a factor without real roots
    lambda: _planted([-(10**12 + 39), 10**10 + 19], [3, 10**11 + 3], [1, 0, 1]),
    lambda: _planted([-2, 3], [-2, 3], [5, 1]),  # a double root
    lambda: _planted([0, 1], [-1, 2], [-2, 0, 1]),  # a root at 0
    # lc = 210, so the primes 2, 3, 5 and 7 are skipped
    lambda: _planted([-1, 2], [1, 3], [-2, 5], [3, 7]),
    # the roots 0, 1 and 30 collide mod 2, 3 and 5, which divide the discriminant
    lambda: _planted([0, 1], [-1, 1], [-30, 1], [1, 1, 1]),
    lambda: _planted([1, 0, 0, 0, 1], [-2, 0, 1]),  # no rational root
    # |root| = 2^32 - 2, next to the Cauchy bound 2^32 - 1: the lift must pass 2^32
    lambda: _planted([-1, 1], [2**32 - 2, 1]),
    _catalogue_resultant,  # degree 18, with a squarefree part of degree 12
], ids=["large-denominators", "double-root", "root-at-zero", "lc-210", "discriminant-30",
        "no-rational-root", "near-cauchy-bound", "catalogue-resultant"])
def test_rational_roots_match_sympy(make):
    coeffs = make()
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x)
    expect = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
    assert plane._urational_roots(coeffs) == expect


def _primitive(u):
    """u scaled to coprime integers with a positive leading coefficient."""
    if not u:
        return []
    ints = [int(c * math.lcm(*(Fraction(c).denominator for c in u))) for c in u]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


@pytest.mark.parametrize("a, b", [
    ("(z - 1/2)**2*(z + 3)", "(z - 1/2)*(2*z/3 + 1)"),
    ("z**3*(z - 1)", "z*(z + 2)**2"),
    ("(3*z + 1)**2*(z**4 - 7*z/5 + 2)", "3*z + 1"),
    ("z**2 - 2", "z**3 + z/7"),
    ("0", "3*(z - 1)**2/2"),
    ("0", "0"),
    ("5/3", "z**2 + 1"),
], ids=["fractions", "root-at-zero", "unequal-lengths", "coprime", "zero", "both-zero", "constant"])
def test_ugcd_and_squarefree_match_sympy(a, b):
    z = sympy.Symbol("z")

    def coeffs(poly):
        return plane._utrim([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])

    polys = [sympy.Poly(sympy.sympify(e), z) for e in (a, b)]
    ua, ub = map(coeffs, polys)
    got = plane._ugcd(ua, ub)
    assert all(type(c) is int for c in got)
    assert got == _primitive(coeffs(sympy.gcd(*polys)))
    for u, poly in zip((ua, ub), polys):
        assert _primitive(plane._usquarefree(u)) == _primitive(coeffs(sympy.sqf_part(poly)))


def test_sylvester_resultant_matches_sympy():
    rng = random.Random(5)
    z, w = sympy.symbols("z w")

    def rand_bi():
        dz, dw = rng.randint(0, 3), rng.randint(0, 3)
        d = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for i in range(dz + 1) for j in range(dw + 1) if rng.random() < 0.6}
        return {k: c for k, c in d.items() if c} or {(0, dw): Fraction(1)}

    def rows(f, elim):
        """f as coefficient lists in the other variable, one per power of variable elim."""
        out = [[] for _ in range(max(k[elim] for k in f) + 1)]
        for k, c in f.items():
            row = out[k[elim]]
            row += [0] * (k[1 - elim] + 1 - len(row))
            row[k[1 - elim]] = c
        return [plane._utrim(r) for r in out]

    for _ in range(40):
        d, e = rand_bi(), rand_bi()
        for elim, var, other in ((1, w, z), (0, z, w)):
            got = plane._sylvester_resultant(rows(d, elim), rows(e, elim))
            D, E = (sympy.Add(*(sympy.Rational(c) * z**i * w**j for (i, j), c in f.items()))
                    for f in (d, e))
            expect = sympy.Poly(sympy.resultant(D, E, var), other).all_coeffs()[::-1]
            expect = plane._utrim([Fraction(int(c.p), int(c.q)) for c in expect])
            # sympy's sign can differ from the Sylvester determinant's;
            # the check uses only the zeros
            assert got in (expect, [-c for c in expect])


# -- the intersection verdict against a Groebner-basis oracle -------------------------

PREFLIGHT_CATALOGUE = [
    (dp, dq, s) for dp, dq in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)) for s in range(5)
] + [(1, 2, 5), (1, 2, 6), (1, 2, 7)]


def _oracle_verdict(inst, *extra):
    """FAIL iff P, R, Q1 - Q3, Q2 - Q3 and the extra forms share a zero at t = 1,
    at [z:1:0] or at [1:0:0]."""
    z, w, t = sympy.symbols("z w t")
    forms = [
        sympy.Add(*(sympy.Rational(c) * z**e[0] * w**e[1] * t**e[2] for e, c in f.terms))
        for f in (inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3, *extra)
    ]
    chart = sympy.groebner([f.subs(t, 1) for f in forms], z, w)
    line = sympy.groebner([f.subs({t: 0, w: 1}) for f in forms], z)
    corner = all(f.subs({z: 1, w: 0, t: 0}) == 0 for f in forms)
    return FAIL if list(chart.exprs) != [1] or list(line.exprs) != [1] or corner else PASS


def _assert_matches_oracle(inst):
    rep = check_intersection_conditions(inst)
    assert rep.verdict == _oracle_verdict(inst)
    assert rep.boxed_points == 0 and rep.unresolved == 0


@pytest.mark.parametrize("dp, dq, seed", PREFLIGHT_CATALOGUE)
def test_intersection_matches_oracle_on_catalogue(dp, dq, seed):
    _assert_matches_oracle(random_family(dp, dq, 5, seed))


@pytest.mark.parametrize("seed", range(20))
def test_intersection_matches_oracle_for_linear_p(seed):
    _assert_matches_oracle(random_family(1, 2, 5, seed))


def test_intersection_matches_oracle_on_fixtures(reference, stable, twisted, line_fail, chart_fail):
    for inst in (reference, stable, twisted, line_fail, chart_fail):
        _assert_matches_oracle(inst)


def _solver_verdict(*forms):
    """FAIL iff `_line_zeros` on t = 0 or `_chart_points` finds a common zero of the forms."""
    line = [plane._on_line(f, 0, (0, 1, 0)) for f in forms]
    _, line_fail, line_bad = plane._line_zeros(line)
    _, chart_fail, chart_bad = plane._chart_points(*forms)
    return FAIL if line_fail or chart_fail or len(line_bad) > 1 or len(chart_bad) > 1 else PASS


def _assert_longer_lists_match_oracle(inst, seed):
    """P, R, the two differences and one or two further forms, five or six in all."""
    d1, d2 = inst.Q1 - inst.Q3, inst.Q2 - inst.Q3
    rng = random.Random(seed)
    # a random form, which usually leaves no common zero, and a form of the
    # ideal of the differences, which keeps every one
    stray = random_hompoly(rng, 3, inst.Q1.degree, 4, 5)
    kept = d1 * random_hompoly(rng, 3, 1, 3, 3) + d2 * random_hompoly(rng, 3, 1, 3, 3)
    for extra in ((inst.Q1 - inst.Q2,), (stray,), (d1, d2), (kept, d1 - d2)):
        assert _solver_verdict(inst.P, inst.R, d1, d2, *extra) == _oracle_verdict(inst, *extra)


@pytest.mark.parametrize("dp, dq, seed", PREFLIGHT_CATALOGUE + [(2, 3, 11)])
def test_line_solver_matches_oracle_on_longer_lists(dp, dq, seed):
    _assert_longer_lists_match_oracle(random_family(dp, dq, 5, seed), seed)


def test_line_solver_matches_oracle_on_longer_failing_lists(line_fail, chart_fail):
    for inst in (line_fail, chart_fail):
        assert _solver_verdict(inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3) == FAIL
        _assert_longer_lists_match_oracle(inst, 0)
    # w + t meets P = 0 over z = ±sqrt2, so the resultants keep those fibres,
    # but misses the failing points (±sqrt2, 1): the Euclid must fold it in
    d1, d2 = chart_fail.Q1 - chart_fail.Q3, chart_fail.Q2 - chart_fail.Q3
    extra = (pp("w + t"), d1 - d2)
    assert _solver_verdict(chart_fail.P, chart_fail.R, d1, d2, *extra) == PASS
    assert _oracle_verdict(chart_fail, *extra) == PASS


@pytest.mark.parametrize("x, b", [
    (0, (0, 1, 0)),
    (1, (Fraction(-3, 2), 0, 1)),
    (1, (0, 0, 1)),
    # sample_divisor_points solving for w, and for t with z drawn as 0
    (1, (Fraction(7), Fraction(0), Fraction(-4))),
    (2, (Fraction(0), Fraction(5), Fraction(0))),
], ids=["t=0", "fibre", "fibre-z0=0", "solve-w", "solve-t"])
def test_on_line_matches_sympy_substitution(x, b):
    z, w, t, s, u = sympy.symbols("z w t s u")
    rng = random.Random(5)
    forms = [random_hompoly(rng, 3, deg, 6, 9) for deg in (1, 2, 3, 5)]
    line = {y: s * int(i == x) + u * sympy.Rational(bi)
            for i, (y, bi) in enumerate(zip((z, w, t), b))}
    # t^2 - z*t is zero on t = 0, and w^4 is a single power
    for f in forms + [pp("t^2 - z*t"), pp("w^4")]:
        expr = sympy.Add(*(sympy.Rational(c) * z**e[0] * w**e[1] * t**e[2] for e, c in f.terms))
        expect = sympy.Poly(expr.subs(line, simultaneous=True), s, u).as_dict()
        got = plane._on_line(f, x, b)
        assert dict(got.terms) == {m: Fraction(int(c.p), int(c.q)) for m, c in expect.items()}
        assert got.is_zero or got.degree == f.degree


def test_intersection_pins_the_seed_1_corner_failure():
    """The only failing point [0:1:0] is listed once, though the fibre z = -t passes through it."""
    inst = random_family(2, 3, 5, 1)
    rep = check_intersection_conditions(inst)
    assert rep.verdict == FAIL
    assert rep.rational_points == ((0, 1, 0), (-1, 0, 1))
    assert rep.failure_witnesses == ((0, 1, 0),)
    forms = (inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3)
    fibre = [plane._on_line(f, 1, (-1, 0, 1)) for f in forms]
    zeros, failing, _ = plane._line_zeros(fibre)
    # [1:0] on the fibre is [0:1:0]: keeping it would list the point twice
    assert (1, 0) in zeros and (1, 0) in failing
    assert zeros == [(1, 0), (0, 1)]


def test_each_line_takes_one_rational_root_search(monkeypatch):
    """One search on t = 0, one for the rational fibres and one on each fibre.

    The failing zeros of a line are those of the gcd of all its forms,
    which divides the gcd of the first two, so they are found among the
    listed zeros by division, with no second search.
    """
    inst = random_family(2, 3, 5, 1)
    z, w = sympy.symbols("z w")
    P, R = (sympy.Add(*(sympy.Rational(c) * z**e[0] * w**e[1] for e, c in f.terms))
            for f in (inst.P, inst.R))
    fibres = sympy.Poly(sympy.resultant(P, R, w), z).ground_roots()
    assert len(fibres) == 2
    searches = []
    roots = plane._urational_roots
    monkeypatch.setattr(plane, "_urational_roots", lambda a: searches.append(a) or roots(a))
    rep = family2._intersection_conditions(inst, check_coprimality(inst))
    assert rep.rational_points == ((0, 1, 0), (-1, 0, 1))
    assert len(searches) == 1 + 1 + len(fibres)


# -- rank and pencil ----------------------------------------------------------


def test_jacobian_rows_and_rank_reference(reference):
    rows = _jacobian_at(_jacobian(reference.map.components), (1, 1, 1))
    assert rows == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(-2), Fraction(1)],
        [Fraction(2), Fraction(-1), Fraction(-1)],
    ]
    rank, _ = check_rank_and_pencil(reference)
    assert rank.rank == 2
    assert rank.verdict == PASS


def test_rank_never_exceeds_two(reference, stable, twisted, line_fail, chart_fail):
    for inst in (reference, stable, twisted, line_fail, chart_fail):
        rank, _ = check_rank_and_pencil(inst)
        assert rank.rank <= 2


def test_pencil_reference_witness(reference):
    _, pencil = check_rank_and_pencil(reference)
    assert pencil.verdict == FAIL
    assert pencil.witness == (0, 0, 1)  # Q3 = z*w is divisible by P = z
    assert pencil.method == "kernel"


def test_pencil_twisted_witness_found_exactly(twisted):
    # 2*Q1 - Q3 = 2w^2 - zw = -w(z - 2w): no axis or random point sampling
    # is guaranteed to hit this member, the kernel solve always does
    _, pencil = check_rank_and_pencil(twisted)
    assert pencil.verdict == FAIL
    assert pencil.witness == (2, 0, -1)
    assert pencil.method == "kernel"


def test_pencil_two_dimensional_kernel_witness():
    # 2*Q1 - Q3 = 2*z*w and 2*Q2 - Q3 = 2*z*t are both divisible by P = z;
    # the witness is the kernel vector with 1 at the first free column, -P*t
    inst = build_family_map(pp("z"), pp("z*w + w^2"), pp("z*t + w^2"), pp("2*w^2"), pp("2*w^2*t"))
    _, pencil = check_rank_and_pencil(inst)
    assert pencil == family2.PencilReport(verdict=FAIL, witness=(0, 2, -1), method="kernel")


def test_pencil_stable_passes_with_exact_kernel(stable):
    _, pencil = check_rank_and_pencil(stable)
    assert pencil.verdict == PASS
    assert pencil.witness is None
    assert pencil.method == "kernel"


def test_pencil_linear_p_is_decided_by_the_kernel_alone(stable, monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(family2, "poly_gcd", counting_gcd)
    _, pencil = check_rank_and_pencil(stable)
    assert pencil == family2.PencilReport(verdict=PASS, witness=None, method="kernel")
    assert calls == []


def test_pencil_pass_is_only_sampled_for_nonlinear_p(line_fail):
    _, pencil = check_rank_and_pencil(line_fail)
    assert pencil.verdict == PASS
    assert pencil.method == "randomized"


# -- the pencil scan against a member-by-member reference ---------------------


def _reference_kernel_witness(inst):
    """The pencil kernel over Q: a Fraction elimination and back-substitution."""
    dp, dq = inst.P.degree, inst.Q1.degree
    if dp > dq:
        return None
    cols = [{e: Fraction(c) for e, c in q.terms} for q in (inst.Q1, inst.Q2, inst.Q3)]
    for m in family2._monomials(dq - dp):
        cols.append({e: -Fraction(c) for e, c in (inst.P * HomPoly.monomial(3, m)).terms})
    rows_idx = sorted({e for col in cols for e in col})
    ech, pivots, _ = _echelon([[col.get(e, Fraction(0)) for col in cols] for e in rows_idx])
    free = [c for c in range(len(cols)) if c not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * len(cols)
    vec[free[0]] = Fraction(1)
    for row, pc in reversed(list(zip(ech, pivots))):
        vec[pc] = -sum(x * v for x, v in zip(row[pc + 1 :], vec[pc + 1 :]) if v) / row[pc]
    head = [x * math.lcm(*(v.denominator for v in vec[:3])) for x in vec[:3]]
    g = math.gcd(*map(int, head))
    sign = 1 if next(x for x in head if x) > 0 else -1
    return tuple(int(x) // (sign * g) for x in head)


def _reference_rank_and_pencil(inst):
    """The rank over Q, the kernel over Q and a `poly_gcd` call for every sampled member."""
    rank = len(_echelon(_jacobian_at(_jacobian(inst.map.components), (1, 1, 1)))[1])
    rank_report = family2.RankReport(rank=rank, verdict=PASS if rank == 2 else FAIL)
    witness = _reference_kernel_witness(inst)
    if witness is not None:
        return rank_report, family2.PencilReport(verdict=FAIL, witness=witness, method="kernel")
    if inst.P.degree == 1:
        return rank_report, family2.PencilReport(verdict=PASS, witness=None, method="kernel")
    rng = random.Random(0)
    triples = list(family2._AXIS_TRIPLES)
    while len(triples) < len(family2._AXIS_TRIPLES) + family2._PENCIL_SAMPLES:
        t = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if any(t):
            triples.append(t)
    for a, b, c in triples:
        member = inst.Q1 * a + inst.Q2 * b + inst.Q3 * c
        if member.is_zero or poly_gcd(inst.P, member).degree > 0:
            pencil = family2.PencilReport(verdict=FAIL, witness=(a, b, c), method="sampled")
            return rank_report, pencil
    return rank_report, family2.PencilReport(verdict=PASS, witness=None, method="randomized")


@pytest.fixture(scope="module")
def nonlinear_catalogue():
    degrees = ((2, 2), (2, 3), (3, 2), (3, 3))
    return {(dp, dq, s): random_family(dp, dq, 5, s) for dp, dq in degrees for s in range(40)}


@pytest.fixture
def gcd_calls(monkeypatch):
    """The poly_gcd calls of the pencil scan, as a list of their operands."""
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(family2, "poly_gcd", counting_gcd)
    return calls


def test_pencil_scan_matches_the_member_by_member_reference(nonlinear_catalogue):
    methods = {}
    for inst in nonlinear_catalogue.values():
        report = check_rank_and_pencil(inst)
        assert report == _reference_rank_and_pencil(inst)
        key = (report[1].verdict, report[1].method)
        methods[key] = methods.get(key, 0) + 1
    assert methods == {(PASS, "randomized"): 155, (FAIL, "sampled"): 5}


def test_pencil_report_ignores_rational_scales(reference, line_fail):
    # P/2, Q_j/3 and R/6 keep the calibration and every member's factors
    for inst in (reference, line_fail):
        scaled = build_family_map(
            inst.P * Fraction(1, 2),
            *(q * Fraction(1, 3) for q in (inst.Q1, inst.Q2, inst.Q3)),
            inst.R * Fraction(1, 6),
        )
        assert check_rank_and_pencil(scaled) == check_rank_and_pencil(inst)


def test_pencil_pass_makes_no_gcd_call(line_fail, nonlinear_catalogue, gcd_calls):
    for inst in (line_fail, nonlinear_catalogue[2, 3, 0], nonlinear_catalogue[3, 3, 1]):
        gcd_calls.clear()
        _, pencil = check_rank_and_pencil(inst)
        assert pencil == family2.PencilReport(verdict=PASS, witness=None, method="randomized")
        assert gcd_calls == []


def test_pencil_sampled_fail_sends_only_the_shared_member_to_gcd(nonlinear_catalogue, gcd_calls):
    # P and Q2 share the factor w; (1, 0, 0) comes first and is decided on the line
    inst = nonlinear_catalogue[3, 3, 4]
    _, pencil = check_rank_and_pencil(inst)
    assert pencil == family2.PencilReport(verdict=FAIL, witness=(0, 1, 0), method="sampled")
    assert len(gcd_calls) == 1
    assert poly_gcd(*gcd_calls[0]) == pp("w")


def test_pencil_scan_goes_member_by_member_when_p_divides_p_at_one(gcd_calls):
    p = (1 << 61) - 1
    inst = build_family_map(
        pp(f"z^2 + {p - 1}*w*t"), pp("w^2"), pp("t^2"), pp("z^2 - z*w + w*t"), pp(f"{p}*t^4")
    )
    assert inst.P.evaluate((1, 1, 1)) == p
    report = check_rank_and_pencil(inst)
    assert report[1] == family2.PencilReport(verdict=PASS, witness=None, method="randomized")
    assert len(gcd_calls) == 49
    assert report == _reference_rank_and_pencil(inst)


def test_pencil_scan_survives_an_unlucky_line(
    line_fail, nonlinear_catalogue, gcd_calls, monkeypatch
):
    # a nonconstant image gcd on every member, as on a line through a common zero
    monkeypatch.setattr(family2, "_modp_gcd", lambda a, b, p: [0, 1])
    for inst, calls in ((line_fail, 49), (nonlinear_catalogue[3, 3, 4], 2)):
        gcd_calls.clear()
        assert check_rank_and_pencil(inst) == _reference_rank_and_pencil(inst)
        assert len(gcd_calls) == calls


# -- preflight aggregation ----------------------------------------------------


def test_preflight_reference_fails_overall(reference):
    rep = run_preflight(reference)
    assert rep.coprimality == PASS
    assert rep.intersection.verdict == PASS
    assert rep.rank.rank == 2
    assert rep.rank.verdict == PASS
    assert rep.pencil.verdict == FAIL
    assert rep.overall == FAIL


def test_preflight_stable_passes_overall(stable):
    rep = run_preflight(stable)
    assert rep.coprimality == PASS
    assert rep.intersection.verdict == PASS
    assert rep.rank == family2.RankReport(rank=2, verdict=PASS)
    assert rep.pencil.verdict == PASS
    assert rep.overall == PASS


def test_preflight_chart_failure_fails_overall(chart_fail):
    rep = run_preflight(chart_fail)
    assert rep.intersection.verdict == FAIL
    assert rep.overall == FAIL


def test_preflight_checks_coprimality_once(stable, monkeypatch):
    # the intersection check takes run_preflight's coprimality verdict
    shared = build_family_map(pp("z"), pp("w^2"), pp("z^2"), pp("z^2 + z*w - w^2"), pp("w^2*t"))
    calls = []
    check = family2.check_coprimality
    monkeypatch.setattr(family2, "check_coprimality", lambda inst: calls.append(inst) or check(inst))
    for inst, verdict in ((stable, PASS), (shared, FAIL)):
        calls.clear()
        rep = run_preflight(inst)
        assert rep.coprimality == verdict and len(calls) == 1
        assert rep.intersection == check_intersection_conditions(inst)
        assert len(calls) == 2


def test_preflight_passing_instance_is_certified_stable(stable):
    trace = iterate_degrees(stable.map, 3)
    res = infer_qas(trace)
    assert res.verdict == "QAS"
    assert res.certificate.n0 == 1
    assert same_up_to_scalar(res.certificate.H, stable.P)
    assert list(trace.degrees) == extend_degrees(stable.recurrence, 3)


# -- structural invariants ----------------------------------------------------


def test_divisor_collapses_to_fixed_point(reference):
    one = (Fraction(1), Fraction(1), Fraction(1))
    pts = sample_divisor_points(reference, 100, seed=5)
    assert len(pts) == 100
    for pt in pts:
        pc = point_class(reference.map, pt)
        assert pc.indeterminate or pc.image == one


def test_center_point_is_always_indeterminate(
    reference, stable, twisted, line_fail, chart_fail
):
    one = (Fraction(1), Fraction(1), Fraction(1))
    for inst in (reference, stable, twisted, line_fail, chart_fail):
        assert point_class(inst.map, one).indeterminate


def test_divisor_points_on_quadratic_p(line_fail):
    pts = sample_divisor_points(line_fail, 5, seed=7)
    for pt in pts:
        assert line_fail.P.evaluate(pt) == 0


# -- random generation --------------------------------------------------------


def test_random_family_is_deterministic():
    a = random_family(1, 2, 4, seed=11)
    b = random_family(1, 2, 4, seed=11)
    assert a.map.components == b.map.components
    assert family_to_text(a) == family_to_text(b)


def test_random_family_recurrence_and_growth():
    inst = random_family(1, 2, 4, seed=11)
    assert inst.recurrence == DegreeRecurrence(d=3, h=1, n0=1)
    assert check_coprimality(inst) == PASS
    rep = char_poly_roots(inst.recurrence)
    with mp.workdps(60):
        assert abs(rep.lambda_ - (3 + mp.sqrt(5)) / 2) < mp.mpf(10) ** -30


def test_random_family_varies_with_seed():
    texts = {family_to_text(random_family(1, 2, 4, seed=s)) for s in range(4)}
    assert len(texts) > 1


def test_random_family_rejects_degenerate_degrees():
    with pytest.raises(ValueError):
        random_family(0, 2, 4, seed=0)
    with pytest.raises(ValueError, match="degenerates"):
        random_family(1, 1, 4, seed=0)
    with pytest.raises(ValueError):
        random_family(1, 2, 0, seed=0)


def test_random_family_exhaustion(monkeypatch):
    monkeypatch.setattr(
        family2, "random_hompoly", lambda rng, nv, deg, mt, cb: HomPoly.zero(3)
    )
    with pytest.raises(GenerationExhausted):
        random_family(1, 2, 3, seed=0)


def test_random_family_bigger_degrees():
    inst = random_family(2, 2, 3, seed=4)
    assert inst.recurrence == DegreeRecurrence(d=4, h=2, n0=1)
    assert check_coprimality(inst) == PASS


# -- family files -------------------------------------------------------------


def test_family_file_roundtrip(stable, tmp_path):
    path = tmp_path / "stable.family"
    family2.save_family(stable, path)
    loaded = family2.load_family(path)
    assert loaded.map.components == stable.map.components
    assert loaded.P == stable.P
    assert loaded.R == stable.R


def test_family_text_contains_map_and_forms(reference):
    text = family_to_text(reference)
    lines = text.splitlines()
    assert lines[0].startswith("vars ")
    assert sum(1 for l in lines if l.startswith("map ")) == 3
    for key in ("P ", "Q1 ", "Q2 ", "Q3 ", "R "):
        assert sum(1 for l in lines if l.startswith(key)) == 1


def test_family_file_parses_without_map_lines(reference):
    text = family_to_text(reference)
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("map "))
    inst = parse_family_text(stripped)
    assert inst.map.components == reference.map.components


_TO_ABC = str.maketrans("zwt", "abc")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda ls: [l for l in ls if not l.startswith("R ")], "missing lines"),
        (lambda ls: ls + ["P z"], "duplicate"),
        (lambda ls: ["P z"] + ls, "vars line"),
        (lambda ls: ls + ["orbit z"], "unexpected directive"),
        # forms after a second vars line would be read under its names
        (lambda ls: ls[:4] + ["vars a b c"] + [l.translate(_TO_ABC) for l in ls[4:]], "duplicate vars"),
    ],
)
def test_family_file_rejects_malformed(reference, mutate, fragment):
    lines = family_to_text(reference).splitlines()
    with pytest.raises(ParseError, match=fragment):
        parse_family_text("\n".join(mutate(lines)))


@pytest.mark.parametrize("text, fragment", [
    ("vars z w\nP z\n", "exactly three variables"),
    ("map z^2\nvars z w t\n", "vars line must come first"),
    ("# a comment and nothing else\n", "missing vars line"),
])
def test_family_file_rejects_bad_headers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_family_text(text)


def test_family_file_rejects_two_map_lines(reference):
    lines = family_to_text(reference).splitlines()
    first_map = next(i for i, l in enumerate(lines) if l.startswith("map "))
    del lines[first_map]
    with pytest.raises(ParseError, match="exactly three map lines"):
        parse_family_text("\n".join(lines))


def test_family_file_rejects_inconsistent_map_lines(reference, stable):
    # map lines from one instance, forms from another
    ref_lines = family_to_text(reference).splitlines()
    stable_lines = family_to_text(stable).splitlines()
    mixed = [l for l in stable_lines if l.startswith(("vars", "map "))] + [
        l for l in ref_lines if l.startswith(("P ", "Q1 ", "Q2 ", "Q3 ", "R "))
    ]
    with pytest.raises(ParseError, match="disagree"):
        parse_family_text("\n".join(mixed))


def test_load_family_builds_the_map_once(stable, tmp_path, monkeypatch):
    path = tmp_path / "stable.family"
    family2.save_family(stable, path)
    calls = []
    make_map = family2.make_map
    monkeypatch.setattr(family2, "make_map", lambda *args: calls.append(args) or make_map(*args))
    assert family2.load_family(path) == stable
    assert len(calls) == 1


@pytest.fixture
def gcd_many_calls(monkeypatch):
    """The member tuples of every gcd that family2 and mapiter take.

    family2 calls `poly_gcd_many`; mapiter's `_extract` calls
    `_gcd_cofactors`, which returns that gcd with the cofactors.
    """
    calls = []

    def spy(gcd):
        def counted(members):
            calls.append(tuple(members))
            return gcd(members)
        return counted

    monkeypatch.setattr(family2, "poly_gcd_many", spy(family2.poly_gcd_many))
    monkeypatch.setattr(mapiter, "_gcd_cofactors", spy(mapiter._gcd_cofactors))
    return calls


@pytest.mark.parametrize("forms, factor, gcds", [
    # w divides each component and the quotient map is dominant, so make_map
    # extracts w and records it
    (("z", "w^2", "w*t", "z*w", "w^2*t"), "w", 1),
    # Q1 = Q2 = Q3: the components are equal, their quotient (1, 1, 1) is not
    # dominant, so make_map refuses it and the gcd is taken again
    (("z", "w^2", "w^2", "w^2", "w^2*t"), "z*w^2 - w^2*t", 2),
], ids=["dominant-quotient", "constant-quotient"])
def test_shared_factor_is_named_whether_or_not_make_map_accepts(gcd_many_calls, forms, factor, gcds):
    P, Q1, Q2, Q3, R = (pp(f) for f in forms)
    comps = tuple(P * q - R for q in (Q1, Q2, Q3))
    with pytest.raises(CommonFactor) as exc:
        build_family_map(P, Q1, Q2, Q3, R)
    assert str(exc.value) == f"components share the factor {factor}"
    assert gcd_many_calls == [comps] * gcds


@pytest.mark.parametrize("dp, dq, seed", [(1, 2, 0), (2, 2, 1), (2, 3, 3), (3, 3, 4)])
def test_a_family_map_takes_one_gcd_of_its_components(gcd_many_calls, dp, dq, seed):
    inst = random_family(dp, dq, 5, seed)
    gcd_many_calls.clear()
    forms = (inst.P, inst.Q1, inst.Q2, inst.Q3, inst.R)
    assert build_family_map(*forms) == inst
    assert gcd_many_calls == [tuple(inst.P * q - inst.R for q in forms[1:4])]


def test_written_map_lines_are_compared_before_they_are_normalized(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gen.fam"
    assert main(["family-gen", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    calls = []
    extract = family2._extract
    monkeypatch.setattr(family2, "_extract", lambda *args: calls.append(args) or extract(*args))
    inst = family2.load_family(path)
    assert calls == []
    # lines that differ from the components, here by a scalar, are normalized once
    assert parse_family_text(_with_map_lines(inst, [c * 2 for c in inst.map.components])) == inst
    assert len(calls) == 1


def _with_map_lines(inst, comps):
    lines = [l for l in family_to_text(inst).splitlines() if not l.startswith("map ")]
    return "\n".join(lines[:1] + ["map " + poly_to_text(c, V) for c in comps] + lines[1:])


@pytest.mark.parametrize("change, fragment", [
    (lambda cs: [c * 2 for c in cs], None),
    (lambda cs: [c * pp("z") for c in cs], None),
    (lambda cs: [cs[1], cs[0], cs[2]], "disagree"),
    # not dominant, a zero component, components of two degrees: none
    # normalizes to the map of the forms
    (lambda cs: [cs[0]] * 3, "disagree"),
    (lambda cs: [cs[0], cs[1] * 0, cs[2]], "disagree"),
    (lambda cs: [cs[0] * pp("z"), cs[1], cs[2]], "disagree"),
    (lambda cs: [c * 0 for c in cs], "components are zero"),
], ids=["scaled", "times-z", "swapped", "equal", "one-zero", "two-degrees", "all-zero"])
def test_family_file_map_lines_are_checked_by_extraction(stable, change, fragment):
    text = _with_map_lines(stable, change(list(stable.map.components)))
    if fragment is None:
        assert parse_family_text(text) == stable
    else:
        with pytest.raises(ParseError, match=fragment):
            parse_family_text(text)
