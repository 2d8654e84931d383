"""Tests for the normalized family: construction, preflight checks, generation."""

import dataclasses
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
from projdyn.family2 import _jacobian_rows_at_one

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
    tampered = dataclasses.replace(reference, R=pp("z*w*t"))
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
    inst = dataclasses.replace(reference, P=P, R=pp("w^2 - w*t - 2*t^2") + pp("w") * P)
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
    _, bad, _ = family2._chart_points([pp(f) for f in forms])
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
    inst = dataclasses.replace(reference, P=P, R=R, Q1=D1, Q2=D2, Q3=HomPoly.zero(3))
    rep = check_intersection_conditions(inst)
    assert rep.verdict == FAIL == _oracle_verdict(inst)
    assert rep.failure_witnesses == witnesses


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
    assert family2._urational_roots([-r, Fraction(1), -r, Fraction(1)]) == [r]


def _planted(*factors):
    """Product of factors given as integer coefficient lists, low degree first."""
    out = [Fraction(1)]
    for f in factors:
        out = family2._umul(out, [Fraction(c) for c in f])
    return out


def _catalogue_resultant():
    inst = random_family(3, 3, 5, 0)
    return family2._sylvester_resultant(family2._chart(inst.P, 2), family2._chart(inst.R, 2), 1)


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
    assert family2._urational_roots(coeffs) == expect


def test_sylvester_resultant_matches_sympy():
    rng = random.Random(5)
    z, w = sympy.symbols("z w")

    def rand_bi():
        dz, dw = rng.randint(0, 3), rng.randint(0, 3)
        d = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for i in range(dz + 1) for j in range(dw + 1) if rng.random() < 0.6}
        return {k: c for k, c in d.items() if c} or {(0, dw): Fraction(1)}

    for _ in range(40):
        d, e = rand_bi(), rand_bi()
        for elim, var, other in ((1, w, z), (0, z, w)):
            got = family2._sylvester_resultant(d, e, elim)
            D, E = (sympy.Add(*(sympy.Rational(c) * z**i * w**j for (i, j), c in f.items()))
                    for f in (d, e))
            expect = sympy.Poly(sympy.resultant(D, E, var), other).all_coeffs()[::-1]
            expect = family2._utrim([Fraction(int(c.p), int(c.q)) for c in expect])
            # sympy's sign can differ from the Sylvester determinant's;
            # the check uses only the zeros
            assert got in (expect, [-c for c in expect])


# -- the intersection verdict against a Groebner-basis oracle -------------------------

PREFLIGHT_CATALOGUE = [
    (dp, dq, s) for dp, dq in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)) for s in range(5)
] + [(1, 2, 5), (1, 2, 6), (1, 2, 7)]


def _oracle_verdict(inst):
    """FAIL iff P, R, Q1 - Q3, Q2 - Q3 share a zero at t = 1, at [z:1:0] or at [1:0:0]."""
    z, w, t = sympy.symbols("z w t")
    forms = [
        sympy.Add(*(sympy.Rational(c) * z**e[0] * w**e[1] * t**e[2] for e, c in f.terms))
        for f in (inst.P, inst.R, inst.Q1 - inst.Q3, inst.Q2 - inst.Q3)
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


# -- rank and pencil ----------------------------------------------------------


def test_jacobian_rows_and_rank_reference(reference):
    rows = _jacobian_rows_at_one(reference)
    assert rows == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(-2), Fraction(1)],
        [Fraction(2), Fraction(-1), Fraction(-1)],
    ]
    rank, _ = check_rank_and_pencil(reference, samples=5, seed=0)
    assert rank.rank == 2
    assert rank.verdict == PASS


def test_rank_never_exceeds_two(reference, stable, twisted, line_fail, chart_fail):
    for inst in (reference, stable, twisted, line_fail, chart_fail):
        rank, _ = check_rank_and_pencil(inst, samples=3, seed=1)
        assert rank.rank <= 2


def test_pencil_reference_witness(reference):
    _, pencil = check_rank_and_pencil(reference, samples=10, seed=0)
    assert pencil.verdict == FAIL
    assert pencil.witness == (0, 0, 1)  # Q3 = z*w is divisible by P = z
    assert pencil.method == "kernel"


def test_pencil_twisted_witness_found_exactly(twisted):
    # 2*Q1 - Q3 = 2w^2 - zw = -w(z - 2w): no axis or random point sampling
    # is guaranteed to hit this member, the kernel solve always does
    _, pencil = check_rank_and_pencil(twisted, samples=10, seed=0)
    assert pencil.verdict == FAIL
    assert pencil.witness == (2, 0, -1)
    assert pencil.method == "kernel"


def test_pencil_stable_passes_with_exact_kernel(stable):
    _, pencil = check_rank_and_pencil(stable, samples=10, seed=0)
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
    _, pencil = check_rank_and_pencil(line_fail, samples=10, seed=0)
    assert pencil.verdict == PASS
    assert pencil.method == "randomized"


# -- preflight aggregation ----------------------------------------------------


def test_preflight_reference_fails_overall(reference):
    rep = run_preflight(reference, samples=10, seed=0)
    assert rep.coprimality == PASS
    assert rep.intersection.verdict == PASS
    assert rep.rank.rank == 2
    assert rep.rank.verdict == PASS
    assert rep.pencil.verdict == FAIL
    assert rep.overall == FAIL


def test_preflight_stable_passes_overall(stable):
    rep = run_preflight(stable, samples=10, seed=0)
    assert rep.coprimality == PASS
    assert rep.intersection.verdict == PASS
    assert rep.rank == family2.RankReport(rank=2, verdict=PASS)
    assert rep.pencil.verdict == PASS
    assert rep.overall == PASS


def test_preflight_chart_failure_fails_overall(chart_fail):
    rep = run_preflight(chart_fail, samples=10, seed=0)
    assert rep.intersection.verdict == FAIL
    assert rep.overall == FAIL


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


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda ls: [l for l in ls if not l.startswith("R ")], "missing lines"),
        (lambda ls: ls + ["P z"], "duplicate"),
        (lambda ls: ["P z"] + ls, "vars line"),
        (lambda ls: ls + ["orbit z"], "unexpected directive"),
    ],
)
def test_family_file_rejects_malformed(reference, mutate, fragment):
    lines = family_to_text(reference).splitlines()
    with pytest.raises(ParseError, match=fragment):
        parse_family_text("\n".join(mutate(lines)))


def test_family_file_rejects_inconsistent_map_lines(reference, stable):
    # map lines from one instance, forms from another
    ref_lines = family_to_text(reference).splitlines()
    stable_lines = family_to_text(stable).splitlines()
    mixed = [l for l in stable_lines if l.startswith(("vars", "map "))] + [
        l for l in ref_lines if l.startswith(("P ", "Q1 ", "Q2 ", "Q3 ", "R "))
    ]
    with pytest.raises(ParseError, match="disagree"):
        parse_family_text("\n".join(mixed))
