"""Iteration, extraction, and stability inference on pinned examples.

Expected degree sequences and extracted factors were computed once
with a primitive pseudo-remainder-sequence GCD (the reference kept in
tests/test_polycore.py) and are frozen here as exact values.
"""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.polys.rings import ring

from projdyn import mapiter, polycore
from projdyn.polycore import (
    ArityMismatch,
    DegreeMismatch,
    HomPoly,
    ParseError,
    _dint_normalize,
    get_term_cap,
    parse_poly,
    poly_gcd_many,
    poly_to_text,
    random_hompoly,
    set_term_cap,
)
from projdyn.mapiter import (
    AllZero,
    IndexOutOfRange,
    IterationTrace,
    NotDominant,
    ZeroVector,
    certificate_digest,
    compose_extract,
    infer_qas,
    iterate_degrees,
    jacobian_det,
    load_map,
    make_map,
    map_to_text,
    parse_map_text,
    point_class,
    save_map,
    verify_lifting_recurrence,
    _tuple_primitive,
)

NAMES = ("z", "w", "t")


def p(text):
    return parse_poly(text, NAMES)


def mk(*texts):
    return make_map([p(s) for s in texts])


@pytest.fixture(scope="module")
def cubic_extracting():
    """Cubic map whose second iterate drops degree by two."""
    return mk("z*w^2 - w^2*t", "z*t^2 - w^2*t", "z^2*w - w^2*t")


@pytest.fixture(scope="module")
def cubic_lag1():
    """Cubic map with a persistent degree-one extraction pattern."""
    return mk(
        "z^2*t + z*w^2 - 2*w^2*t",
        "z^2*w + z*t^2 - 2*w^2*t",
        "2*z*w*t - 2*w^2*t",
    )


# -- construction ----------------------------------------------------------------


def test_common_factor_is_divided_out():
    f = mk("z^2", "z*w", "z*t")
    assert f.degree == 1
    assert f.normalization.primitive == p("z")
    assert [poly_to_text(c, NAMES) for c in f.components] == ["z", "w", "t"]


def test_identity_map_is_legal():
    f = mk("z", "w", "t")
    assert f.degree == 1
    assert f.k == 2


def test_repeated_component_is_not_dominant():
    with pytest.raises(NotDominant):
        mk("z^2", "z*w", "z*w")


def test_zero_component_is_not_dominant():
    with pytest.raises(NotDominant):
        make_map([p("z^2"), p("w^2"), HomPoly.zero(3)])


@pytest.mark.parametrize(
    "texts, dominant",
    [
        # jacobian 8*86*(3z - 2w)(11z + 7w)(9w + 2t): each factor vanishes at one probe point
        (("(3*z - 2*w)*(3*z - 2*w)", "(11*z + 7*w)*(11*z + 7*w)", "(9*w + 2*t)*(9*w + 2*t)"), True),
        # nonzero 2x2 minors, but the image lies on the conic X*Z = Y^2
        (("(z + t)*(z + t)", "(z + t)*(w + t)", "(w + t)*(w + t)"), False),
    ],
)
def test_dominance_falls_back_to_the_symbolic_determinant(texts, dominant):
    comps = [p(s) for s in texts]
    rows = mapiter._jacobian(comps)
    assert all(
        len(mapiter._echelon(mapiter._jacobian_at(rows, pt[:3]))[1]) < 3
        for pt in mapiter._PROBE_POINTS
    )
    x = sympy.symbols(NAMES)

    def as_sympy(q):
        return sum(sympy.Rational(c) * sympy.Mul(*(v**k for v, k in zip(x, e))) for e, c in q.terms)

    want = sympy.Matrix([as_sympy(c) for c in comps]).jacobian(x).det()
    assert sympy.expand(as_sympy(jacobian_det(comps)) - want) == 0
    assert (want.expand() != 0) == dominant
    if dominant:
        assert make_map(comps).degree == 2
    else:
        with pytest.raises(NotDominant):
            make_map(comps)


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def test_echelon_matches_sympy():
    """Pivot columns and determinants of the one elimination against sympy's rref and det."""
    rng = random.Random(11)

    def rand(nr, nc):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    cases = []
    for _ in range(8):
        # tall, wide, square, then rank 2 of 5 and rank 3 of 4 rows
        cases += [rand(6, 4), rand(3, 6), rand(5, 5)]
        cases += [product(rand(5, 2), rand(2, 5)), product(rand(4, 3), rand(3, 6))]
        # a zero leading column above the last row forces a swap at the first pivot
        swap = rand(4, 4)
        for row in swap[:-1]:
            row[0] = Fraction(0)
        cases.append(swap)
    for rows in cases:
        ech, pivots, sign = mapiter._echelon(rows)
        ref = sympy.Matrix([[_rational(x) for x in row] for row in rows])
        assert tuple(pivots) == ref.rref()[1]
        assert len(pivots) == ref.rank()
        # each row is zero left of its pivot, and the rows past the rank are zero
        for i, row in enumerate(ech):
            assert not any(row[: pivots[i] if i < len(pivots) else len(row)])
        if len(rows) == len(rows[0]):
            assert _rational(sign * ech[-1][-1]) == ref.det()


@pytest.mark.parametrize("nvars", [4, 5])
def test_jacobian_det_matches_sympy(nvars):
    rng = random.Random(40 + nvars)
    x = sympy.symbols(f"x0:{nvars}")

    def as_sympy(q):
        return sum(sympy.Rational(c) * sympy.Mul(*(v**k for v, k in zip(x, e))) for e, c in q.terms)

    for k in range(3):
        comps = [random_hompoly(rng, nvars, rng.randint(1, 2), 5, 9) for _ in range(nvars)]
        if k == 2:
            # dependent rows: the determinant is zero
            comps[-1] = comps[0] * 3 + comps[1] * -2 if comps[0].degree == comps[1].degree else comps[0]
        want = sympy.Matrix([as_sympy(c) for c in comps]).jacobian(x).det(method="berkowitz")
        got = jacobian_det(comps)
        assert sympy.expand(as_sympy(got) - want) == 0
        assert got.is_zero == (k == 2)


@pytest.mark.parametrize("nvars", [7, 8])
def test_squaring_maps_of_p6_and_up_iterate(nvars):
    # the probe points carry as many coordinates as the map has variables
    f = make_map([HomPoly.variable(nvars, i) ** 2 for i in range(nvars)])
    assert iterate_degrees(f, 2).degrees == (1, 2, 4)


def test_mixed_degrees_rejected():
    with pytest.raises(DegreeMismatch):
        mk("z^2", "z*w", "t")


def test_all_zero_rejected():
    with pytest.raises(AllZero):
        make_map([HomPoly.zero(3)] * 3)


def test_component_count_must_match_arity():
    with pytest.raises(ArityMismatch):
        make_map([p("z^2"), p("w^2")])


def test_make_map_validation(cubic_lag1):
    with pytest.raises(AllZero, match="empty"):
        make_map([])
    with pytest.raises(ArityMismatch, match="disagree"):
        make_map([p("z"), parse_poly("x", ("x", "y")), p("t")])
    with pytest.raises(ArityMismatch, match="names"):
        make_map([p("z"), p("w"), p("t")], ("z", "w"))
    with pytest.raises(ArityMismatch, match="lifting arity"):
        compose_extract(cubic_lag1, [parse_poly("x", ("x", "y"))] * 3)


def test_constant_scaling_is_normalized():
    f = mk("6*z^2", "6*w^2", "6*t^2")
    assert poly_to_text(f.components[0], NAMES) == "z^2"
    assert f.normalization.content == 6


# -- trace structure -------------------------------------------------------------


def test_trace_starts_at_identity(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 2)
    assert [poly_to_text(c, NAMES) for c in tr.lifting(0)] == ["z", "w", "t"]
    assert tr.degrees[0] == 1


def test_trace_accessors_bounds(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 3)
    assert tr.depth == 3
    with pytest.raises(IndexOutOfRange):
        tr.E(0)
    with pytest.raises(IndexOutOfRange):
        tr.E(4)
    with pytest.raises(IndexOutOfRange):
        tr.lifting(4)


def test_iterate_rejects_nonpositive_depth(cubic_extracting):
    with pytest.raises(ValueError):
        iterate_degrees(cubic_extracting, 0)


def test_extraction_reconstructs_composition(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 3)
    for n in range(1, 4):
        raw = [c.compose(tr.lifting(n - 1)) for c in f.components]
        e = tr.E(n)
        for r, comp in zip(raw, tr.lifting(n)):
            assert r == e.primitive * comp * e.content


def test_degree_bookkeeping(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 4)
    d = cubic_extracting.degree
    for n in range(1, 5):
        assert tr.degrees[n] == d * tr.degrees[n - 1] - tr.E(n).primitive.degree


# -- degree-dropping cubic: frozen values ----------------------------------------


def test_extracting_cubic_degree_sequence(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 4)
    assert tr.degrees == (1, 3, 7, 16, 37)


def test_extracting_cubic_first_factors(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 4)
    e1, e2, e3, e4 = (tr.E(n) for n in range(1, 5))
    assert e1.primitive.degree == 0 and e1.content == 1
    assert e2.content == -1
    assert e2.primitive == p("z*w")
    assert e3.content == 1
    assert e3.primitive == p("z^2*w*t^2 - z*w^3*t - z*w*t^3 + w^3*t^2")
    assert e4.primitive.degree == 11
    assert len(e4.primitive.terms) == 25
    assert max(e4.primitive.terms)[0] == (6, 3, 2)


def test_extracting_cubic_gcd_is_one_engine_run(cubic_extracting, monkeypatch):
    # E_3, the gcd of the three components of F(F_2), is not a monomial,
    # so a pairwise fold would run the modular engine once per later member
    lifting = iterate_degrees(cubic_extracting, 2).liftings[2]
    comps = [c.compose(lifting) for c in cubic_extracting.components]
    calls = []
    engine = polycore._modular_gcd

    def counting(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(polycore, "_modular_gcd", counting)
    assert poly_gcd_many(comps) == p("z^2*w*t^2 - z*w^3*t - z*w*t^3 + w^3*t^2")
    assert len(calls) == 1


def _caller(frame):
    """The name of the function a frame runs in, past its generator expressions."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_extraction_divides_only_to_prove_a_gcd_or_a_hint(cubic_extracting, monkeypatch):
    # _extract takes each quotient from the gcd: the only exact divisions
    # left are the engine's proof of a gcd and the divisor hint's, and a
    # monomial gcd, E_2 = z*w here, makes none
    divisions, steps = [], []
    dexact, cofactors = polycore._dexact_div, mapiter._gcd_cofactors

    def spy_division(num, den):
        divisions.append(_caller(sys._getframe(1)))
        return dexact(num, den)

    def spy_gcd(comps):
        before = len(divisions)
        out = cofactors(comps)
        steps.append((out[0], divisions[before:]))
        return out

    monkeypatch.setattr(polycore, "_dexact_div", spy_division)
    monkeypatch.setattr(mapiter, "_gcd_cofactors", spy_gcd)
    assert iterate_degrees(cubic_extracting, 4).degrees == (1, 3, 7, 16, 37)
    assert set(divisions) <= {"_modular_gcd", "_compose_divide"}
    assert [(G.degree, len(G.terms) == 1) for G, _ in steps] == [(0, True), (2, True), (5, False), (11, False)]
    assert steps[1] == (p("z*w"), [])
    # the engine proved E_3 and E_4 with one division per component
    assert [len(d) for _, d in steps[2:]] == [3, 3]


def test_extracting_cubic_is_not_quasi_stable(cubic_extracting):
    res = infer_qas(iterate_degrees(cubic_extracting, 4))
    assert res.verdict == "NotQAS"
    assert res.witness == 3
    assert res.n0 == 1
    assert res.H == p("z*w")
    assert res.certificate is None


@pytest.mark.slow
def test_extracting_cubic_depth_five(cubic_extracting):
    tr = iterate_degrees(cubic_extracting, 5)
    assert tr.degrees == (1, 3, 7, 16, 37, 86)
    e5 = tr.E(5)
    assert e5.primitive.degree == 25
    assert len(e5.primitive.terms) == 159
    assert max(e5.primitive.terms)[0] == (13, 10, 2)


# -- lag-one quasi-stable cubic: frozen values -----------------------------------


def test_lag1_degree_sequence(cubic_lag1):
    tr = iterate_degrees(cubic_lag1, 4)
    assert tr.degrees == (1, 3, 8, 21, 55)


def test_lag1_degrees_under_a_small_term_cap(cubic_lag1):
    # the largest step output, degree 63 in 3 variables, has at most
    # 2080 terms; products of large operands must not be refused for
    # their term pairs
    old = get_term_cap()
    set_term_cap(5000)
    try:
        assert iterate_degrees(cubic_lag1, 4).degrees == (1, 3, 8, 21, 55)
    finally:
        set_term_cap(old)


def test_lag1_certificate(cubic_lag1):
    res = infer_qas(iterate_degrees(cubic_lag1, 4))
    assert res.verdict == "QAS"
    cert = res.certificate
    assert cert.n0 == 1
    assert cert.H == p("z")
    assert cert.h == 1
    assert cert.d == 3
    assert cert.verified_to == 4
    assert cert.degrees == (1, 3, 8, 21, 55)


def test_lag1_extraction_pattern(cubic_lag1):
    tr = iterate_degrees(cubic_lag1, 4)
    assert tr.E(2).primitive == p("z")
    # E_n = H(F_{n-2}) with H = z picks out the first component
    assert tr.E(3).primitive == tr.lifting(1)[0]
    assert tr.E(4).primitive == tr.lifting(2)[0]
    assert all(tr.E(n).content == 1 for n in range(1, 5))


def test_lag1_power_divisor_recurrence(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 4)
    cert = infer_qas(tr).certificate
    for n in (2, 3, 4):
        assert verify_lifting_recurrence(f, cert, tr, n)


def test_power_divisor_recurrence_bounds(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 4)
    cert = infer_qas(tr).certificate
    with pytest.raises(IndexOutOfRange):
        verify_lifting_recurrence(f, cert, tr, 1)
    with pytest.raises(IndexOutOfRange):
        verify_lifting_recurrence(f, cert, tr, 5)


def test_power_divisor_recurrence_detects_mismatch(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 4)
    cert = infer_qas(tr).certificate
    wrong = type(cert)(
        n0=cert.n0,
        H=p("w"),
        h=1,
        d=cert.d,
        verified_to=cert.verified_to,
        degrees=cert.degrees,
    )
    assert not verify_lifting_recurrence(f, wrong, tr, 2)


def _with_lifting(tr, n, comps):
    """The trace with lifting n replaced by comps."""
    liftings = tr.liftings[:n] + (tuple(comps),) + tr.liftings[n + 1 :]
    return IterationTrace(tr.map, liftings, tr.degrees, tr.extracted)


def test_power_divisor_recurrence_rejects_per_component_scalars(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 4)
    cert = infer_qas(tr).certificate
    for n in (2, 3):
        comps = tr.lifting(n)
        assert all(not c.is_zero for c in comps)
        # each component matches the quotient up to a scalar, but not one scalar
        scaled = (comps[0] * 2,) + comps[1:]
        assert not verify_lifting_recurrence(f, cert, _with_lifting(tr, n, scaled), n)
        assert verify_lifting_recurrence(f, cert, tr, n)


def test_power_divisor_recurrence_rejects_other_zero_pattern(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 4)
    cert = infer_qas(tr).certificate
    comps = tr.lifting(3)
    zeroed = comps[:1] + (HomPoly.zero(3),) + comps[2:]
    assert not verify_lifting_recurrence(f, cert, _with_lifting(tr, 3, zeroed), 3)


@pytest.mark.parametrize(
    "comps",
    [
        # zero first component: the second one's leading coefficient fixes the sign
        (HomPoly.zero(3), HomPoly(3, [((2, 0, 0), Fraction(-3, 4)), ((0, 1, 1), Fraction(9, 10))]),
         HomPoly(3, [((0, 0, 2), Fraction(3, 2))])),
        # mixed denominators, negative leading coefficient of the first component
        (HomPoly(3, [((1, 1, 0), Fraction(-5, 6)), ((0, 0, 2), Fraction(10, 9))]),
         HomPoly(3, [((0, 2, 0), Fraction(15, 4))]),
         HomPoly(3, [((2, 0, 0), 20), ((1, 0, 1), Fraction(-25, 3))])),
        # integers only, the first component negative and the later ones positive
        (HomPoly(3, [((0, 1, 0), -6)]), HomPoly(3, [((1, 0, 0), 4)]), HomPoly(3, [((0, 0, 1), 10)])),
        # already primitive, behind a zero component
        (HomPoly.zero(3), HomPoly(3, [((0, 1, 0), 2)]), HomPoly(3, [((1, 0, 0), -3)])),
    ],
)
def test_tuple_primitive_normal_form(comps):
    content, prim = _tuple_primitive(comps)
    assert (content, prim) == _tuple_primitive_reference(comps)
    assert tuple(c * content for c in prim) == comps
    coeffs = [c for q in prim for _, c in q.terms]
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1
    assert [q.is_zero for q in prim] == [c.is_zero for c in comps]
    # the leading term of the first nonzero component is positive
    lead = next(q for q in prim if not q.is_zero).terms[0][1]
    assert lead > 0
    first = next(c for c in comps if not c.is_zero).terms[0][1]
    assert (content > 0) == (first > 0)


def _tuple_primitive_reference(comps):
    """The tuple normalization as one dict keyed by (-index, exponents): the key's maximum is the leading term of the first nonzero component."""
    d = {(-i, e): c for i, comp in enumerate(comps) for e, c in comp.terms}
    if not d:
        raise AllZero("all components are zero")
    content, ints = _dint_normalize(d)
    return content, tuple(
        HomPoly._new(c.nvars, {e: ints[-i, e] for e, _ in c.terms}, c._degree)
        for i, c in enumerate(comps)
    )


def _random_tuple(rng, scale):
    """Three random int forms of one degree, each times scale, a fifth of them zero."""
    deg = rng.randint(1, 3)
    return tuple(
        HomPoly.zero(3) if rng.random() < 0.2 else random_hompoly(rng, 3, deg, 6, 9) * scale
        for _ in range(3)
    )


def test_tuple_primitive_matches_the_dict_reference():
    rng = random.Random(4600)
    scales = (1, -3, 6, Fraction(-5, 12), Fraction(7, 4))
    kinds = dict.fromkeys(("content 1", "zero component", "negative lead", "fraction"), 0)
    for i in range(100):
        comps = _random_tuple(rng, scales[i % len(scales)])
        if all(c.is_zero for c in comps):
            continue
        content, prim = _tuple_primitive(comps)
        ref_content, ref = _tuple_primitive_reference(comps)
        assert content == ref_content and type(content) is Fraction
        # the same terms, in the same order, with coefficients of the same type
        assert [[(e, type(c), c) for e, c in q.terms] for q in prim] == [
            [(e, type(c), c) for e, c in q.terms] for q in ref
        ]
        assert [q._degree for q in prim] == [r._degree for r in ref]
        # content 1: the input comes back, not a copy
        assert (prim is comps) == (content == 1)
        kinds["content 1"] += content == 1
        kinds["zero component"] += any(c.is_zero for c in comps)
        kinds["negative lead"] += content < 0
        kinds["fraction"] += content.denominator > 1
    assert all(kinds.values()), kinds


def test_tuple_primitive_of_zeros_raises():
    with pytest.raises(AllZero):
        _tuple_primitive((HomPoly.zero(3),) * 3)


def test_lag1_depth_two_is_inconclusive(cubic_lag1):
    res = infer_qas(iterate_degrees(cubic_lag1, 2))
    assert res.verdict == "Inconclusive"
    assert res.n0 == 1
    assert res.H == p("z")


def test_infer_needs_depth_two(cubic_lag1):
    with pytest.raises(ValueError):
        infer_qas(iterate_degrees(cubic_lag1, 1))


# -- stable maps -----------------------------------------------------------------


def test_monomial_square_is_stable():
    tr = iterate_degrees(mk("z^2", "w^2", "t^2"), 3)
    assert tr.degrees == (1, 2, 4, 8)
    assert infer_qas(tr).verdict == "AS"


def test_identity_is_stable():
    tr = iterate_degrees(mk("z", "w", "t"), 3)
    assert tr.degrees == (1, 1, 1, 1)
    assert infer_qas(tr).verdict == "AS"


def test_generic_cubic_is_stable():
    tr = iterate_degrees(mk("z^3 + w^3", "w^3 + t^3", "z*w*t"), 3)
    assert tr.degrees == (1, 3, 9, 27)
    assert infer_qas(tr).verdict == "AS"


# -- compose_extract hints -------------------------------------------------------


def test_wrong_hint_is_harmless(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 2)
    e_plain, next_plain = compose_extract(f, tr.lifting(1))
    e_wrong, next_wrong = compose_extract(f, tr.lifting(1), hint=p("w*t"))
    assert e_plain.primitive == e_wrong.primitive
    assert e_plain.content == e_wrong.content
    assert next_plain == next_wrong


def test_correct_hint_matches_full_gcd(cubic_lag1):
    f = cubic_lag1
    tr = iterate_degrees(f, 3)
    e_hint, nxt = compose_extract(f, tr.lifting(2), hint=f.components[0])
    assert e_hint.primitive == tr.E(3).primitive
    assert nxt == tr.lifting(3)


@pytest.mark.parametrize("hint", ["w^2 - t*z", "w*t", "3*z - 3*t", "t*w*(z - t)"])
def test_proper_factor_hint_matches_full_gcd(cubic_extracting, hint):
    # E_3 of this map is t*w*(z - t)*(t*z - w^2); each hint is a proper
    # factor of it, so the rest of the gcd comes from the quotients
    f = cubic_extracting
    tr = iterate_degrees(f, 2)
    e_plain, next_plain = compose_extract(f, tr.lifting(2))
    e_hint, next_hint = compose_extract(f, tr.lifting(2), hint=p(hint))
    assert e_plain.primitive.degree == 5
    assert e_hint.primitive == e_plain.primitive
    assert e_hint.content == e_plain.content
    assert next_hint == next_plain


# -- point classes ---------------------------------------------------------------


def test_indeterminate_point(cubic_extracting):
    assert point_class(cubic_extracting, (1, 1, 1)).indeterminate


def test_image_point_scaled_to_first_nonzero(cubic_extracting):
    pc = point_class(cubic_extracting, (0, 1, 1))
    assert not pc.indeterminate
    assert pc.image == (1, 1, 1)


def test_image_point_fractions():
    pc = point_class(mk("z^2", "w^2", "t^2"), (2, 1, 1))
    from fractions import Fraction

    assert pc.image == (1, Fraction(1, 4), Fraction(1, 4))


def test_zero_vector_rejected(cubic_extracting):
    with pytest.raises(ZeroVector):
        point_class(cubic_extracting, (0, 0, 0))


def test_point_arity_checked(cubic_extracting):
    with pytest.raises(ArityMismatch):
        point_class(cubic_extracting, (1, 2))


# -- map files -------------------------------------------------------------------

MAP_TEXT = """\
# lag-one extracting cubic
vars z w t

map z^2*t + z*w^2 - 2*w^2*t
map z^2*w + z*t^2 - 2*w^2*t   # second component
map 2*z*w*t - 2*w^2*t
"""


def test_parse_map_text_with_comments(cubic_lag1):
    f = parse_map_text(MAP_TEXT)
    assert f.components == cubic_lag1.components
    assert f.names == NAMES


def test_map_text_round_trip(cubic_lag1):
    again = parse_map_text(map_to_text(cubic_lag1))
    assert again.components == cubic_lag1.components


def test_map_file_round_trip(tmp_path, cubic_lag1):
    path = tmp_path / "map.txt"
    save_map(cubic_lag1, path)
    assert load_map(path).components == cubic_lag1.components


@pytest.mark.parametrize(
    "bad",
    [
        "map z\nmap w\nmap t",
        "vars z w t\nmap z\nmap w",
        "vars z w t\nbogus line",
        "vars z\nmap z",
        "vars z w t\nvars z w t\nmap z\nmap w\nmap t",
        "varsity z w t\nmap z\nmap w\nmap t",
        "vars z w t\nmap w^2\nmapz^2\nmap t^2",
        "# a comment\n   # and another\n",
    ],
)
def test_map_text_errors(bad):
    with pytest.raises(ParseError):
        parse_map_text(bad)


# -- digest ----------------------------------------------------------------------


def test_digest_frozen_and_stable(cubic_lag1):
    tr = iterate_degrees(cubic_lag1, 3)
    h = infer_qas(tr).certificate.H
    d = certificate_digest(tr, h)
    assert d == "fe2b1ea9a5d694804bec8e782fa522a8c0091b7d5d06aa53229675a2f7162c60"
    assert certificate_digest(iterate_degrees(cubic_lag1, 3), h) == d


@pytest.mark.parametrize(
    "name, digest",
    [
        ("cubic_extracting", "a49820c7e4fee0ea337e03201bc8d8d1c1db3d9fc5f4f674d9943d52e171c70f"),
        ("cubic_lag1", "afc37759779bef6b1a3f6eb353239ee987afe395409d98ea841294a25a3d3189"),
    ],
)
def test_digest_at_depth_four_is_pinned(request, name, digest):
    # as verify-all --n 4 prints it: every lifting and the certificate's
    # divisor, if any, printed canonically
    tr = iterate_degrees(request.getfixturevalue(name), 4)
    cert = infer_qas(tr).certificate
    assert certificate_digest(tr, cert.H if cert else None) == digest


def test_digest_depends_on_divisor(cubic_lag1):
    tr = iterate_degrees(cubic_lag1, 3)
    assert certificate_digest(tr, p("z")) != certificate_digest(tr, None)


def test_trace_pickles_and_deep_copies(cubic_lag1):
    # a trace of the stable map, with its liftings, factors and map, through
    # HomPoly.__getstate__ and __setstate__
    tr = iterate_degrees(cubic_lag1, 3)
    cert = infer_qas(tr).certificate
    for back in (pickle.loads(pickle.dumps(tr)), copy.deepcopy(tr)):
        assert back is not tr and back == tr
        assert back.degrees == (1, 3, 8, 21) and back.E(2) == tr.E(2)
        assert [c.degree for c in back.lifting(3)] == [21] * 3
        assert certificate_digest(back, cert.H) == certificate_digest(tr, cert.H)
        assert infer_qas(back).certificate == cert


# -- a map of P^3 ------------------------------------------------------------------


P3_QAS = Path(__file__).parent / "fixtures" / "p3_qas.map"


def test_p3_qas_fixture():
    # P linear, Q1..Q4 quadratic and R cubic in four variables, each P*Qi - R
    # vanishing at (1, 1, 1, 1); the digest was recorded before the int
    # products and compositions moved onto rows
    f = load_map(P3_QAS)
    assert f.k == 3 and f.degree == 3
    assert all(c.evaluate((1, 1, 1, 1)) == 0 for c in f.components)
    tr = iterate_degrees(f, 3)
    assert tr.degrees == (1, 3, 8, 21)
    res = infer_qas(tr)
    assert res.verdict == "QAS" and res.certificate.n0 == 1
    assert res.certificate.H == parse_poly("3*y + 2*t", f.names)
    assert certificate_digest(tr, res.certificate.H) == (
        "801cf17701cdbcc722d10e387068e8a71cea4d0f12ae6dd24f8bdc0f842c9b5b"
    )


# -- the stable cubic twisted to n0 = 2 and 3 --------------------------------------


# each fixture's A, as its header gives it, and its exact degrees to depth 3
TWISTED = {
    "n0_2_qas.map": ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], (1, 3, 9, 26)),
    "n0_3_qas.map": ([[2, 0, 0], [0, 0, -2], [1, -1, 0]], (1, 3, 9, 27)),
}


def _sympy_degrees(f, depth):
    """The degrees of f's iterates to depth, each lifting composed over ZZ by sympy and divided by its gcd."""
    R, *xs = ring(",".join(f.names), sympy.ZZ)
    comps = [R.from_dict(dict(c.terms)) for c in f.components]
    lifting, degrees = xs, [1]
    for _ in range(depth):
        lifting = [c.compose(list(zip(xs, lifting))) for c in comps]
        g = lifting[0].gcd(lifting[1]).gcd(lifting[2])
        lifting = [c.exquo(g) for c in lifting]
        degrees.append(max(map(sum, lifting[0].monoms())))
    return tuple(degrees)


@pytest.mark.parametrize("name", TWISTED)
def test_twisted_fixture_is_a_times_the_stable_cubic(cubic_lag1, name):
    # the header's A times the stable cubic is the fixture's lifting, and
    # sympy's degrees to depth 3 are the engine's
    A, degrees = TWISTED[name]
    path = Path(__file__).parent / "fixtures" / name
    assert f"A = {A}".replace(", ", ",") in path.read_text()
    f = load_map(path)
    twisted = tuple(sum((a * c for a, c in zip(row, cubic_lag1.components)), HomPoly.zero(3)) for row in A)
    assert _tuple_primitive(twisted)[1] == f.components
    assert iterate_degrees(f, 3).degrees == _sympy_degrees(f, 3) == degrees


# -- a d = 4 map with a quadratic divisor ---------------------------------------------


QUARTIC_QAS = Path(__file__).parent / "fixtures" / "quartic_qas.map"


@pytest.fixture(scope="module")
def quartic_trace():
    """The quartic family map, traced to depth 3, with every call of the fused division it made with a divisor."""
    seen = []

    def spy(forms, substitutes, den):
        out = fused(forms, substitutes, den)
        if den is not None:
            seen.append(out[1])
        return out

    fused = mapiter._compose_divide
    mapiter._compose_divide = spy
    try:
        f = load_map(QUARTIC_QAS)
        tr = iterate_degrees(f, 3)
        res = infer_qas(tr)
        ok = [verify_lifting_recurrence(f, res.certificate, tr, n) for n in (2, 3)]
    finally:
        mapiter._compose_divide = fused
    return f, tr, res, ok, seen


def test_quartic_qas_fixture(quartic_trace):
    # the family instance of family-gen --deg-p 2 --deg-q 2 --seed 0: d = 4 and
    # H = P quadratic; the digest is the one degrees --n 3 --json prints
    f, tr, res, ok, seen = quartic_trace
    assert f.degree == 4 and tr.degrees == (1, 4, 14, 48)
    assert certificate_digest(tr, None) == (
        "2bbfbad1175880a1a961fd6170e4eae52ecd51a074f6daf50c8e30a6fc250150"
    )
    assert res.verdict == "QAS" and res.certificate.n0 == 1
    assert res.certificate.H == -parse_poly("-2*z*w + 2*z*t + 4*w^2 + 3*w*t", f.names)
    # E_2 proposes H, so the hint of step 3 and both recurrence checks
    # divided every composed component by a power of H
    assert ok == [True, True] and seen == [True] * 3


def test_quartic_recurrence_rejects_a_changed_coefficient_or_power(quartic_trace):
    f, tr, res, _, _ = quartic_trace
    cert = res.certificate
    for n in (2, 3):
        for m in (n - 1, n):
            # one coefficient of F_{n-1}, which is composed, or of F_n, which is compared
            (e, c), *rest = tr.lifting(m)[1].terms
            changed = HomPoly(3, [(e, c + 1), *rest])
            comps = tr.lifting(m)[:1] + (changed,) + tr.lifting(m)[2:]
            assert not verify_lifting_recurrence(f, cert, _with_lifting(tr, m, comps), n)
        # H^(d_{n-2}) is the divisor; one power more or less is not
        for shift in (-1, 1):
            degrees = list(cert.degrees)
            degrees[n - 2] += shift
            assert not verify_lifting_recurrence(f, cert._replace(degrees=tuple(degrees)), tr, n)
        assert verify_lifting_recurrence(f, cert, tr, n)


def test_quartic_compose_extract_takes_a_fraction_lifting_with_a_hint(quartic_trace):
    # by Gauss's lemma the hint divides f(F_2 / 3) iff it divides f(F_2):
    # the extraction is the same, with content 3^-4 of the int lifting's
    f, tr, res, _, _ = quartic_trace
    hint = res.certificate.H.compose(tr.lifting(1))
    E, nxt = compose_extract(f, tr.lifting(2), hint)
    assert E.primitive == tr.E(3).primitive and nxt == tr.lifting(3)
    Ef, nxtf = compose_extract(f, [q * Fraction(1, 3) for q in tr.lifting(2)], hint)
    assert Ef.primitive == E.primitive and nxtf == nxt
    assert Ef.content == E.content / 81
