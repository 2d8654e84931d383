"""Exact polynomial layer: parsing, arithmetic, division, GCD, certificates."""

import copy
import functools
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.rings import ring

from projdyn import (
    ArityMismatch,
    DegreeMismatch,
    DivisionByZero,
    HomPoly,
    NonHomogeneous,
    NotDivisible,
    ParseError,
    ResourceLimit,
    ZeroPolynomialDegree,
    coprime_certificate,
    coprime_certificate_many,
    compose_all,
    exact_div,
    get_term_cap,
    int_primitive,
    parse_poly,
    poly_gcd,
    poly_gcd_many,
    poly_to_text,
    random_hompoly,
    same_up_to_scalar,
    set_term_cap,
)
from projdyn import polycore
from projdyn.family2 import random_family
from projdyn.mapiter import iterate_degrees, make_map
from projdyn.polycore import (
    _dadd,
    _deg_in,
    _dexact_div,
    _dint_normalize,
    _dmul,
    _field_width,
    _gcd_cofactors,
    _is_prime,
    _modp_gcd_mv,
    _pack_dict,
    _pmul,
    _unpack_dict,
)

NAMES = ("z", "w", "t")


def P(text: str) -> HomPoly:
    return parse_poly(text, NAMES)


# -- parsing and printing -------------------------------------------------------


def test_parse_round_trip_is_canonical():
    p = P("2*z^2*w - w^3 + 3*z*w*t")
    assert parse_poly(poly_to_text(p, NAMES), NAMES) == p


def test_parse_accepts_rationals_and_parens():
    p = parse_poly("(1/2)*z^2 - (3/4)*z*w + w^2", NAMES)
    assert p.as_dict()[(2, 0, 0)] == Fraction(1, 2)
    assert p.as_dict()[(1, 1, 0)] == Fraction(-3, 4)


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneous):
        P("z^2 + w")


def test_parse_rejects_unknown_variable():
    from projdyn import UnknownVariable

    with pytest.raises(UnknownVariable):
        P("z^2 + u*w")


def test_parse_rejects_garbage():
    for bad in ("z^", "z +", "* w", "z ^ w", "(z", "z)"):
        with pytest.raises(ParseError):
            P(bad)


@pytest.mark.parametrize("text, names, fragment", [
    ("z $ w", NAMES, "unexpected character"),
    ("1/0*z", NAMES, "zero denominator"),
    ("1/z", NAMES, "denominator digits"),
    ("z", ("z", "z", "t"), "duplicate variable names"),
])
def test_parse_errors_name_the_fault(text, names, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_poly(text, names)


@pytest.mark.parametrize("text, names, error", [
    ("z $ w", NAMES, "ParseError: unexpected character '$' at offset 2"),
    ("z^2 + 1/0*w^2", NAMES, "ParseError: zero denominator"),
    ("1/z", NAMES, "ParseError: expected denominator digits, found 'z'"),
    ("z^w", NAMES, "ParseError: expected exponent digits, found 'w'"),
    ("z^", NAMES, "ParseError: expected exponent digits, found ''"),
    ("(z + w", NAMES, "ParseError: expected ')', found ''"),
    ("(z + w w", NAMES, "ParseError: expected ')', found 'w'"),
    ("z)", NAMES, "ParseError: trailing input starting at ')'"),
    ("z w", NAMES, "ParseError: trailing input starting at 'w'"),
    ("* w", NAMES, "ParseError: unexpected token '*'"),
    ("z +", NAMES, "ParseError: unexpected token ''"),
    ("z + -w", NAMES, "ParseError: unexpected token '-'"),
    ("z*-w", NAMES, "ParseError: unexpected token '-'"),
    ("--z", NAMES, "ParseError: unexpected token '-'"),
    ("()", NAMES, "ParseError: unexpected token ')'"),
    ("", NAMES, "ParseError: unexpected token ''"),
    ("z", ("z", "z", "t"), "ParseError: duplicate variable names in ['z', 'z', 't']"),
    ("z^2 + u*w", NAMES, "UnknownVariable: unknown variable 'u'; have ['z', 'w', 't']"),
    ("0*u", NAMES, "UnknownVariable: unknown variable 'u'; have ['z', 'w', 't']"),
    ("z^2 + (w", NAMES, "ParseError: expected ')', found ''"),
    ("z^2 + w", NAMES, "NonHomogeneous: 'z^2 + w' collects terms of degrees [1, 2]"),
])
def test_parse_error_messages_are_pinned(text, names, error):
    with pytest.raises(polycore.PolyError) as exc:
        parse_poly(text, names)
    assert f"{type(exc.value).__name__}: {exc.value}" == error


def _nested_text(rng, degree, depth):
    """Random text of the grammar whose terms all have the given degree.

    Terms mix rationals, zeros, repeated and zeroth powers and
    parenthesised sums, with unary minus at the head of any sum.
    """
    terms = []
    for k in range(rng.randint(1, 4)):
        factors, left = [], degree
        if rng.random() < 0.3:
            factors.append(rng.choice(("0", "2", "3/2", "7/3", "1/5", "12")))
        while left:
            step = rng.randint(1, left)
            if depth and rng.random() < 0.35:
                factors.append(f"({_nested_text(rng, step, depth - 1)})")
            else:
                v = rng.choice(NAMES)
                factors.append(v if step == 1 and rng.random() < 0.5 else f"{v}^{step}")
            left -= step
        if rng.random() < 0.15:
            factors.append(rng.choice(NAMES) + "^0")
        if rng.random() < 0.1:
            factors.append("0")
        rng.shuffle(factors)
        body = "*".join(factors or ["1"])
        if k == 0:
            terms.append(("-" if rng.random() < 0.4 else "") + body)
        else:
            terms.append(rng.choice((" + ", " - ")) + body)
    return "".join(terms)


def _nested_cases(seed, count):
    """Nested texts, a fifth with a stray term of degree 1 and a tenth with one character changed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = _nested_text(rng, rng.randint(0, 4), 3)
        if rng.random() < 0.2:
            text += f" + {rng.choice(NAMES)}"
        if rng.random() < 0.1:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice("+-*/^() $0u") + text[i + 1:]
        out.append(text)
    return out


def _outcome(text):
    try:
        return poly_to_text(parse_poly(text, NAMES), NAMES)
    except polycore.PolyError as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 of the outcomes of `_nested_cases(1, 400)`, one line each, as the
# parser that multiplied every factor as a dict gave them
NESTED_SHA256 = "1af50df73e1b77d95bc890cb842fd4a6faf415ccad3237795a28b6ae9431bdd3"


def test_parse_nested_text_matches_sympy_and_is_pinned():
    xs = sympy.symbols(NAMES)
    cases = _nested_cases(1, 400)
    outcomes = [_outcome(text) for text in cases]
    kinds = {o.split(":")[0] for o in outcomes if ":" in o}
    assert {"NonHomogeneous", "ParseError"} <= kinds
    checked = 0
    for text, out in zip(cases, outcomes):
        try:
            expr = sympy.sympify(text.replace("^", "**"), locals=dict(zip(NAMES, xs)))
        except (sympy.SympifyError, SyntaxError, TypeError):
            assert ":" in out
            continue
        if ":" not in out:
            _assert_same(parse_poly(text, NAMES), expr, xs)
            checked += 1
    assert checked > 250
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == NESTED_SHA256


@pytest.mark.slow
@pytest.mark.parametrize("comps", [
    ("z^2*t + z*w^2 - 2*w^2*t", "z^2*w + z*t^2 - 2*w^2*t", "2*z*w*t - 2*w^2*t"),
    ("z*w^2 - w^2*t", "z*t^2 - w^2*t", "z^2*w - w^2*t"),
], ids=["stable", "extracting"])
def test_parse_round_trips_the_depth_five_liftings(comps):
    lifting = iterate_degrees(make_map([P(c) for c in comps]), 5).lifting(5)
    assert sum(len(c.terms) for c in lifting) > 500
    for c in lifting:
        assert parse_poly(poly_to_text(c, NAMES), NAMES) == c


@pytest.mark.parametrize("p, text", [
    (P("(2/3)*z^2 - w*t"), "2/3*z^2 - w*t"),
    (HomPoly.constant(3, Fraction(-5, 7)), "-5/7"),
    (HomPoly.zero(3), "0"),
])
def test_print_fractions_constants_and_zero(p, text):
    assert poly_to_text(p, NAMES) == text
    assert parse_poly(text, NAMES) == p


def test_print_orders_terms_deterministically():
    a = P("w^2 + z*w + z^2")
    b = P("z^2 + z*w + w^2")
    assert poly_to_text(a, NAMES) == poly_to_text(b, NAMES)


# -- ring operations ------------------------------------------------------------


def test_ring_identities_randomised():
    rng = random.Random(7)
    for _ in range(40):
        a = random_hompoly(rng, 3, rng.randint(1, 4), 6, 9)
        b = random_hompoly(rng, 3, a.degree, 6, 9)
        c = random_hompoly(rng, 3, rng.randint(1, 3), 6, 9)
        assert a + b == b + a
        assert a - a == HomPoly.zero(3)
        assert a * c == c * a
        assert (a + b) * c == a * c + b * c


def test_pickle_and_deepcopy_round_trip():
    # HomPoly has slots and refuses attribute writes, so both go through
    # __getstate__ and __setstate__
    forms = (P("3*z^2*w - 1/2*t^3"), HomPoly.zero(3), HomPoly.constant(2, Fraction(-7, 3)))
    for p in forms:
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert back is not p and back == p and hash(back) == hash(p)
            assert (back.nvars, back.terms, back._degree) == (p.nvars, p.terms, p._degree)
            with pytest.raises(AttributeError):
                back.nvars = 4
    assert pickle.loads(pickle.dumps(forms[0])) * P("z") == forms[0] * P("z")


def test_degree_mismatch_on_add():
    from projdyn import DegreeMismatch

    with pytest.raises(DegreeMismatch):
        P("z^2") + P("w")  # noqa: B018


def test_zero_polynomial_has_no_degree():
    with pytest.raises(ZeroPolynomialDegree):
        HomPoly.zero(3).degree  # noqa: B018


def test_pow_matches_repeated_mul():
    a = P("z - w + 2*t")
    assert a**3 == a * a * a
    assert a**0 == HomPoly.one(3)


def test_compose_degree_and_agreement_with_evaluation():
    rng = random.Random(11)
    F = [random_hompoly(rng, 3, 2, 5, 9) for _ in range(3)]
    g = P("z^2*w - t^3 + z*w*t")
    comp = g.compose(F)
    assert comp.is_zero or comp.degree == g.degree * 2
    pt = (Fraction(3), Fraction(-2), Fraction(5))
    img = tuple(f.evaluate(pt) for f in F)
    assert comp.evaluate(pt) == g.evaluate(img)


def test_evaluate_supports_floats_and_complex():
    g = P("z^2 - w*t")
    assert g.evaluate((2.0, 1.0, 3.0)) == pytest.approx(1.0)
    v = g.evaluate((1j, 1.0, 1.0))
    assert v == pytest.approx(-2.0 + 0j)


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatch):
        P("z^2") + parse_poly("x^2", ("x", "y"))


def test_constructor_validation():
    with pytest.raises(ValueError, match="nvars"):
        HomPoly(0)
    with pytest.raises(ArityMismatch):
        HomPoly(2, [((1, 0, 0), 1)])
    with pytest.raises(ValueError, match="non-negative"):
        HomPoly(2, [((2, -1), 1)])
    for bad in ("a", None):
        with pytest.raises(ValueError, match="non-negative ints"):
            HomPoly(2, [((bad, 1), 1)])
    with pytest.raises(NonHomogeneous):
        HomPoly(2, [((1, 0), 1), ((1, 1), 1)])
    with pytest.raises(ArityMismatch):
        HomPoly.variable(2, 2)
    # terms that cancel leave the zero polynomial
    zero = HomPoly(2, [((1, 0), 3), ((0, 1), 1), ((1, 0), -3), ((0, 1), -1)])
    assert zero.is_zero and zero == HomPoly.zero(2)


def test_operation_validation():
    z, w = P("z"), P("w")
    with pytest.raises(ValueError, match="non-negative"):
        z ** -1
    with pytest.raises(ArityMismatch, match="substitutes"):
        z.compose([w, w])
    with pytest.raises(ArityMismatch, match="arity"):
        z.compose([w, parse_poly("x", ("x", "y")), w])
    with pytest.raises(DegreeMismatch):
        z.compose([w, w**2, w])
    two = parse_poly("x*y", ("x", "y"))
    with pytest.raises(ArityMismatch):
        two.partial(2)
    assert HomPoly.constant(3, 5).partial(0).is_zero
    with pytest.raises(ArityMismatch):
        z.evaluate((1, 2))
    with pytest.raises(TypeError):
        exact_div(z, 3)
    with pytest.raises(DivisionByZero):
        int_primitive(HomPoly.zero(3))
    with pytest.raises(ArityMismatch, match="names"):
        poly_to_text(z, ("z", "w"))
    with pytest.raises(ValueError):
        random_hompoly(random.Random(0), 3, -1, 4, 5)
    for nvars in (0, -1):
        with pytest.raises(ValueError, match="nvars"):
            random_hompoly(random.Random(0), nvars, 2, 3, 5)


def test_term_cap_must_be_positive():
    cap = get_term_cap()
    with pytest.raises(ValueError, match="positive"):
        set_term_cap(0)
    assert get_term_cap() == cap


# -- division and primitive form ------------------------------------------------


def test_exact_div_inverts_multiplication():
    rng = random.Random(23)
    for _ in range(25):
        a = random_hompoly(rng, 3, rng.randint(1, 3), 6, 9)
        b = random_hompoly(rng, 3, rng.randint(1, 3), 6, 9)
        assert exact_div(a * b, b) == a


def test_exact_div_rejects_non_divisor():
    with pytest.raises(NotDivisible):
        exact_div(P("z^2 + w^2"), P("z + w"))
    with pytest.raises(NotDivisible):
        exact_div(P("z"), P("z^2"))


def test_exact_div_by_zero():
    with pytest.raises(DivisionByZero):
        exact_div(P("z^2"), HomPoly.zero(3))


def test_exact_div_in_one_variable():
    # one-variable forms are monomials, divided without rows
    x = HomPoly.variable(1, 0)
    assert exact_div(285 * x**6, -3 * x) == -95 * x**5
    assert exact_div(Fraction(3, 4) * x**3, Fraction(-9, 2) * x) == Fraction(-1, 6) * x**2
    assert exact_div(HomPoly.constant(1, 6), HomPoly.constant(1, 4)) == HomPoly.constant(
        1, Fraction(3, 2)
    )
    with pytest.raises(NotDivisible):
        exact_div(7 * x**2, x**3)
    assert exact_div(HomPoly.zero(1), x) == HomPoly.zero(1)
    q = _dexact_div({(6,): 285}, {(1,): -3})
    assert q == {(5,): -95} and type(q[(5,)]) is int
    assert _dexact_div({(2,): 6}, {(2,): 4}) == {(0,): Fraction(3, 2)}


def test_int_primitive_reconstructs_and_is_canonical():
    p = parse_poly("(4/6)*z^2 - (8/6)*w^2", NAMES)
    ip = int_primitive(p)
    assert ip.content * ip.primitive == p
    d = ip.primitive.as_dict()
    assert all(isinstance(c, int) for c in d.values())
    lead = d[max(d)]
    assert lead > 0
    # idempotent on its own output
    again = int_primitive(ip.primitive)
    assert again.content == 1 and again.primitive == ip.primitive


def test_same_up_to_scalar():
    assert same_up_to_scalar(P("2*z^2 - 4*w^2"), P("-z^2 + 2*w^2"))
    assert not same_up_to_scalar(P("z^2"), P("w^2"))


# -- GCD ------------------------------------------------------------------------


def test_gcd_hand_cases():
    assert poly_gcd(P("z^2 - w^2"), P("z^2 + 2*z*w + w^2")) == P("z + w")
    assert poly_gcd(P("z^2*w"), P("z*w^2")) == P("z*w")
    assert poly_gcd(P("z^3"), P("w^3")).degree == 0
    # scalar content never leaks into the gcd
    assert poly_gcd(P("6*z^2"), P("4*z*w")) == P("z")
    # after stripping w*t and setting t = 1, the point w = 1 makes the two
    # images proportional: fixed evaluation points loop on this pair
    a = P("-8*z^2*w*t + 2*w*t^3")
    b = P("-12*z^2*w*t - 6*z*w^2*t + 6*z*w*t^2 + 3*w^2*t^2")
    assert poly_gcd(a, b) == P("2*z*w*t - w*t^2")
    # coefficients above 2^100 need more than one prime; a lex-leading
    # coefficient of 2^61 - 1 makes the engine skip its first prime
    for lead in (2**101 + 3, 2**61 - 1):
        g = HomPoly(3, [((2, 0, 0), lead), ((1, 1, 0), -(2**100) - 7), ((0, 1, 1), 5)])
        assert poly_gcd(g * P("z - w + t"), g * P("w^2 + 3*z*t")) == g
    # z + t + q*w and z + t agree mod every prime factor of q, which is
    # unlucky: the first prime (2^61 - 1; a constant gcd, then g restarts),
    # the second (2^61 - 31; dropped), or both, whose CRT result settles on
    # g * (z + t) and fails the trial division
    g = P("w + 2*t")
    for q in (2**61 - 1, 2**61 - 31, (2**61 - 1) * (2**61 - 31)):
        a = P("z + t") + q * P("w")
        assert poly_gcd(a, P("z + t")) == HomPoly.one(3)
        assert poly_gcd(g * a, g * P("z + t")) == g


def test_gcd_with_zero_operand():
    assert poly_gcd(HomPoly.zero(3), P("3*z*w")) == P("z*w")
    with pytest.raises(ValueError):
        poly_gcd(HomPoly.zero(3), HomPoly.zero(3))


# The primitive pseudo-remainder sequence (PRS) gcd: slow, but simple enough
# to trust, so it stays here as the reference of the modular engine.


def _lc_in(d: dict, x: int) -> dict:
    """Leading coefficient of d viewed as univariate in x (x-slot zeroed)."""
    m = _deg_in(d, x)
    out = {}
    for e, c in d.items():
        if e[x] == m:
            out[tuple(0 if i == x else v for i, v in enumerate(e))] = c
    return out


def _shift_in(d: dict, x: int, k: int) -> dict:
    if k == 0:
        return d
    return {tuple(v + k if i == x else v for i, v in enumerate(e)): c for e, c in d.items()}


def _prem(a: dict, b: dict, x: int) -> dict:
    """Pseudo-remainder of a by b in variable x (scalar multiples tolerated)."""
    db = _deg_in(b, x)
    lb = _lc_in(b, x)
    b_rest = {e: c for e, c in b.items() if e[x] != db}
    r = a
    while r:
        dr = _deg_in(r, x)
        if dr < db:
            break
        lr = _lc_in(r, x)
        r_rest = {e: c for e, c in r.items() if e[x] != dr}
        r = _dadd(
            _dmul(lb, r_rest),
            _dmul({e: -c for e, c in lr.items()}, _shift_in(b_rest, x, dr - db)),
        )
    return r


def _int_content(d: dict) -> int:
    g = 0
    for c in d.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _gcd_mv(a: dict, b: dict, nvars: int) -> dict:
    """GCD of integer term dicts, unique up to sign.

    Content/primitive split in the highest variable present, primitive
    PRS on the primitive parts, recursion on the coefficient ring.
    """
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    x = -1
    for i in range(nvars - 1, -1, -1):
        if _deg_in(a, i) > 0 or _deg_in(b, i) > 0:
            x = i
            break
    if x < 0:
        return {(0,) * nvars: math.gcd(_int_content(a), _int_content(b))}
    da, db = _deg_in(a, x), _deg_in(b, x)
    if da == 0 or db == 0:
        flat = a if da == 0 else b
        other = b if da == 0 else a
        coeffs = _x_coefficients(other, x)
        g = flat
        for c in coeffs.values():
            g = _gcd_mv(g, c, nvars)
            if _is_unit_dict(g, nvars):
                return g
        return g
    cont_a, pp_a = _x_content_split(a, x, nvars)
    cont_b, pp_b = _x_content_split(b, x, nvars)
    c = _gcd_mv(cont_a, cont_b, nvars)
    g, s = (pp_a, pp_b) if _deg_in(pp_a, x) >= _deg_in(pp_b, x) else (pp_b, pp_a)
    while True:
        r = _prem(g, s, x)
        if not r:
            result = s
            break
        if _deg_in(r, x) == 0:
            result = {(0,) * nvars: 1}
            break
        _, r = _x_content_split(r, x, nvars)
        g, s = s, r
    out = _dmul(c, result)
    cont = _int_content(out)
    if cont > 1:
        out = {e: v // cont for e, v in out.items()}
    return out


def _x_coefficients(d: dict, x: int) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for e, c in d.items():
        k = e[x]
        out.setdefault(k, {})[tuple(0 if i == x else v for i, v in enumerate(e))] = c
    return out


def _x_content_split(d: dict, x: int, nvars: int) -> tuple[dict, dict]:
    """Split d into (content, primitive part) w.r.t. variable x."""
    coeffs = _x_coefficients(d, x)
    it = iter(coeffs.values())
    g = dict(next(it))
    for c in it:
        g = _gcd_mv(g, c, nvars)
        if _is_unit_dict(g, nvars):
            break
    if _is_unit_dict(g, nvars):
        return {(0,) * nvars: 1}, dict(d)
    pp = _dexact_div(d, g)
    assert pp is not None, "content must divide"
    return g, pp


def _is_unit_dict(d: dict, nvars: int) -> bool:
    if len(d) != 1:
        return False
    ((e, c),) = d.items()
    return not any(e) and abs(c) == 1


def test_gcd_randomised_against_prs_engine():
    rng = random.Random(101)
    for _ in range(15):
        g = random_hompoly(rng, 3, rng.randint(1, 2), 4, 9)
        a = random_hompoly(rng, 3, rng.randint(1, 3), 6, 9)
        b = random_hompoly(rng, 3, rng.randint(1, 3), 6, 9)
        fast = poly_gcd(g * a, g * b)
        _, da = _dint_normalize(dict((g * a).terms))
        _, db = _dint_normalize(dict((g * b).terms))
        slow = _gcd_mv(da, db, 3)
        _, slow = _dint_normalize(slow)
        ref = HomPoly._new(3, slow, max(sum(e) for e in slow))
        assert fast == int_primitive(ref).primitive
        # the computed gcd must contain g
        exact_div(fast, poly_gcd(fast, g))  # smoke: no raise


def test_gcd_divides_both_inputs_always():
    rng = random.Random(577)
    for _ in range(20):
        a = random_hompoly(rng, 3, rng.randint(1, 4), 6, 9)
        b = random_hompoly(rng, 3, rng.randint(1, 4), 6, 9)
        g = poly_gcd(a, b)
        exact_div(a, g)
        exact_div(b, g)


def test_gcd_large_structured_product():
    # large enough that the modular engine interpolates over many points
    g = P("z*t - w^2") * P("z - t") * P("w + t")
    a = g * P("z^3 + w^3 + t^3") ** 2
    b = g * P("z^2*w - 2*t^3 + z*t^2") ** 2
    got = poly_gcd(a, b)
    assert exact_div(got, g).degree == 0 or got == int_primitive(g).primitive
    exact_div(a, got)
    exact_div(b, got)


def test_gcd_many_three_way():
    g = P("z + w")
    polys = [g * P("z^2"), g * P("w^2"), g * P("t^2 - z*w")]
    assert poly_gcd_many(polys) == g


def test_gcd_many_shared_monomial_fast_path():
    polys = [P("z^2*w*t"), P("z*w^2*t"), P("z*w*t^2 - z^2*w*t")]
    assert poly_gcd_many(polys) == P("z*w*t")


def test_gcd_many_unit_family():
    assert poly_gcd_many([P("z^2"), P("w^2"), P("t^2")]).degree == 0


def test_gcd_many_all_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd_many([HomPoly.zero(3), HomPoly.zero(3)])


# -- coprimality certificate ----------------------------------------------------


def test_certificate_is_sound_on_common_factors():
    rng = random.Random(31)
    for _ in range(25):
        g = random_hompoly(rng, 3, rng.randint(1, 2), 4, 9)
        a = random_hompoly(rng, 3, rng.randint(1, 2), 4, 9)
        b = random_hompoly(rng, 3, rng.randint(1, 2), 4, 9)
        assert not coprime_certificate(g * a, g * b)


def test_certificate_certifies_known_coprime_pairs():
    assert coprime_certificate(P("z^2 - w*t"), P("w^2 - z*t"))
    assert coprime_certificate(P("z + w"), P("z - w"))
    assert coprime_certificate(P("z*w^2 - w^2*t"), P("z^2*w - w^2*t")) is False  # shares w


def test_certificate_many_matches_gcd_verdict():
    fam = [P("z^2 - w*t"), P("w^2 - z*t"), P("t^2 - z*w")]
    assert coprime_certificate_many(fam)
    shared = [P("z*w"), P("z*t"), P("z^2 - z*w")]
    assert not coprime_certificate_many(shared)


def test_certificate_zero_and_constant_rules():
    assert not coprime_certificate(HomPoly.zero(3), P("z"))
    assert coprime_certificate_many([P("z^3"), HomPoly.constant(3, 5)])
    assert not coprime_certificate_many([HomPoly.zero(3)])


# -- resource guard -------------------------------------------------------------


def test_term_cap_guards_blowup():
    old = get_term_cap()
    set_term_cap(50)
    try:
        a = P("z^4 + w^4 + t^4 + z^3*w + z^3*t + w^3*t")
        with pytest.raises(ResourceLimit):
            _ = (a * a) * (a * a)
    finally:
        set_term_cap(old)


def test_term_cap_counts_output_monomials_not_pairs():
    s = P("z + w + t")
    q2, q3, q4, q5 = s**2, s**3, s**4, s**5  # 6, 10, 15 and 21 terms
    full = q4 * q4
    # an inhomogeneous operand, as the gcd code builds: degrees 1 and 2
    u = q2.as_dict() | {(1, 0, 0): 1}
    mixed = (q2 * q3).as_dict() | (P("z") * q3).as_dict()
    old = get_term_cap()
    set_term_cap(50)
    try:
        # 225 term pairs, but a degree-8 form in 3 variables has at most 45 terms
        assert q4 * q4 == full
        # 70 pairs; degrees 4 and 5 allow 15 + 21 monomials
        assert _dmul(u, q3.as_dict()) == mixed
        # degree 12 allows 91 monomials
        with pytest.raises(ResourceLimit):
            _ = full * q4
        # degrees 6 and 7 allow 28 + 36 monomials
        with pytest.raises(ResourceLimit):
            _dmul(u, q5.as_dict())
    finally:
        set_term_cap(old)


def test_single_term_product_matches_the_packed_route():
    # _dmul shifts the keys when one operand has one term; the term loop
    # of _pmul must give the same terms in the same order
    rng = random.Random(28)
    coeff = lambda: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-20, 20), rng.randint(1, 13))))
    for nv in (1, 2, 3, 4):
        for _ in range(40):
            degs = (rng.randint(0, 4),) if rng.random() < 0.5 else (1, 3)
            many = {}
            for _ in range(rng.randint(1, 12)):
                e = [0] * nv
                for _ in range(rng.choice(degs)):
                    e[rng.randrange(nv)] += 1
                many[tuple(e)] = coeff()
            one = {tuple(rng.randint(0, 3) for _ in range(nv)): coeff() or Fraction(1, 3)}
            for a, b in ((one, many), (many, one)):
                width = _field_width(max(map(sum, a)) + max(map(sum, b)))
                packed = _pmul(_pack_dict(a, width), _pack_dict(b, width))
                want = _unpack_dict(packed, nv, width)
                assert list(_dmul(a, b).items()) == list(want.items())
    # a zero coefficient, as the parser reads 0*z, gives no term
    assert _dmul({(1, 0): 0}, {(0, 1): 2, (1, 0): 3}) == {}
    assert _dmul({(1, 0): 2, (0, 1): 0}, {(0, 2): Fraction(1, 2)}) == {(1, 2): 1}


# -- differential tests against sympy -------------------------------------------


def _symbols(nvars):
    return sympy.symbols(f"x0:{nvars}")


def _to_sympy(p: HomPoly, xs):
    return sympy.Add(
        *(
            sympy.Rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
            for exps, c in p.terms
        )
    )


def _from_sympy(expr, xs) -> dict:
    terms = sympy.Poly(sympy.expand(expr), *xs).as_dict()
    return {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()}


def _random_form(rng, nvars, degree, max_terms):
    """A random form with Fraction coefficients."""
    p = random_hompoly(rng, nvars, degree, max_terms, 9)
    return HomPoly(nvars, [(e, Fraction(c, rng.randint(1, 4))) for e, c in p.terms])


def _assert_same(p: HomPoly, expr, xs):
    assert {e: Fraction(c) for e, c in p.terms} == _from_sympy(expr, xs)


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_compose_matches_sympy_both_directions(nvars):
    rng = random.Random(1000 + nvars)
    xs = _symbols(nvars)
    for _ in range(4):
        big = _random_form(rng, nvars, rng.randint(3, 5), 30)
        small = [_random_form(rng, nvars, 2, 3) for _ in range(nvars)]
        large_subs = [_random_form(rng, nvars, 3, 15) for _ in range(nvars)]
        little = _random_form(rng, nvars, 2, 3)
        # a many-term form of few-term substitutes, and a few-term form
        # of many-term substitutes
        assert len(big.terms) > max(len(q.terms) for q in small)
        assert len(little.terms) <= max(len(q.terms) for q in large_subs)
        for p, qs in ((big, small), (little, large_subs)):
            sub = dict(zip(xs, (_to_sympy(q, xs) for q in qs)))
            _assert_same(p.compose(qs), _to_sympy(p, xs).xreplace(sub), xs)


def test_compose_with_zero_substitutes_matches_sympy():
    rng = random.Random(2024)
    xs = _symbols(3)
    for many_term_form in (True, False):
        p = _random_form(rng, 3, 4, 30 if many_term_form else 2)
        q = _random_form(rng, 3, 2, 3 if many_term_form else 30)
        for zeros in ((0,), (1,), (2,), (0, 2)):
            qs = [HomPoly.zero(3) if i in zeros else q for i in range(3)]
            sub = dict(zip(xs, (_to_sympy(s, xs) for s in qs)))
            _assert_same(p.compose(qs), _to_sympy(p, xs).xreplace(sub), xs)


def test_compose_with_every_substitute_zero():
    # only a constant term survives, into the substitutes' arity
    zeros = [HomPoly.zero(2)] * 3
    assert P("z^2 + w*t").compose(zeros) == HomPoly.zero(2)
    assert HomPoly.constant(3, 7).compose(zeros) == HomPoly.constant(2, 7)
    assert HomPoly.zero(3).compose(zeros) == HomPoly.zero(2)


def test_compose_identity_substitution():
    rng = random.Random(5)
    for nvars in (2, 3, 4):
        p = _random_form(rng, nvars, 5, 20)
        assert p.compose([HomPoly.variable(nvars, i) for i in range(nvars)]) == p


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_exact_div_matches_sympy(nvars):
    rng = random.Random(3000 + nvars)
    xs = _symbols(nvars)
    for _ in range(8):
        a = _random_form(rng, nvars, rng.randint(1, 4), 12)
        # a divisor with content, integral or not
        b = _random_form(rng, nvars, rng.randint(1, 3), 6) * rng.choice((1, 6, Fraction(-10, 3)))
        c = _random_form(rng, nvars, a.degree + b.degree, 3)
        for num in (a * b, a * b + c):
            q, r = sympy.div(_to_sympy(num, xs), _to_sympy(b, xs), *xs)
            if sympy.expand(r) == 0:
                _assert_same(exact_div(num, b), q, xs)
            else:
                with pytest.raises(NotDivisible):
                    exact_div(num, b)


# each dividend term is larger than the divisor's leading term as a packed
# key while one of its exponents is smaller
BORROW_CASES = (
    ("z^2*t", "z*w"),
    ("z^3 + w^3", "z*w"),
    ("z^2*w + z*w^2 + t^3", "z*w"),  # leading terms divide, then t^3 borrows
    ("z^2*t - w^2*t", "z*w - w*t"),
    ("z^5 + w^5", "z*w^4 + t^5"),
    ("w^2*t", "z*t^2"),  # one divisor row, 1 at x_{n-2} = 2^(8s): only the borrow refutes it there
)


def test_exact_div_borrow_cases():
    for num, den in BORROW_CASES:
        with pytest.raises(NotDivisible):
            exact_div(P(num), P(den))
        assert _dexact_div(P(num).as_dict(), P(den).as_dict()) is None
    assert exact_div(P("z^2*w + z*w^2"), P("z*w")) == P("z + w")
    with pytest.raises(NonHomogeneous):
        _dexact_div({(2, 1): 1, (3, 4): -1}, {(1, 0): 1, (0, 5): -1})


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 7, 8, 15, 16])
def test_exponents_at_the_full_degree(degree):
    """An exponent equal to the total degree fills its packed field."""
    xs = _symbols(3)
    for j in range(degree + 1):
        a = HomPoly(3, [((j, 0, 0), 1), ((0, 0, j), Fraction(-1, 3))])
        b = HomPoly(3, [((degree - j, 0, 0), 2), ((0, degree - j, 0), 1)])
        ab = a * b
        _assert_same(ab, _to_sympy(a, xs) * _to_sympy(b, xs), xs)
        assert exact_div(ab, b) == a
        assert exact_div(ab, a) == b
    top = HomPoly(3, [((degree, 0, 0), 1), ((0, degree, 0), -1), ((0, 0, degree), 3)])
    with pytest.raises(NotDivisible):
        exact_div(top, HomPoly.monomial(3, (0, degree, 0)))
    assert exact_div(top * top, top) == top
    perm = [HomPoly.variable(3, 2), HomPoly.variable(3, 0), HomPoly.variable(3, 1)]
    assert top.compose(perm) == HomPoly(
        3, [((0, 0, degree), 1), ((degree, 0, 0), -1), ((0, degree, 0), 3)]
    )
    lin = [P("z - w"), P("t"), P("z + 2*t")]
    sub = dict(zip(xs, (_to_sympy(q, xs) for q in lin)))
    _assert_same(top.compose(lin), _to_sympy(top, xs).xreplace(sub), xs)


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_matches_sympy_with_planted_factors(nvars):
    rng = random.Random(4000 + nvars)
    xs = _symbols(nvars)

    def same(p, expr):
        return same_up_to_scalar(p, HomPoly(nvars, _from_sympy(expr, xs).items()))

    verdicts = set()
    for i in range(12):
        g = _random_form(rng, nvars, rng.randint(0, 3), 4)
        degrees = [rng.randint(1, 3) for _ in range(3)]
        if i % 3 == 0:
            degrees[1] = 0  # b is a scalar multiple of g, so it divides a
        a, b, c = (g * _random_form(rng, nvars, d, 5) for d in degrees)
        expect = sympy.gcd(_to_sympy(a, xs), _to_sympy(b, xs))
        assert same(poly_gcd(a, b), expect)
        expect_many = sympy.gcd(expect, _to_sympy(c, xs))
        assert same(poly_gcd_many([a, b, c]), expect_many)
        coprime = coprime_certificate_many([a, b, c])
        assert coprime == (not expect_many.free_symbols)
        verdicts.add(coprime)
        exact_div(poly_gcd(a, b), g)
    assert verdicts == {True, False}


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_many_matches_sympy_on_larger_families(nvars):
    rng = random.Random(4500 + nvars)
    xs = _symbols(nvars)
    for i in range(12):
        kind = i % 4
        if kind == 3:  # the only common factor is a monomial
            exps = [rng.randint(0, 2) for _ in range(nvars)]
            g = HomPoly.monomial(nvars, exps, rng.randint(1, 5))
        else:
            g = _random_form(rng, nvars, rng.randint(1, 2), 4)
        count = rng.randint(4, 5)
        members = [g * _random_form(rng, nvars, rng.randint(1, 2), 4) for _ in range(count)]
        if kind == 0:  # zero members are dropped
            members[1:1] = [HomPoly.zero(nvars)]
            members.append(HomPoly.zero(nvars))
        elif kind == 1:  # a constant member leaves the gcd 1
            members.insert(2, HomPoly.constant(nvars, Fraction(-3, 2)))
        elif kind == 2:  # a member that divides all the others
            members.insert(rng.randint(0, len(members)), g * Fraction(-2, 7))
        expect = sympy.gcd_list([_to_sympy(m, xs) for m in members if not m.is_zero])
        got = poly_gcd_many(members)
        assert got == int_primitive(got).primitive
        assert same_up_to_scalar(got, HomPoly(nvars, _from_sympy(expect, xs).items()))
        if kind == 1:
            assert got == HomPoly.one(nvars)
        elif kind == 2:
            assert got == int_primitive(g).primitive


@pytest.mark.parametrize("p", [2**61 - 1, 31])
def test_univariate_modp_gcd_matches_sympy(p):
    """The monic gcd over GF(p) against sympy's: for each degree 0..60 of the
    first member, a random pair, mostly coprime, and from degree 1 a pair
    with a planted common factor."""
    rng = random.Random(p)
    x = sympy.Symbol("x")

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def gf(u):
        return sympy.Poly(u[::-1], x, modulus=p)

    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
        return out

    coprime = 0
    for deg in range(61):
        pairs = [(rand(deg), rand(rng.randint(0, 60)))]
        if deg:
            g = rand(k := rng.randint(1, deg))
            pairs.append((mul(g, rand(deg - k)), mul(g, rand(rng.randint(0, 20)))))
        for u, v in pairs:
            want = [int(c) % p for c in gf(u).gcd(gf(v)).monic().all_coeffs()[::-1]]
            assert polycore._modp_gcd(u, v, p) == want
            assert polycore._modp_gcd(v, u, p) == want
            coprime += want == [1]
    assert coprime >= 55


@pytest.mark.parametrize("nvars", [2, 3])
def test_modp_gcd_with_unlucky_points_matches_sympy(nvars):
    """Mod 31, g * (x_1 + 1) and g * (x_1 + 1 + h) have the gcd g * (x_1 + 1)
    wherever h, a product of 12 linear factors in the last variable,
    vanishes.  Those images must be dropped, or restart the interpolation,
    for the result to be g.  When every point drawn is such a root, which
    so small a prime allows, the result is g * (x_1 + 1), never a mixture.
    A third member g * (x_1 + 1 + h * x_last) has the same unlucky points.

    g has degree at least 3 in x_last, so the engine interpolates at N >= 4
    distinct points, and at most N - 1 values of x_last are skipped as zeros
    of its leading coefficient gcd or of g.  It returns g * (x_1 + 1) only when its
    first N points are all roots of h, which happens with probability at
    most C(12, 4) / C(28, 4) < 0.0242 in each trial, whatever came before.
    So more than 6 such trials of 40 has probability below 4.5e-5 for each
    of the two gcds.  An engine that never restarts on a smaller monomial
    keeps its first point's, which is a root of h about 12/31 of the time,
    and stays within 6 of 40 with probability about 1e-3."""
    p = 31
    # the engine's generator outlives a call: start it afresh, so that the
    # points drawn here do not depend on the tests run before
    polycore._point_rng.cache_clear()
    rng = random.Random(5000 + nvars)
    xs = _symbols(nvars)
    one, last = (0,) * nvars, (0,) * (nvars - 1) + (1,)
    x1 = {(1,) + one[1:]: 1, one: 1}

    def modp(d):
        return {e: int(c) % p for e, c in d.items() if int(c) % p}

    def linears(var, count):
        out = {one: 1}
        for r in rng.sample(range(p), count):
            out = _dmul(out, {var: 1, one: -r})
        return out

    unlucky = unlucky3 = 0
    for _ in range(40):
        h = linears(last, 12)
        g = {e[:-1]: c for e, c in random_hompoly(rng, nvars + 1, rng.randint(1, 2), 3, 30).terms}
        g = modp(_dmul(g, linears(last, 3)))
        a, b = modp(_dmul(g, x1)), modp(_dmul(g, _dadd(x1, h)))
        third = modp(_dmul(g, _dadd(x1, _dmul(h, {last: 1}))))
        # before sympy, which rewrites the dicts
        got, got3 = _modp_gcd_mv([a, b], p), _modp_gcd_mv([a, b, third], p)
        ref = sympy.Poly.from_dict(a, *xs, modulus=p).gcd(sympy.Poly.from_dict(b, *xs, modulus=p))
        ref3 = ref.gcd(sympy.Poly.from_dict(third, *xs, modulus=p))
        x1_poly = sympy.Poly(xs[0] + 1, *xs, modulus=p)
        for out, q in ((got, ref), (got3, ref3)):
            assert out in (modp(q.monic().as_dict()), modp((q * x1_poly).monic().as_dict()))
        unlucky += got != modp(ref.monic().as_dict())
        unlucky3 += got3 != modp(ref3.monic().as_dict())
    assert unlucky <= 6 and unlucky3 <= 6
    # g = c(x_1) * x_last + x_1^21 drops to degree 0 in x_last at the 20
    # roots of c among the 31 values of x_1: the degree probe skips them
    for _ in range(10):
        c = linears((1,) + one[1:], 20)
        g = modp(_dadd(_dmul(c, {last: 1}), {(21,) + one[1:]: 1}))
        a, b = modp(_dmul(g, x1)), modp(_dmul(g, {last: 1, one: 2}))
        third = modp(_dmul(g, {last: 1, one: 5}))
        inv = pow(g[max(g)], -1, p)
        monic = {e: c * inv % p for e, c in g.items()}
        assert _modp_gcd_mv([a, b], p) == monic
        assert _modp_gcd_mv([a, b, third], p) == monic


@pytest.fixture
def routes(monkeypatch):
    """The answers of `_coprime_image` and the count of engine runs, through spies."""
    seen = {"image": [], "engine": 0}
    image, engine = polycore._coprime_image, polycore._modular_gcd

    def spy_image(members):
        seen["image"].append(image(members))
        return seen["image"][-1]

    def spy_engine(members):
        seen["engine"] += 1
        return engine(members)

    monkeypatch.setattr(polycore, "_coprime_image", spy_image)
    monkeypatch.setattr(polycore, "_modular_gcd", spy_engine)
    return seen


def _gcd_families(nvars):
    """16 seeded member lists in nvars variables, of four kinds in turn."""
    rng = random.Random(6000 + nvars)
    for i in range(16):
        kind = i % 4
        members = [_random_form(rng, nvars, rng.randint(1, 3), 5) for _ in range(rng.randint(2, 4))]
        if kind == 1:  # a planted common factor that is not a monomial
            g = HomPoly.zero(nvars)
            while len(g.terms) < 2:
                g = _random_form(rng, nvars, rng.randint(1, 2), 3)
            members = [g * m for m in members]
        elif kind == 2:  # monomial content, in part shared
            members = [
                m * HomPoly.monomial(nvars, [rng.randint(0, 2) for _ in range(nvars)]) for m in members
            ]
        elif kind == 3:  # a member that is a multiple of another
            members.append(members[0] * _random_form(rng, nvars, 1, 3))
        yield members


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_image_and_engine_match_sympy(routes, nvars):
    xs = _symbols(nvars)
    for members in _gcd_families(nvars):
        expect = sympy.gcd_list([_to_sympy(m, xs) for m in members])
        got = poly_gcd_many(members)
        assert got == int_primitive(got).primitive
        assert same_up_to_scalar(got, HomPoly(nvars, _from_sympy(expect, xs).items()))
    # both routes ran: the image proved some gcds constant, and the engine
    # decided the planted ones, which the image cannot
    decided = sum(routes["image"])
    assert decided >= 4 and routes["engine"] >= 4
    assert decided + routes["engine"] == len(routes["image"])


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_cofactors_are_the_quotients(nvars):
    # the members of the test above, with a zero member at either end: each
    # cofactor is the member divided by the gcd, as exact_div and sympy
    # divide it, and a coprime family is its own cofactors, not copies
    xs = _symbols(nvars)
    zero = HomPoly.zero(nvars)
    for i, members in enumerate(_gcd_families(nvars)):
        members = [zero, *members] if i % 2 else [*members, zero]
        G, cofactors = _gcd_cofactors(members)
        assert G == poly_gcd_many(members)
        assert len(cofactors) == len(members)
        for m, q in zip(members, cofactors):
            assert G * q == m
            if G.degree == 0:
                assert q is m
            if m.is_zero:
                assert q.is_zero
                continue
            assert q == exact_div(m, G)
            quo, rem = sympy.div(_to_sympy(m, xs), _to_sympy(G, xs), *xs)
            assert rem == 0
            _assert_same(q, quo, xs)


def test_image_takes_a_pure_power_prime_to_p():
    # G's x-coefficient is p = 2^61 - 1, so its image in x over GF(p) would be
    # a constant, and the members' images in x could be coprime; each
    # member's x^3 coefficient is p, so only y may carry the image
    p = (1 << 61) - 1
    x, y, z = (HomPoly.variable(3, i) for i in range(3))
    G = p * x + y
    a, b = G * (x * x + y * y + z * z), G * (x * y + 2 * z * z + y * y)
    assert poly_gcd_many([a, b]) == G
    assert poly_gcd(b, a) == G


def test_image_declines_without_a_pure_power(routes):
    # every term has two variables, and so does every term of a product of
    # such forms: no member has a pure power, so one image in z and one in
    # w prove q and r1 coprime, and the planted factor goes to the engine
    q, r1, r2 = P("z*w + w*t + 2*z*t"), P("z*w - 3*w*t + z*t"), P("2*z*w + w*t - z*t")
    assert poly_gcd(q, r1) == HomPoly.one(3)
    assert poly_gcd_many([q * r1, q * r2, q * r1 * r2]) == q
    assert routes["image"] == [True, False] and routes["engine"] == 1


def _no_pure_power_form(rng, nvars, degree):
    """A form of the degree, at least 2, with two or more terms and no pure power."""
    while True:
        terms = [(e, c) for e, c in _int_form(rng, nvars, degree, 9, 6).terms if max(e) < degree]
        if len(terms) >= 2:
            return HomPoly(nvars, terms)


def _no_pure_power_families(nvars):
    """8 seeded member lists in nvars variables, each member a product of
    forms with no pure power, so none has one; the odd ones share a
    planted factor that is not a monomial."""
    rng = random.Random(6100 + nvars)
    for i in range(8):
        members = [
            _no_pure_power_form(rng, nvars, rng.randint(2, 3)) * _no_pure_power_form(rng, nvars, 2)
            for _ in range(rng.randint(2, 3))
        ]
        if i % 2:
            q = _no_pure_power_form(rng, nvars, rng.randint(2, 3))
            members = [q * m for m in members]
        yield members


def _extracting_gcd_inputs():
    """The components of F(F_2) and F(F_3) for the extracting cubic, whose gcds are E_3 and E_4."""
    f = make_map([P("z*w^2 - w^2*t"), P("z*t^2 - w^2*t"), P("z^2*w - w^2*t")])
    liftings = iterate_degrees(f, 3).liftings
    return [[c.compose(liftings[n - 1]) for c in f.components] for n in (3, 4)]


def _permuted(p: HomPoly, order) -> HomPoly:
    """p with x_order[i] renamed x_i."""
    return HomPoly(p.nvars, [(tuple(e[j] for j in order), c) for e, c in p.terms])


_GCD_INPUTS = {
    "families3": lambda: _gcd_families(3),
    "families4": lambda: _gcd_families(4),
    "no_pure_power3": lambda: _no_pure_power_families(3),
    "no_pure_power4": lambda: _no_pure_power_families(4),
    "extracting": _extracting_gcd_inputs,
}


@pytest.mark.parametrize("source", list(_GCD_INPUTS))
def test_gcd_cofactors_agree_in_every_variable_order(source):
    # the engine picks its chart from the first member's exponents, so a
    # renaming of the variables can take another chart; the gcd, signed by
    # its graded-lex leading term, and the cofactors must not move
    for members in _GCD_INPUTS[source]():
        nv = members[0].nvars
        xs = _symbols(nv)
        G, cofactors = _gcd_cofactors(members)
        assert G == int_primitive(G).primitive
        polys = [sympy.Poly(_to_sympy(m, xs), *xs) for m in members]
        expect = functools.reduce(lambda a, b: a.gcd(b), polys)
        assert same_up_to_scalar(G, HomPoly(nv, _from_sympy(expect.as_expr(), xs).items()))
        for order in itertools.permutations(range(nv)):
            back = sorted(range(nv), key=order.__getitem__)
            H, cof = _gcd_cofactors([_permuted(m, order) for m in members])
            assert H == int_primitive(H).primitive
            H, cof = _permuted(H, back), [_permuted(q, back) for q in cof]
            if H != G:  # the leading term of the renamed gcd may carry the other sign
                H, cof = -H, [-q for q in cof]
            assert H == G
            assert cof == list(cofactors)


@pytest.fixture
def univariate_images(monkeypatch):
    """The count of univariate gcd images the modular engine takes, through a spy on `_modp_gcd_mv`."""
    seen = [0]
    image = polycore._modp_gcd_mv

    def spy(polys, p):
        seen[0] += len(next(iter(polys[0]))) == 1
        return image(polys, p)

    monkeypatch.setattr(polycore, "_modp_gcd_mv", spy)
    return seen


def test_extracting_gcd_takes_few_images(routes, univariate_images):
    # in the chart t = 1, with z inner and w evaluated, the gcd of E_4's
    # inputs has a leading coefficient gcd of degree 15 in w, and takes 24
    # images; the chart from the first member's exponents takes 7
    e3, e4 = _extracting_gcd_inputs()
    routes["engine"] = univariate_images[0] = 0
    assert poly_gcd_many(e4).degree == 11
    assert routes["engine"] == 1 and univariate_images[0] <= 8
    univariate_images[0] = 0
    assert poly_gcd_many(e3) == P("z^2*w*t^2 - z*w^3*t - z*w*t^3 + w^3*t^2")
    assert univariate_images[0] <= 4


@pytest.mark.parametrize("nvars", [3, 4])
def test_image_never_proves_a_planted_factor_coprime(routes, nvars):
    for members in itertools.islice(_no_pure_power_families(nvars), 1, None, 2):
        poly_gcd_many(members)
    assert routes["image"] == [False] * 4 and routes["engine"] == 4


class _Ones(random.Random):
    """A point generator that draws 1 every time."""

    def randrange(self, *args):
        return 1


def test_image_declines_where_the_leading_coefficients_vanish(monkeypatch):
    # G's leading coefficients are w - t in z and z - t in w, and a member's
    # are G's times a form: at w = t = 1 and at z = t = 1 every member's
    # vanishes, G's image is the constant 1, and the members' images are
    # coprime, so only the degree check keeps the images from proving G = 1
    G = P("z*w - z*t - w*t + 2*t^2")
    members = [G * P("z*w + 2*w*t - z*t"), G * P("3*z*w - w*t + 2*z*t")]
    dicts, p = [dict(m.terms) for m in members], (1 << 61) - 1
    for j in (0, 1):
        images = [polycore._specialize_univar(d, j, {i: 1 for i in range(3) if i != j}, p) for d in dicts]
        assert not any(u[-1] for u in images)
        assert len(polycore._modp_content(images, p)) == 1
    with monkeypatch.context() as patched:
        patched.setattr(polycore, "_point_rng", lambda p: _Ones())
        assert polycore._coprime_image(dicts) is False
    assert poly_gcd_many(members) == G


def test_stable_map_quotients_are_proved_coprime_by_images(routes):
    # past step 1 each step divides by the hint H(F_{n-2}), and the quotients,
    # which have no pure power, are proved coprime without the engine
    f = make_map([P("z^2*t + z*w^2 - 2*w^2*t"), P("z^2*w + z*t^2 - 2*w^2*t"), P("2*z*w*t - 2*w^2*t")])
    routes["image"].clear()
    assert iterate_degrees(f, 4).degrees == (1, 3, 8, 21, 55)
    assert routes["image"] == [True] * 4 and routes["engine"] == 0


@pytest.fixture
def primes(monkeypatch):
    """The distinct primes the modular engine worked at, in order, through a spy on `_modp_gcd_mv`."""
    seen = []
    image = polycore._modp_gcd_mv

    def spy(polys, p):
        if p not in seen:
            seen.append(p)
        return image(polys, p)

    monkeypatch.setattr(polycore, "_modp_gcd_mv", spy)
    return seen


def test_engine_proves_a_small_gcd_on_its_first_prime(routes, primes):
    # as in test_image_declines_without_a_pure_power, the engine decides; the
    # gcd's coefficients are small against 2^61 - 1, so the first image's
    # candidate divides every member and the run ends there
    q, r1, r2 = P("z*w + w*t + 2*z*t"), P("z*w - 3*w*t + z*t"), P("2*z*w + w*t - z*t")
    members = [q * r1, q * r2, q * r1 * r2]
    assert poly_gcd_many(members) == q
    assert routes["engine"] == 1 and primes == [(1 << 61) - 1]
    xs = _symbols(3)
    expect = sympy.gcd_list([_to_sympy(m, xs) for m in members])
    assert same_up_to_scalar(q, HomPoly(3, _from_sympy(expect, xs).items()))


def test_engine_goes_on_past_a_candidate_too_large_for_one_prime(routes, primes):
    # q's coefficient 2^70 + 3 does not fit the symmetric range mod 2^61 - 1:
    # one image gives a wrong candidate, and further primes give q exactly
    q = P(f"z + {2**70 + 3}*w - 3*t")
    rng = random.Random(4242)
    members = [q * _int_form(rng, 3, 3, 9, 6) for _ in range(3)]
    got = poly_gcd_many(members)
    assert got == q
    assert routes["engine"] == 1 and len(primes) > 1
    xs = _symbols(3)
    expect = sympy.gcd_list([_to_sympy(m, xs) for m in members])
    assert same_up_to_scalar(got, HomPoly(3, _from_sympy(expect, xs).items()))


def test_is_prime_matches_sympy():
    # strong pseudoprimes to the bases 2..7, 2..13 and 2..23, then Carmichael
    # numbers (6k+1)(12k+1)(18k+1) with factors above 37, where a witness can
    # reach 1 without passing n - 1
    hard = [3215031751, 3474749660383, 3825123056546413051, 118901521, 2301745249]
    for n in [*range(2000), *range(2**61 - 2000, 2**61 + 2), *hard]:
        assert _is_prime(n) == sympy.isprime(n)


# -- Kronecker-substitution multiply: products of rows ----------------------------


@pytest.fixture
def kronecker(monkeypatch):
    """Record True for each product of rows (`_row_mul`), which only powers and compositions make."""
    calls = []
    row_mul = polycore._row_mul

    def spy(a, b):
        calls.append(True)
        return row_mul(a, b)

    monkeypatch.setattr(polycore, "_row_mul", spy)
    return calls


@pytest.fixture
def rows(monkeypatch):
    """Count the row compositions, and record what each row division returned."""
    seen = {"compose": 0, "div": []}
    compose, div = polycore._row_compose, polycore._row_div

    def compose_spy(*args):
        seen["compose"] += 1
        return compose(*args)

    def div_spy(num, den, width, nvars, s):
        out = div(num, den, width, nvars, s)
        seen["div"].append((out, width, s))
        return out

    monkeypatch.setattr(polycore, "_row_compose", compose_spy)
    monkeypatch.setattr(polycore, "_row_div", div_spy)
    return seen


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(i,) + m for i in range(degree, -1, -1) for m in _monomials(nvars - 1, degree - i)]


def _form(rng, nvars, degree, coeff, count=None):
    """A form on count monomials of the degree (all by default), coefficients coeff(rng)."""
    mons = _monomials(nvars, degree)
    if count is not None:
        mons = rng.sample(mons, count)
    return HomPoly(nvars, [(e, coeff(rng)) for e in mons])


def _signed(bound):
    return lambda rng: rng.choice((-1, 1)) * rng.randint(1, bound)


def _row_product(a: HomPoly, b: HomPoly) -> dict:
    """a * b by one product of rows (`_row_mul`, `_row_decode`), the kernels of powers and compositions.

    Its slots have 2^(8s-1) above min(|a|, |b|) max|a| max|b|, which
    bounds every output coefficient, as at most min(|a|, |b|) term
    pairs meet in one monomial.
    """
    top = a.degree + b.degree
    width = _field_width(top)
    bound = min(len(a.terms), len(b.terms)) * max(abs(c) for _, c in a.terms) * max(abs(c) for _, c in b.terms)
    s = polycore._slot_bytes(bound)
    ra, rb = (polycore._row_ints(_pack_dict(p.as_dict(), width), width, s) for p in (a, b))
    return polycore._row_decode(polycore._row_mul(ra, rb), width, a.nvars, top, s)


def _ring_of(nvars):
    R, *xs = ring(",".join(f"x{i}" for i in range(nvars)), sympy.QQ)
    return R, xs


def _ring_dict(p: HomPoly) -> dict:
    return {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms}


def _in_ring(R, p: HomPoly):
    return R(_ring_dict(p))


def test_products_match_rows_and_sympy():
    rng = random.Random(61)
    # 40 x 50 and 40 x 49 term pairs in three variables
    a = _form(rng, 3, 8, _signed(2**18), 40)
    b = _form(rng, 3, 9, _signed(2**18), 50)
    for other in (b, HomPoly(3, b.terms[1:])):
        assert (a * other).as_dict() == _row_product(a, other)
    # mixed signs above 2^64 in 231 x 231 terms: 27-byte slots
    for _ in range(3):
        a = _form(rng, 3, 20, _signed(2**100))
        b = _form(rng, 3, 20, _signed(2**70))
        assert (a * b).as_dict() == _row_product(a, b)
    # five variables: full forms of degree 6 fill 84 rows of up to 7 slots
    # each; sparse forms have about one term a row
    R, _ = _ring_of(5)
    dense = [_form(rng, 5, 6, _signed(2**40)) for _ in range(2)]
    sparse = [_form(rng, 5, 12, _signed(9), 60) for _ in range(2)]
    for a, b in (dense, sparse):
        assert (a * b).as_dict() == _row_product(a, b)
        assert _ring_dict(a * b) == dict(_in_ring(R, a) * _in_ring(R, b))


@pytest.mark.parametrize("bits", [63, 64])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_kronecker_output_at_the_slot_bound(signs, bits):
    # a has every monomial of degree 8, so every one of its 45 terms meets
    # z^8*w^8*t^8 in b's degree 16: that coefficient is 45 * c^2, the bound
    # _row_product takes the slot width from.  With 63 bits it fills
    # 8-byte slots up to the sign bit; with 64 bits the sign bit needs a
    # ninth byte
    c = math.isqrt((2**bits - 1) // 45)
    a = _form(None, 3, 8, lambda _: signs[0] * c)
    b = _form(None, 3, 16, lambda _: signs[1] * c)
    assert (45 * c * c).bit_length() == bits
    assert (a * b).as_dict() == _row_product(a, b)
    assert (a * b).as_dict()[(8, 8, 8)] == signs[0] * signs[1] * 45 * c * c
    R, _ = _ring_of(3)
    assert _ring_dict(a * b) == dict(_in_ring(R, a) * _in_ring(R, b))


def test_product_drops_cancelled_terms():
    # f(z, w, t) * f(z, -w, t) is even in w: every odd power of w cancels,
    # on the term loop and on rows
    rng = random.Random(62)
    f = _form(rng, 3, 20, _signed(2**80))
    g = HomPoly(3, [(e, -c if e[1] % 2 else c) for e, c in f.terms])
    fg = f * g
    assert fg.as_dict() == _row_product(f, g)
    assert fg.terms and all(e[1] % 2 == 0 for e, _ in fg.terms)
    R, _ = _ring_of(3)
    assert _ring_dict(fg) == dict(_in_ring(R, f) * _in_ring(R, g))


def test_kronecker_with_a_one_term_operand(kronecker):
    # _dmul shifts the keys of a full binary form of degree 2000 by a
    # constant or by a one-term operand of positive degree; as rows, that
    # operand is one row with one nonzero slot, whose empty low slots
    # _row_mul shifts back onto the product
    rng = random.Random(63)
    b = _form(rng, 2, 2000, _signed(9))
    for a in (HomPoly.constant(2, -7), HomPoly.monomial(2, (1, 0), 3), HomPoly.monomial(2, (0, 5), -2)):
        kronecker.clear()
        ab = (a * b).as_dict()
        assert kronecker == []
        assert _row_product(a, b) == _row_product(b, a) == ab
        assert a * b == HomPoly(2, [((e0 + x0, e1 + x1), c * d) for (e0, e1), c in a.terms
                                    for (x0, x1), d in b.terms])
    # a power of a one-term form, and a form composed with one-term substitutes, on rows
    kronecker.clear()
    m = HomPoly.monomial(4, (2, 0, 1, 0), -3)
    assert m**7 == HomPoly.monomial(4, (14, 0, 7, 0), (-3) ** 7) and kronecker
    kronecker.clear()
    p = _form(rng, 4, 5, _signed(2**40), 30)
    qs = [HomPoly.monomial(4, e, c) for e, c in
          (((1, 1, 0, 0), 2), ((0, 0, 2, 0), -5), ((0, 2, 0, 0), 7), ((0, 0, 0, 2), 1))]
    assert _ring_dict(p.compose(qs)) == _ring_compose(p, qs) and kronecker


def test_fraction_operand_stays_on_the_loop(kronecker):
    rng = random.Random(64)
    a = _form(rng, 3, 20, _signed(2**70))
    b = _form(rng, 3, 20, _signed(9))
    b = HomPoly(3, b.terms[1:] + ((b.terms[0][0], Fraction(1, 3)),))
    ab = a * b
    assert kronecker == []
    R, _ = _ring_of(3)
    assert _ring_dict(ab) == dict(_in_ring(R, a) * _in_ring(R, b))


def test_inhomogeneous_product_is_the_sum_of_its_parts():
    rng = random.Random(65)
    a = _form(rng, 3, 20, _signed(9))
    b = _form(rng, 3, 20, _signed(9))
    # degrees 20 and 1, as the gcd code builds them
    u = a.as_dict() | {(1, 0, 0): 1}
    assert _dmul(u, b.as_dict()) == _dadd((a * b).as_dict(), (P("z") * b).as_dict())


@pytest.mark.parametrize(
    "nvars, many_term_form, shape",
    [
        # (degree, terms, coefficient bound) of the form, then of its substitutes;
        # many_term_form when the form has more terms than every substitute
        (3, True, ((6, None, 2**70), (3, None, 30))),
        (3, False, ((9, 2, 2**70), (4, None, 30))),
        (4, True, ((4, None, 3), (5, 30, 2))),
        (4, False, ((6, 3, 9), (3, None, 3))),
        # sparse forms in five variables, spread over many rows
        (5, True, ((4, 40, 2**70), (3, 4, 9))),
        (5, False, ((3, 2, 9), (4, 25, 2**30))),
    ],
)
def test_compose_through_kronecker_matches_sympy(kronecker, rows, nvars, many_term_form, shape):
    # every int form runs Horner's rule on rows, many-term or not, and
    # multiplies by powers of the substitutes as products of rows
    rng = random.Random(65 + nvars)
    (pd, pn, pb), (qd, qn, qb) = shape
    p = _form(rng, nvars, pd, _signed(pb), pn)
    qs = [_form(rng, nvars, qd, _signed(qb), qn) for _ in range(nvars)]
    assert (len(p.terms) > max(len(q.terms) for q in qs)) == many_term_form
    got = p.compose(qs)
    assert rows["compose"] == 1 and kronecker
    R, xs = _ring_of(nvars)
    want = _in_ring(R, p).compose(list(zip(xs, (_in_ring(R, q) for q in qs))))
    assert _ring_dict(got) == dict(want)


def test_pow_takes_the_kronecker_route(kronecker):
    rng = random.Random(66)
    a = _form(rng, 3, 5, _signed(9))
    R, _ = _ring_of(3)
    assert _ring_dict(a**9) == dict(_in_ring(R, a) ** 9)
    assert kronecker
    # a full form in five variables, and a sparse one spread over many rows
    for b in (_form(rng, 5, 2, _signed(2**30)), _form(rng, 5, 6, _signed(2**40), 5)):
        kronecker.clear()
        R, _ = _ring_of(5)
        assert _ring_dict(b**5) == dict(_in_ring(R, b) ** 5) and kronecker
    # (F/den)^n is F^n/den^n on rows; a one-variable power is one term, off the rows
    R, _ = _ring_of(3)
    R1, _ = _ring_of(1)
    frac = _form(rng, 3, 3, lambda rng: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)), 6)
    line = HomPoly(1, [((2,), Fraction(-7, 3))])
    for n in range(7):
        kronecker.clear()
        assert _ring_dict(frac**n) == dict(_in_ring(R, frac) ** n)
        assert bool(kronecker) == (n > 1)
        kronecker.clear()
        assert _ring_dict(line**n) == dict(_in_ring(R1, line) ** n) and not kronecker


def test_pow_term_cap():
    old = get_term_cap()
    set_term_cap(50)
    try:
        # a monomial power has one term whatever its degree
        assert P("z") ** 1000 == HomPoly.monomial(3, (1000, 0, 0))
        # 41 multisets of 40 terms of z + w, though degree 40 allows 861 monomials
        assert ((P("z") + P("w")) ** 40).term_count == 41
        # degree 12 in 3 variables allows 91 monomials
        with pytest.raises(ResourceLimit):
            _ = P("z + w + t") ** 12
    finally:
        set_term_cap(old)


# -- row kernels -------------------------------------------------------------------


def _int_form(rng, nvars, degree, bound, count):
    """A form on up to count monomials of the degree, int coefficients up to bound."""
    return _form(rng, nvars, degree, _signed(bound), min(count, len(_monomials(nvars, degree))))


def _ring_compose(p: HomPoly, qs):
    R, xs = _ring_of(p.nvars)
    return dict(_in_ring(R, p).compose(list(zip(xs, (_in_ring(R, q) for q in qs)))))


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_row_compose_matches_sympy(rows, nvars):
    rng = random.Random(70 + nvars)
    for degree, bound in ((4, 9), (3, 2**80)):
        p = _int_form(rng, nvars, degree, bound, 40)
        qs = [_int_form(rng, nvars, 2, bound, 3) for _ in range(nvars)]
        assert len(p.terms) > 3
        assert _ring_dict(p.compose(qs)) == _ring_compose(p, qs)
    assert rows["compose"] == 2


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_row_compose_cancels_terms_and_takes_zero_substitutes(rows, nvars):
    rng = random.Random(75 + nvars)
    x0, x1 = HomPoly.variable(nvars, 0), HomPoly.variable(nvars, 1)
    # (x0 - x1) g vanishes when q_0 = q_1, and is -m g(q) when q_1 = q_0 + m
    p = (x0 - x1) * _int_form(rng, nvars, 3, 2**40, 20)
    q = _int_form(rng, nvars, 2, 5, 2)
    m = HomPoly.monomial(nvars, (0,) * (nvars - 1) + (2,), 3)
    others = [_int_form(rng, nvars, 2, 5, 2) for _ in range(nvars - 2)]
    assert p.compose([q, q, *others]).is_zero
    cases = [[q, q + m, *others]]
    for j in range(nvars):
        cases.append([HomPoly.zero(nvars) if i == j else s for i, s in enumerate(cases[0])])
    for qs in cases:
        assert _ring_dict(p.compose(qs)) == _ring_compose(p, qs)
    assert rows["compose"] == 2 + nvars


def test_row_compose_holds_a_substitute_that_no_form_involves(rows):
    # the forms leave out x_1, so their bound B ignores q_1, whose
    # coefficients near 10^20 still need slots wide enough to hold them
    x0, x2 = HomPoly.variable(3, 0), HomPoly.variable(3, 2)
    forms = (x0 * x0 - x0 * x2 * 3, HomPoly.constant(3, 2), x2)
    qs = [P("z + w"), P("z") * 10**20 - P("t") * (10**20 + 1), P("w - 2*t")]
    got = compose_all(forms, qs)
    assert rows["compose"] == 1
    assert [_ring_dict(g) for g in got] == [_ring_compose(f, qs) for f in forms]


def test_row_compose_scales_fraction_coefficients_to_int_rows(rows):
    # a Fraction form or substitute is scaled to an int one and composed
    # on rows like any int form: one row pass a call
    rng = random.Random(79)
    p = _int_form(rng, 3, 4, 9, 15)
    qs = [_int_form(rng, 3, 2, 9, 3) for _ in range(3)]
    third = HomPoly(3, [(e, Fraction(c, 3)) for e, c in qs[0].terms])
    for n, (p2, qs2) in enumerate(((p * Fraction(1, 2), qs), (p, [third, *qs[1:]]), (p, qs)), 1):
        assert _ring_dict(p2.compose(qs2)) == _ring_compose(p2, qs2)
        assert rows["compose"] == n


def _ring_div(num: HomPoly, den: HomPoly):
    """The quotient by sympy's division, or None when it leaves a remainder."""
    R, _ = _ring_of(num.nvars)
    q, r = _in_ring(R, num).div(_in_ring(R, den))
    return None if r else dict(q)


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_row_div_matches_sympy(rows, nvars):
    rng = random.Random(80 + nvars)
    for _ in range(4):
        a = _int_form(rng, nvars, rng.randint(1, 4), 2**30, 12)
        b = int_primitive(_int_form(rng, nvars, rng.randint(1, 3), 2**20, 6)).primitive
        c = _int_form(rng, nvars, a.degree + b.degree, 9, 3)
        assert _ring_div(a * b, b) == _ring_dict(a) == _ring_dict(exact_div(a * b, b))
        assert _ring_div(a * b + c, b) is None
        with pytest.raises(NotDivisible):
            exact_div(a * b + c, b)
    # every division was decided over rows: found, then refuted
    assert [out is not None for out, *_ in rows["div"]] == [True, False] * 4


def test_row_div_takes_fractions_and_non_primitive_divisors(rows):
    rng = random.Random(85)
    a = _int_form(rng, 3, 3, 2**30, 10)
    b = int_primitive(_int_form(rng, 3, 2, 2**20, 6)).primitive
    half = a * Fraction(1, 2)
    for num, den in (
        (half * b, b),  # a Fraction in the dividend
        (a * b, b * Fraction(1, 3)),  # and in the divisor
        (a * b, b * 2),  # a divisor with content 2
        (a * 3, HomPoly.constant(3, 3)),  # of degree 0
        (a, HomPoly.constant(3, -1)),
    ):
        rows["div"].clear()
        assert _ring_dict(exact_div(num, den)) == _ring_div(num, den)
        # the primitive parts divide in one row pass
        [(out, _, _)] = rows["div"]
        assert out is not None


def test_row_div_decides_the_borrow_cases(rows):
    for num, den in BORROW_CASES:
        rows["div"].clear()
        assert _dexact_div(P(num).as_dict(), P(den).as_dict()) is None
        assert [out for out, *_ in rows["div"]] == [None]


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_row_div_falls_back_on_a_quotient_too_wide_for_its_slots(rows, nvars):
    # num = (u^200 - v^200)^2 and den = (u - v)^2 have coefficients up to 2,
    # so the first rows get one-byte slots, but the quotient
    # (u^199 + .. + v^199)^2 has coefficients up to 200: its rows decode to
    # a wrong form, which the bound check refuses, and the second pass,
    # with slots for any factor of num, decodes it
    u, v = HomPoly.variable(nvars, 0), HomPoly.variable(nvars, nvars - 1)
    geometric = HomPoly(nvars, [((199 - i,) + (0,) * (nvars - 2) + (i,), 1) for i in range(200)])
    num, den = (u**200 - v**200) ** 2, (u - v) ** 2
    q = exact_div(num, den)
    assert q == geometric**2 and max(c for _, c in q.terms) == 200
    [(first, width, s), (second, _, wide)] = rows["div"]
    assert s == 1 and first is not None
    assert polycore._row_decode(first, width, nvars, q.degree, s) != q.as_dict()
    assert wide > 1 and polycore._row_decode(second, width, nvars, q.degree, wide) == q.as_dict()


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_row_div_with_a_forced_narrow_slot(rows, monkeypatch, nvars):
    # one-byte first slots hold num = (x_0 - x_{n-1}) a, whose coefficients
    # are differences of a's and at most 250, but not the quotient a, whose
    # coefficients are 150 .. 250: its rows are refused, and the second pass
    # divides
    slot_bytes, first = polycore._slot_bytes, []

    def narrow_first(bound):
        return 1 if first and first.pop() else slot_bytes(bound)

    def divide(num, den):
        rows["div"].clear()
        first.append(True)
        return exact_div(num, den)

    monkeypatch.setattr(polycore, "_slot_bytes", narrow_first)
    rng = random.Random(90 + nvars)
    den = HomPoly.variable(nvars, 0) - HomPoly.variable(nvars, nvars - 1)
    for _ in range(3):
        degree = rng.randint(2, 4)
        count = min(12, len(_monomials(nvars, degree)))
        a = _form(rng, nvars, degree, lambda r: r.randint(150, 250), count)
        c = _int_form(rng, nvars, degree + 1, 3, 2)
        assert max(abs(v) for _, v in (a * den + c).terms) < 256
        assert divide(a * den, den) == a
        [(out, _, s), (_, _, wide)] = rows["div"]
        assert s == 1 < wide and out is not None
        assert _ring_div(a * den + c, den) is None
        with pytest.raises(NotDivisible):
            divide(a * den + c, den)
        assert rows["div"][0][2] == 1


# -- composition divided on its own rows ---------------------------------------------


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_compose_divide_matches_compose_all_and_exact_div(rows, nvars):
    # forms h*g over substitutes q, divided by the primitive part of h(q):
    # one division on the rows of each composition, in its own slots
    rng = random.Random(110 + nvars)
    for trial in range(3):
        qs = [_int_form(rng, nvars, 2, 9, 4) for _ in range(nvars)]
        h = _int_form(rng, nvars, rng.randint(1, 2), 5, 3)
        forms = [h * _int_form(rng, nvars, rng.randint(1, 2), 9, 6) for _ in range(3)]
        den = int_primitive(h.compose(qs)).primitive
        rows["div"].clear()
        got, divided = polycore._compose_divide(forms, qs, den)
        assert divided and len(rows["div"]) == 3 and None not in [out for out, *_ in rows["div"]]
        composed = compose_all(forms, qs)
        assert _exact(got) == _exact([exact_div(n, den) for n in composed])
        if trial == 0:
            assert [_ring_dict(q) for q in got] == [_ring_div(n, den) for n in composed]
    # Fraction forms over Fraction substitutes, by den and by a Fraction
    # multiple of it: F(Q) is divided on its rows, one division a form
    fracs = [g * Fraction(1, 2 + i) for i, g in enumerate(forms)]
    qf = [q * Fraction(2, 3) for q in qs]
    composed = compose_all(fracs, qf)
    for d in (den, den * Fraction(-3, 2)):
        rows["div"].clear()
        got, divided = polycore._compose_divide(fracs, qf, d)
        assert divided and len(rows["div"]) == 3
        assert _exact(got) == _exact([exact_div(n, d) for n in composed])


def test_compose_divide_returns_the_compositions_when_the_divisor_does_not_divide(rows):
    rng = random.Random(120)
    qs = [_int_form(rng, 3, 2, 9, 4) for _ in range(3)]
    h = _int_form(rng, 3, 1, 5, 3)
    den = int_primitive(h.compose(qs)).primitive
    # den divides the first composition and not the second
    forms = [h * _int_form(rng, 3, 1, 99, 3), _int_form(rng, 3, 2, 99, 6), h * h]
    composed = compose_all(forms, qs)
    assert _ring_div(composed[1], den) is None
    rows["div"].clear()
    got, divided = polycore._compose_divide(forms, qs, den)
    assert not divided and _exact(got) == _exact(composed)
    # the second is refuted on its rows, with no second division, and the third is never divided
    assert [out is not None for out, *_ in rows["div"]] == [True, False]
    old = get_term_cap()
    set_term_cap(10)
    try:
        with pytest.raises(ResourceLimit):
            polycore._compose_divide(forms, qs, den)
    finally:
        set_term_cap(old)


@pytest.mark.parametrize("nvars", [2, 3])
def test_compose_divide_hands_an_unproved_quotient_to_exact_div(rows, nvars):
    x = [HomPoly.variable(nvars, i) for i in range(nvars)]
    u, v = x[0], x[-1]
    # N = (u - 10^4 v)(u + v) has B = 2 (1 + 10^4), which two-byte slots
    # hold, but B + 2 * 10^4 * ||u + v|| is above 2^15: the quotient decodes
    # and is not proved, and _dexact_div, in slots sized from N, divides
    den = u - v * 10**4
    got, divided = polycore._compose_divide([x[0] * x[1]], [den] + [u + v] * (nvars - 1), den)
    assert divided and got == (u + v,)
    [(fused, _, s), (first, _, wide)] = rows["div"]
    assert fused is not None and first is not None and s == 2 < wide
    # N = (u^200 - v^200)^2 has B = 4 and one-byte slots, and the quotient by
    # (u - v)^2 has coefficients up to 200: neither those slots nor the first
    # pass of _dexact_div hold it, and its second pass, sized for any factor
    # of N, divides
    rows["div"].clear()
    num = u**200 - v**200
    got, divided = polycore._compose_divide([x[0] ** 2], [num] + [u**200] * (nvars - 1), (u - v) ** 2)
    [(_, _, s), (_, _, first), (second, _, wide)] = rows["div"]
    assert s == first == 1 < wide and second is not None
    assert divided and got == (exact_div(num**2, (u - v) ** 2),)


def test_compose_divide_divides_over_one_variable_substitutes():
    # one-variable substitutes are c_i x^d, so each f(q) is one term, which
    # a one-variable divisor divides exactly or not at all
    x = HomPoly.variable(1, 0)
    qs = [x * 2, x * Fraction(-3, 4), HomPoly.zero(1)]
    forms = [P("z^2 - w^2"), P("z*w + t^2") * Fraction(1, 3), P("t^2")]
    composed = compose_all(forms, qs)
    got, divided = polycore._compose_divide(forms, qs, x * 5)
    assert divided and got == tuple(exact_div(p, x * 5) for p in composed)
    assert polycore._compose_divide(forms, qs, x**3) == (composed, False)


# -- one-pass composition of several forms -----------------------------------------


def _exact(polys):
    """Each polynomial's terms with the type of each coefficient, for a term-for-term comparison."""
    return [[(e, type(c), c) for e, c in p.terms] for p in polys]


def _one_by_one(forms, subs):
    return tuple(f.compose(subs) for f in forms)


@pytest.fixture(scope="module")
def maps():
    """The stable cubic with its depth-3 lifting, and a quartic family map with its depth-2 one.

    The quartic's depth-3 lifting has 1586 terms a component, and one
    composition with it takes most of a minute.
    """
    stable = make_map([P("z^2*t + z*w^2 - 2*w^2*t"), P("z^2*w + z*t^2 - 2*w^2*t"),
                       P("2*z*w*t - 2*w^2*t")])
    quartic = random_family(1, 3, 5, 0).map
    return [(stable, iterate_degrees(stable, 3).lifting(3)),
            (quartic, iterate_degrees(quartic, 2).lifting(2))]


def test_compose_all_of_a_map_over_its_lifting(maps, rows):
    # few-term forms over many-term substitutes: one row pass as well, where
    # the family map's components P*Q_j - R share the terms of R
    for f, lifting in maps:
        got = compose_all(f.components, lifting)
        assert rows["compose"] == 1
        assert _exact(got) == _exact(_one_by_one(f.components, lifting))
        rows["compose"] = 0


def test_compose_all_of_a_lifting_over_its_map(maps, rows):
    # many-term forms over few-term substitutes: one row pass, in slots wide
    # enough for the form with the largest bound; a multiple of a component
    # by 2^100 needs wider slots than the others
    for f, lifting in maps:
        forms = (*lifting, lifting[0] * 2**100)
        norms = [sum(abs(c) for _, c in q.terms) for q in f.components]
        bounds = [sum(abs(c) * math.prod(map(pow, norms, e)) for e, c in g.terms) for g in forms]
        assert len(set(bounds[:3])) > 1 and len({b.bit_length() // 8 for b in bounds}) > 1
        got = compose_all(forms, f.components)
        assert rows["compose"] == 1
        assert _exact(got) == _exact(_one_by_one(forms, f.components))
        rows["compose"] = 0


def test_compose_all_mixes_routes_zero_forms_and_fractions(maps):
    f, lifting = maps[0]
    forms = (lifting[0], HomPoly.zero(3), lifting[1] * Fraction(2, 3), HomPoly.constant(3, -5),
             f.components[2] * Fraction(1, 7))
    got = compose_all(forms, f.components)
    assert got[1] == HomPoly.zero(3) and got[3] == HomPoly.constant(3, -5)
    assert _exact(got) == _exact(_one_by_one(forms, f.components))
    zeros = [HomPoly.zero(2)] * 3
    assert compose_all(forms, zeros) == (HomPoly.zero(2),) * 3 + (HomPoly.constant(2, -5), HomPoly.zero(2))


def test_compose_all_rejects_substitutes_of_mixed_degree(maps):
    f, lifting = maps[0]
    with pytest.raises(DegreeMismatch):
        compose_all(f.components, (lifting[0], lifting[1], P("z")))
    with pytest.raises(ArityMismatch):
        compose_all((f.components[0], HomPoly.variable(2, 0)), lifting)


def test_compose_all_matches_sympy():
    rng = random.Random(3001)
    xs, (y,) = _symbols(3), _symbols(1)
    forms = [_random_form(rng, 3, 3, 6) for _ in range(3)] + [_random_form(rng, 3, 2, 25)]
    ints = [random_hompoly(rng, 3, 3, 8, 9) for _ in range(2)] + [HomPoly.constant(3, 4)]
    qs = [_random_form(rng, 3, 2, 4) for _ in range(3)]
    int_qs = [random_hompoly(rng, 3, 2, 4, 9) for _ in range(3)]
    cases = [
        (forms, qs, xs),
        # int forms over substitutes with denominators 2, 3 and 5
        (ints, [q * Fraction(1, d) for q, d in zip(int_qs, (2, 3, 5))], xs),
        # Fraction forms over int substitutes
        (forms, int_qs, xs),
        # one-variable substitutes c_i y^2, one of them zero
        (forms + ints, [HomPoly(1, [((2,), Fraction(-3, 2))]), HomPoly.zero(1), HomPoly(1, [((2,), 5)])], (y,)),
    ]
    for fs, subs, ys in cases:
        sub = dict(zip(xs, (_to_sympy(q, ys) for q in subs)))
        for got, form in zip(compose_all(fs, subs), fs):
            _assert_same(got, sympy.expand(_to_sympy(form, xs).xreplace(sub)), ys)
