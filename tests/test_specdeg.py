"""Recurrence extension and spectral certification on hand-checked cases.

The quadratic-formula values for (d=3, h=1, n0=1), the closed form
d_n = (1+n) 2^n for the tangent case (4, 4, 1), the partial fraction
of the tangent case (3, 4, 2) and sympy's numeric roots serve as
independent oracles for the root-finding route and the residue fit.
"""

from fractions import Fraction

import pytest
import sympy
from mpmath import mp, mpf, sqrt, workprec

from projdyn import specdeg
from projdyn.cli import _numstr
from projdyn.specdeg import (
    AsymptoticsReport,
    DegenerateLambda,
    DegreeRecurrence,
    InsufficientData,
    NonPositiveDegree,
    PrecisionExhausted,
    char_poly_roots,
    check_asymptotics,
    check_growth_bounds,
    check_sn_identity,
    extend_degrees,
)

S311 = DegreeRecurrence(3, 1, 1)
S441 = DegreeRecurrence(4, 4, 1)
S201 = DegreeRecurrence(2, 0, 1)


@pytest.fixture(autouse=True)
def _dps50():
    old = mp.dps
    mp.dps = 50
    yield
    mp.dps = old


# -- parameter validation ---------------------------------------------------------


@pytest.mark.parametrize("bad", [(1, 1, 1), (3, -1, 1), (3, 1, 0), (2.5, 0, 1)])
def test_recurrence_parameter_validation(bad):
    with pytest.raises(ValueError):
        DegreeRecurrence(*bad)


def test_charpoly_coefficients():
    assert S311.charpoly() == (1, -3, 1)
    assert DegreeRecurrence(5, 5, 2).charpoly() == (1, -5, 0, 5)
    assert S201.charpoly() == (1, -2, 0)


# -- extension --------------------------------------------------------------------


def test_extend_lagged_case():
    assert extend_degrees(S311, 5) == [1, 3, 8, 21, 55, 144]


def test_extend_stable_case():
    assert extend_degrees(S201, 4) == [1, 2, 4, 8, 16]


def test_extend_boundary_uses_initial_segment():
    # first lagged step: d_2 = d*d_1 - h*d_0 = 9 - 1
    assert extend_degrees(S311, 2) == [1, 3, 8]
    # lag two: d_3 = d*d_2 - h*d_0
    assert extend_degrees(DegreeRecurrence(2, 1, 2), 3) == [1, 2, 4, 7]


def test_extend_tangent_closed_form():
    degs = extend_degrees(S441, 12)
    assert degs == [(1 + n) * 2**n for n in range(13)]


def test_extend_rejects_collapse():
    with pytest.raises(NonPositiveDegree):
        extend_degrees(DegreeRecurrence(2, 3, 1), 5)


def test_extend_rejects_negative_length():
    with pytest.raises(ValueError):
        extend_degrees(S311, -1)


def test_extend_zero_length():
    assert extend_degrees(S311, 0) == [1]


# -- spectral certification --------------------------------------------------------


def test_dominant_root_vs_quadratic_formula():
    rep = char_poly_roots(S311, 128)
    oracle = (3 + sqrt(5)) / 2
    assert abs(rep.lambda_ - oracle) < mpf(10) ** -30
    assert rep.r == 1
    assert abs(rep.rho - (3 - sqrt(5)) / (3 + sqrt(5))) < mpf(10) ** -30
    assert rep.charpoly == (1, -3, 1)
    assert rep.precision_bits == 128


def test_subexponential_coefficient_vs_formula():
    rep = char_poly_roots(S311, 128)
    assert len(rep.Q_fit) == 1
    assert abs(rep.Q_fit[0] - (3 + sqrt(5)) / (2 * sqrt(5))) < mpf(10) ** -30


def test_double_root_at_one_is_degenerate():
    with pytest.raises(DegenerateLambda):
        char_poly_roots(DegreeRecurrence(2, 1, 1), 128)


@pytest.mark.parametrize("d, h, n0, viable", [
    (2, 1, 1, False),  # (t - 1)^2
    (2, 2, 2, False),
    (2, 5, 1, False),
    (3, 2, 1, True),  # (t - 1)(t - 2)
    (3, 1, 1, True),
    (2, 0, 1, True),  # h = 0: t (t - d) for every d >= 2
    (4, 4, 1, True),  # the double root 2
])
def test_check_viable_is_the_char_poly_roots_gate(d, h, n0, viable):
    spec = DegreeRecurrence(d, h, n0)
    if viable:
        spec.check_viable()
        assert char_poly_roots(spec, 64).lambda_ > 1
        return
    for call in (spec.check_viable, lambda: char_poly_roots(spec, 64)):
        with pytest.raises(DegenerateLambda, match="no real root above 1"):
            call()


def test_complex_dominant_pair_is_degenerate():
    # t^3 - 2t^2 + 2 has its largest-modulus roots off the real axis
    with pytest.raises(DegenerateLambda):
        char_poly_roots(DegreeRecurrence(2, 2, 2), 128)


def test_root_at_one_with_dominant_above():
    # P(1) = 0 here, yet the dominant root is 2; the exact decision
    # must not reject on the sign of P(1) alone
    rep = char_poly_roots(DegreeRecurrence(3, 2, 1), 128)
    assert abs(rep.lambda_ - 2) < mpf(10) ** -30
    assert rep.r == 1
    assert abs(rep.rho - mpf(1) / 2) < mpf(10) ** -30


def test_positive_p_at_one_with_dominant_above():
    # P(1) = 1 > 0 while two real roots exceed 1
    spec = DegreeRecurrence(5, 5, 2)
    rep = char_poly_roots(spec, 128)
    lam = rep.lambda_
    assert lam > mpf("4.78") and lam < mpf("4.79")
    assert abs(lam**3 - 5 * lam**2 + 5) < mpf(10) ** -30
    assert rep.r == 1
    # independent Newton refinement from a seed past the root
    newton = mp.findroot(lambda t: t**3 - 5 * t**2 + 5, mpf(5))
    assert abs(lam - newton) < mpf(10) ** -30


def test_tangent_double_root():
    cases = (
        (S441, Fraction(0), (Fraction(1), Fraction(1))),
        # P = (t - 2)^2 (t + 1): the partial fraction of 1/((1 - 2x)^2 (1 + x))
        # is (2/3)/(1 - 2x)^2 + (2/9)/(1 - 2x) + (1/9)/(1 + x)
        (DegreeRecurrence(3, 4, 2), Fraction(1, 2), (Fraction(8, 9), Fraction(2, 3))),
    )
    for spec, rho, q in cases:
        rep = char_poly_roots(spec, 128)
        assert rep.lambda_ == 2
        assert rep.r == 2
        assert rep.rho == mpf(rho.numerator) / rho.denominator
        assert len(rep.Q_fit) == 2
        for got, want in zip(rep.Q_fit, q):
            assert abs(got - mpf(want.numerator) / want.denominator) < mpf(10) ** -30


def test_stable_case_spectrum():
    rep = char_poly_roots(S201, 128)
    assert rep.lambda_ == 2
    assert rep.r == 1
    assert rep.rho == 0
    assert rep.Q_fit == (mpf(1),)


def test_precision_floor():
    with pytest.raises(ValueError):
        char_poly_roots(S311, 32)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("sign", [1, -1])
def test_lambda_outside_the_proved_bracket_is_refused(monkeypatch, bits, sign):
    # a lambda off by a relative 2^-(p/2) from the Newton stage, which
    # starts at x = 0 for it, is refused by the exact sign check of P around it
    newton = specdeg._newton

    def shifted(spec, x):
        t = newton(spec, x)
        return t * (1 + sign * mpf(2) ** -(bits // 2)) if x == 0 else t

    monkeypatch.setattr(specdeg, "_newton", shifted)
    with pytest.raises(PrecisionExhausted):
        char_poly_roots(S311, bits)


def test_q_fit_ignores_the_subdominant_roots(monkeypatch):
    # Q_fit is the residue at 1/lambda: moving lambda2, which the Newton
    # stage finds from a start x > 0, by a relative 2^-(3p/2), inside its
    # proved bracket, moves rho but leaves Q_fit, lambda, r and both bracket proofs
    spec, bits = DegreeRecurrence(5, 2, 3), 128
    want = char_poly_roots(spec, bits)
    newton = specdeg._newton

    def moved(spec, x):
        t = newton(spec, x)
        return t if x == 0 else t * (1 + mpf(2) ** -(3 * bits // 2))

    monkeypatch.setattr(specdeg, "_newton", moved)
    rep = char_poly_roots(spec, bits)
    assert rep.lambda_ == want.lambda_ and rep.r == want.r == 1
    assert rep.rho != want.rho
    assert abs(rep.Q_fit[0] - want.Q_fit[0]) < mpf(10) ** -30


@pytest.mark.parametrize("d, h, n0", [
    (3, 1, 1),
    (3, 2, 1),  # lambda2 = 1
    (5, 7, 4),
    (6, 39, 3),
    (3, 7, 10),
    (4, 4, 1),  # tangent cases from here on
    (3, 4, 2),
    (4, 27, 3),  # rho = sqrt(3)/3
])
def test_lambda_and_rho_match_sympy_nroots(d, h, n0):
    bits = 128
    rep = char_poly_roots(DegreeRecurrence(d, h, n0), bits)
    t = sympy.Symbol("t")
    roots = sympy.Poly(t ** (n0 + 1) - d * t**n0 + h, t).nroots(n=80, maxsteps=500)
    with workprec(2 * bits):
        moduli = sorted((mpf(sympy.Abs(z).evalf(80)) for z in roots), reverse=True)
        tol = mpf(2) ** (8 - bits)
        # lambda has the largest modulus, r times over; rho is the next one down
        assert all(abs(m - rep.lambda_) < tol * rep.lambda_ for m in moduli[: rep.r])
        nxt = moduli[rep.r] if len(moduli) > rep.r else mpf(0)
        assert nxt < rep.lambda_ * (1 - tol)
        assert abs(nxt / rep.lambda_ - rep.rho) < tol
    if (d, h, n0) == (4, 27, 3):
        assert abs(rep.rho - sqrt(3) / 3) < mpf(10) ** -30


def test_simple_case_skips_the_root_finder(monkeypatch):
    class Reached(Exception):
        pass

    def refuse(n0):
        raise Reached(n0)

    monkeypatch.setattr(specdeg, "_tangent_estimates", refuse)
    simple, tangent = 0, []
    for d in range(2, 6):
        for n0 in range(1, 5):
            for h in range(1, min(d ** (n0 + 1), 20)):
                try:
                    rep = char_poly_roots(DegreeRecurrence(d, h, n0), 64)
                except DegenerateLambda:
                    continue
                except Reached:
                    tangent.append((d, h, n0))
                    continue
                simple += rep.r == 1
    # every viable case of the grid but its two tangent ones
    assert simple == 148 and tangent == [(3, 4, 2), (4, 4, 1)]


def bisect_root(spec, lo, hi, bits):
    """The root of P in (lo, hi), where P changes sign once, to within 2^-bits in Fractions."""
    below = spec.p_at(lo) < 0
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (spec.p_at(mid) < 0) == below else (lo, mid)
    return lo


# lambda2 lies on P's flat left branch, where Newton on P itself shrinks t by
# only about n0/(n0+1) a step; Newton on Q reaches it from (d/h)^(1/n0)
@pytest.mark.parametrize("d, h, n0, bits", [
    (50, 1, 40, 64),
    (20, 1, 60, 64),
    (1000, 1, 40, 128),
    (1000, 1000, 60, 128),
])
def test_large_n0_roots_match_exact_bisection(d, h, n0, bits):
    spec = DegreeRecurrence(d, h, n0)
    rep = char_poly_roots(spec, bits)
    t_star = Fraction(d * n0, n0 + 1)
    lam = bisect_root(spec, t_star, Fraction(d + 1), bits + 8)
    lam2 = bisect_root(spec, Fraction(0), t_star, bits + 8)
    assert rep.r == 1
    tol = Fraction(1, 2 ** (bits - 8))
    got_lam, got_rho = (x.man * Fraction(2) ** x.exp for x in (rep.lambda_, rep.rho))
    assert abs(got_lam - lam) < tol * lam
    assert abs(got_rho - lam2 / lam) < tol * lam2 / lam


def tangent_spec(n0, m):
    # P(t) = t^{n0+1} - m (n0+1) t^{n0} + m^{n0+1} n0^{n0} has the double root t* = m n0
    return DegreeRecurrence(m * (n0 + 1), m ** (n0 + 1) * n0**n0, n0)


@pytest.mark.parametrize("n0", range(1, 9))
def test_tangent_case_in_closed_form(n0):
    bits = 128
    # m = 1 with n0 = 1 puts t* at 1, which is not viable
    reps = {m: char_poly_roots(tangent_spec(n0, m), bits) for m in (1, 2, 3, 7) if m * n0 > 1}
    with workprec(2 * bits):
        q_fit = (mpf(2 * n0 + 4) / (3 * (n0 + 1)), mpf(2) / (n0 + 1))
    for m, rep in reps.items():
        assert rep.r == 2 and rep.lambda_ == m * n0 and rep.Q_fit == q_fit
    # rho is the largest root modulus of R(s) = sum_{k<n0} (k+1) s^k: n0 alone fixes it
    (rho,) = {rep.rho for rep in reps.values()}
    if n0 == 1:
        assert rho == 0
    else:
        # Enestrom-Kakeya: the coefficient ratios (k+1)/(k+2) bound every root of R
        assert mpf(1) / 2 <= rho <= mpf(n0 - 1) / n0


@pytest.mark.parametrize("n0", [4, 6, 10])
@pytest.mark.parametrize("bits", [128, 256])
def test_tangent_rho_matches_sympy_nroots(n0, bits):
    rep = char_poly_roots(tangent_spec(n0, 2), bits)
    s = sympy.Symbol("s")
    roots = sympy.Poly(sum((k + 1) * s**k for k in range(n0)), s).nroots(n=80, maxsteps=500)
    with workprec(2 * bits):
        want = max(mpf(sympy.Abs(z).evalf(80)) for z in roots)
        assert abs(rep.rho - want) < mpf(2) ** (8 - bits)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_tangent_rho_is_proved(bits):
    # R = 1 + 2s + 3s^2 has the roots (-1 +- i sqrt 2)/3, of modulus sqrt(3)/3
    rep = char_poly_roots(DegreeRecurrence(4, 27, 3), bits)
    with workprec(2 * bits):
        assert abs(rep.rho - sqrt(3) / 3) < mpf(2) ** -bits


def patch_estimates(monkeypatch, change):
    """Make the tangent root estimates change(estimates)."""
    estimates = specdeg._tangent_estimates
    monkeypatch.setattr(specdeg, "_tangent_estimates", lambda n0: change(estimates(n0)))


@pytest.mark.parametrize("n0", [3, 8, 24])
@pytest.mark.parametrize("bits", [128, 256])
def test_tangent_rho_refuses_moved_roots(monkeypatch, n0, bits):
    # roots off by a relative 2^-(p/2) give inclusion discs far wider than 2^-p
    patch_estimates(monkeypatch, lambda roots: [z * (1 + mpf(2) ** -(bits // 2)) for z in roots])
    with pytest.raises(PrecisionExhausted, match="inclusion discs"):
        char_poly_roots(tangent_spec(n0, 2), bits)


def test_tangent_rho_refuses_coinciding_estimates(monkeypatch):
    patch_estimates(monkeypatch, lambda roots: roots[:1] * len(roots))
    with pytest.raises(PrecisionExhausted, match="coincide"):
        char_poly_roots(tangent_spec(4, 2), 128)


def test_tangent_rho_needs_no_third_party_root_finder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.polyroots reached")

    monkeypatch.setattr(mp, "polyroots", refuse)
    for n0 in range(1, 13):
        assert char_poly_roots(tangent_spec(n0, 2), 128).r == 2


def test_large_n0_tangent_rho_is_pinned():
    # the digits `projdyn lambda --precision 64` prints
    rep = char_poly_roots(tangent_spec(100, 2), 64)
    assert _numstr(rep.rho, 64) == "0.97943181263455503"


def exact_q_fit(spec, bits):
    """lambda/((n0+1)(lambda - t*)) for a simple lambda, by bisecting lambda - t* in Fractions.

    The bracket on lambda - t* narrows to a relative 2^-(bits+8), so the
    quotient is good to about 2^-(bits+7) however near t* lambda lies.
    """
    t_star = Fraction(spec.d * spec.n0, spec.n0 + 1)
    lo, hi = Fraction(0), spec.d + 1 - t_star
    while hi - lo > lo / 2 ** (bits + 8):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if spec.p_at(t_star + mid) < 0 else (lo, mid)
    return (t_star + lo) / ((spec.n0 + 1) * lo)


# d = m (n0 + 1) and h = m^(n0+1) n0^n0 - k: a simple lambda just above the
# tangent point t* = m n0, where lambda - t* taken from lambda loses digits
@pytest.mark.parametrize("d, h, n0, bits", [
    (68, 2**98 - 3, 16, 64),
    (68, 2**98 - 3, 16, 256),
    (8, 2**4 * 3**3 - 1, 3, 128),
    (18, 3**6 * 5**5 - 2, 5, 64),
    (52, 4**13 * 12**12 - 1, 12, 128),
    (3, 1, 1, 1024),  # far from tangency
    (5, 2, 3, 256),
])
def test_q_fit_matches_exact_bisection(d, h, n0, bits):
    spec = DegreeRecurrence(d, h, n0)
    rep = char_poly_roots(spec, bits)
    assert rep.r == 1
    want = exact_q_fit(spec, bits)
    got = rep.Q_fit[0].man * Fraction(2) ** rep.Q_fit[0].exp
    assert abs(got - want) < want / 2**bits


# -- asymptotics --------------------------------------------------------------------


# depths N with rho^N < 1e-25
@pytest.mark.parametrize("d, h, n0, N", [
    (3, 1, 1, 30),
    (4, 2, 1, 40),
    (5, 2, 3, 40),
    (4, 3, 6, 51),
    (3, 4, 2, 100),
])
def test_tail_fit_agrees_with_initial_condition_fit(d, h, n0, N):
    spec = DegreeRecurrence(d, h, n0)
    rep = char_poly_roots(spec, 128)
    assert rep.rho**N < mpf(10) ** -25
    ar = check_asymptotics(extend_degrees(spec, N), rep)
    assert len(ar.Q) == len(rep.Q_fit) == rep.r
    assert all(abs(tail - fit) < mpf(10) ** -25 for tail, fit in zip(ar.Q, rep.Q_fit))


def test_residuals_start_at_subdominant_share():
    rep = char_poly_roots(S311, 128)
    ar = check_asymptotics(extend_degrees(S311, 30), rep)
    assert abs(ar.max_residual - mpf("0.14589803375031546")) < mpf(10) ** -9
    assert ar.max_residual == ar.residuals[0]
    assert float(ar) == float(ar.max_residual)


def test_residuals_decay_geometrically():
    rep = char_poly_roots(S311, 128)
    ar = check_asymptotics(extend_degrees(S311, 30), rep)
    for n in range(20):
        assert ar.residuals[n + 1] <= rep.rho * ar.residuals[n] * mpf("1.05")


def test_tangent_case_residuals_vanish():
    ar = check_asymptotics(extend_degrees(S441, 30), char_poly_roots(S441, 128))
    assert ar.max_residual == 0
    assert [float(q) for q in ar.Q] == [1.0, 1.0]


def test_stable_case_residuals_vanish():
    ar = check_asymptotics(extend_degrees(S201, 15), char_poly_roots(S201, 128))
    assert ar.max_residual == 0


def test_asymptotics_needs_ten_values():
    rep = char_poly_roots(S311, 128)
    with pytest.raises(InsufficientData):
        check_asymptotics(extend_degrees(S311, 5), rep)


def test_asymptotics_rejects_foreign_sequence():
    rep = char_poly_roots(S311, 128)
    degs = extend_degrees(S311, 12)
    degs[7] += 1
    with pytest.raises(ValueError):
        check_asymptotics(degs, rep)


# -- growth bounds ------------------------------------------------------------------


def test_growth_constants_lagged():
    rep = char_poly_roots(S311, 128)
    c1, c2 = check_growth_bounds(extend_degrees(S311, 300), rep.lambda_)
    # hand value: the n = 1 term (d_2 - lam d_1)/d_1 = (7 - 3 sqrt 5)/6
    assert abs(c1 - (7 - 3 * sqrt(5)) / 6) < mpf(10) ** -20
    lam = rep.lambda_
    assert c2 < lam / (lam - 1) + mpf(10) ** -20
    assert c2 > lam / (lam - 1) - mpf(10) ** -6


def test_growth_constants_stable():
    c1, c2 = check_growth_bounds(extend_degrees(S201, 20), mpf(2))
    assert c1 == 0
    assert c2 < 2


@pytest.mark.slow
def test_growth_constants_long_range():
    rep = char_poly_roots(S311, 128)
    c1, c2 = check_growth_bounds(extend_degrees(S311, 10**4), rep.lambda_)
    assert c1 < mpf("0.05") and c2 < mpf("1.62")


def test_growth_needs_ten_values():
    with pytest.raises(ValueError):
        check_growth_bounds([1, 3, 8], mpf(2))


# -- telescoping identity ------------------------------------------------------------


def test_sn_identity_lagged():
    rep = char_poly_roots(S311, 128)
    worst = check_sn_identity(S311, rep.lambda_, extend_degrees(S311, 25), 20)
    assert worst < mpf(10) ** -9
    assert worst < mpf(10) ** -30


def test_sn_identity_exact_roots():
    assert check_sn_identity(S441, mpf(2), extend_degrees(S441, 25), 20) == 0
    assert check_sn_identity(S201, mpf(2), extend_degrees(S201, 25), 20) == 0


def test_sn_identity_bounds_checked():
    with pytest.raises(ValueError):
        check_sn_identity(S311, mpf(2), extend_degrees(S311, 5), 20)
    with pytest.raises(ValueError, match="n_max"):
        check_sn_identity(S311, mpf(2), extend_degrees(S311, 5), -1)


# -- convergence of the root to the degree growth rate -------------------------------


def test_degree_root_gap_honest_profile():
    rep = char_poly_roots(S311, 128)
    lam = rep.lambda_
    degs = extend_degrees(S311, 60)
    gaps = [abs(mpf(degs[n]) ** (mpf(1) / n) - lam) for n in range(1, 61)]
    # the n-th root converges like log(n)/n: still above 0.01 at n = 20
    assert gaps[19] > mpf("0.0207") and gaps[19] < mpf("0.0208")
    first = next(n for n in range(1, 61) if gaps[n - 1] < mpf("0.01"))
    assert first == 42
    # shrinks on average even though not monotonically step by step
    early = sum(gaps[:20]) / 20
    late = sum(gaps[20:40]) / 20
    assert late < early


# -- cross-module agreement -----------------------------------------------------------


def test_recurrence_matches_symbolic_iteration():
    from projdyn.mapiter import infer_qas, iterate_degrees, make_map
    from projdyn.polycore import parse_poly

    names = ("z", "w", "t")
    f = make_map(
        [
            parse_poly("z^2*t + z*w^2 - 2*w^2*t", names),
            parse_poly("z^2*w + z*t^2 - 2*w^2*t", names),
            parse_poly("2*z*w*t - 2*w^2*t", names),
        ]
    )
    trace = iterate_degrees(f, 4)
    cert = infer_qas(trace).certificate
    spec = DegreeRecurrence(cert.d, cert.h, cert.n0)
    assert extend_degrees(spec, 4) == list(trace.degrees)
