"""Potential evaluation: closed-form oracle, identities, grids, exports.

The coordinatewise-square map has the closed-form potential
u(z) = max_i log|z_i|, which pins every convention (norm, base point
normalization, history) independently of the orbit recursion.  The
quadratically stable cubic instance exercises the divisor-corrected
recursion and both residual identities.
"""

import ast
import cmath
import collections
import hashlib
import itertools
import json
import math
import random
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp, mp, mpf, workprec

from projdyn.family2 import build_family_map, random_family
from projdyn.mapiter import ZeroVector, infer_qas, iterate_degrees, load_map, make_map
from projdyn.polycore import HomPoly, parse_poly, poly_to_text
from projdyn.specdeg import DegenerateLambda, DegreeRecurrence, char_poly_roots, extend_degrees
from projdyn import greenpot as gp

NAMES = ("z", "w", "t")


def pp(s):
    return parse_poly(s, NAMES)


@pytest.fixture(scope="module")
def mono():
    return make_map([pp("z^2"), pp("w^2"), pp("t^2")])


@pytest.fixture(scope="module")
def stable():
    inst = build_family_map(
        pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t")
    )
    cert = infer_qas(iterate_degrees(inst.map, 3)).certificate
    rep = char_poly_roots(DegreeRecurrence(d=3, h=1, n0=1))
    return inst.map, cert, rep


@pytest.fixture(scope="module")
def family():
    """The QAS map random_family(1, 2, 5, 1): ±1 coefficients and terms shared between components."""
    f = random_family(1, 2, 5, 1).map
    cert = infer_qas(iterate_degrees(f, 3)).certificate
    return f, cert, char_poly_roots(DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0))


@pytest.fixture(scope="module")
def extracting():
    """Cubic whose second iterate drops degree by two; plain mode iterates its lifting."""
    return make_map([pp("z*w^2 - w^2*t"), pp("z*t^2 - w^2*t"), pp("z^2*w - w^2*t")])


def mono_closed_form(z):
    return max(math.log(abs(c)) for c in z)


Z_FROZEN = (0.9 + 0.3j, -1.1 + 0.4j, 0.5 - 0.7j)


def mpf_of(x):
    """A Fraction as an mpf at the ambient precision: exact for a value of greenpot that fits it."""
    return mpf(x.numerator) / x.denominator


def fraction_of(x):
    """The exact rational value of an mpf."""
    return Fraction(*libmp.to_rational(x._mpf_))


def digits(x, n=41):
    """A Fraction to n significant decimal digits, correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = n
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def mp_residuals(monkeypatch, f, cert, rep, z, precision):
    """Both residuals from the same rounded inputs, as mpf, with every operation at 4x the precision."""
    exact = gp._round
    with monkeypatch.context() as m, workprec(4 * precision):
        m.setattr(gp, "_round", lambda x, S, p: mpf_of(exact(x, S, p)))
        m.setattr(gp, "_lambda", lambda orbit, report: +report.lambda_)
        return (gp.functional_eq_residual(f, cert, rep, z, n_iters=40, precision=precision),
                gp.telescope_residual(f, cert, rep, z, 3, precision=precision, n_iters=48))


class TestGreenEval:
    def test_monomial_log2(self, mono):
        u, hist = gp.green_eval(mono, None, None, (2, 1, 1), n_iters=32)
        assert abs(u - math.log(2)) < 1e-9
        assert len(hist) == 32

    def test_monomial_closed_form_many_points(self, mono):
        rng = random.Random(7)
        for _ in range(1000):
            z = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
            if max(abs(c) for c in z) < 1e-2:
                continue
            u, _ = gp.green_eval(mono, None, None, z, n_iters=40)
            assert abs(u - mono_closed_form(z)) < 1e-9

    def test_homogeneity(self, mono, stable):
        f, cert, rep = stable
        for fn, ct in ((mono, None), (f, cert)):
            u1, _ = gp.green_eval(fn, ct, None, Z_FROZEN, n_iters=36)
            for s in (2.0, 0.5, 1.5 + 2j):
                zs = tuple(s * c for c in Z_FROZEN)
                u2, _ = gp.green_eval(fn, ct, None, zs, n_iters=36)
                assert abs(u2 - u1 - math.log(abs(s))) < 1e-8

    def test_history_decays_geometrically(self, stable):
        f, cert, rep = stable
        _, hist = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=28)
        lam = float(rep.lambda_)
        # 4-step contraction within 15% of lambda^-4 once transients die
        for k in (10, 14, 18, 22, 26):
            assert hist[k] <= hist[k - 4] * lam**-4 * 1.15
        assert hist[26] < 1e-11

    def test_converged_estimate_stable(self, stable):
        f, cert, rep = stable
        u40, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40)
        u50, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=50)
        assert abs(u50 - u40) < 1e-13

    def test_high_precision_mode_agrees(self, stable):
        f, cert, rep = stable
        u, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40)
        u_hp, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=60, precision=160)
        assert abs(float(u_hp) - u) < 1e-12

    def test_53_bit_values_pinned(self, stable):
        # the float step, whose values the verify-all residual bytes rest on
        f, cert, rep = stable
        assert repr(gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40)[0]) == "0.5579286113366814"
        fe = gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=40)
        assert repr(fe) == "3.0531133177191805e-16"
        ts = gp.telescope_residual(f, cert, rep, Z_FROZEN, 3, n_iters=48)
        assert repr(ts) == "2.4748243454926748e-17"

    def test_128_bit_values_pinned(self, stable, monkeypatch):
        # the fixed-point step: QAS maps with H = z and with H = 3z + w + 7t,
        # the second with non-unit coefficients in the map and the divisor
        fam = random_family(1, 2, 5, 1).map
        fam_cert = infer_qas(iterate_degrees(fam, 3)).certificate
        fam_rep = char_poly_roots(DegreeRecurrence(d=fam_cert.d, h=fam_cert.h, n0=fam_cert.n0))
        assert fam_cert.H == pp("3*z + w + 7*t")
        # u and the last increment: 128-bit values, read exactly from their mpf repr;
        # the residuals: their exact values to 41 digits, and the values the residuals
        # took when they were mpf sums rounded at 128 bits
        pins = (
            (stable, ("0.55792861133668126694591565666326375475949",
                      "1.417711476177933807783877859682513490287e-17"),
             ("1.2919779865152401641255168163060717296080E-17",
              "3.5314063916209448858878922039393298361612E-21"),
             ("1.2919779865152401641254904312685346970518e-17",
              "3.5314063916209448862724626357096903017852e-21")),
            ((fam, fam_cert, fam_rep), ("2.0658896040128289798371908020299852587728",
                                        "5.1102233342822947593556897751487217701338e-17"),
             ("4.7804608374864018328770611050424504578758E-17",
              "1.2998077920609004477887061225837757955195E-20"),
             ("4.7804608374864018328771880841938667932328e-17",
              "1.2998077920609004481452637149659443276405e-20")),
        )
        for (f, cert, rep), values, exact, rounded in pins:
            u, hist = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40, precision=128)
            fe = gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=40, precision=128)
            ts = gp.telescope_residual(f, cert, rep, Z_FROZEN, 3, precision=128, n_iters=48)
            assert all(isinstance(x, Fraction) for x in (u, hist[-1], fe, ts))
            with workprec(128):
                assert (u, hist[-1]) == tuple(fraction_of(mpf(v)) for v in values)
            assert (digits(fe), digits(ts)) == exact
            for got, want, old in zip((fe, ts), mp_residuals(monkeypatch, f, cert, rep, Z_FROZEN, 128),
                                      rounded):
                assert abs(got - fraction_of(want)) < Fraction(1, 2**500)
                assert abs(got - Fraction(old)) < Fraction(1, 2**120)

    def test_long_orbit_at_53_bits(self, stable):
        # beyond step ~737 the exact degrees pass the float range
        f, cert, rep = stable
        u, hist = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=800, precision=53)
        u_hp, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=800, precision=128)
        assert len(hist) == 800
        assert abs(u - float(u_hp)) < 1e-9

    def test_input_validation(self, mono, stable):
        f, cert, rep = stable
        with pytest.raises(ZeroVector):
            gp.green_eval(mono, None, None, (0, 0, 0))
        with pytest.raises(ZeroVector):
            gp.green_eval(mono, None, None, (1, 2))
        with pytest.raises(ValueError):
            gp.green_eval(mono, None, None, (1, 1, 1), n_iters=0)
        with pytest.raises(ValueError):
            gp.green_eval(mono, None, None, (1, 1, 1), precision=8)
        with pytest.raises(ValueError):
            gp.green_eval(mono, cert, None, (2, 1, 1))  # degree-2 map, degree-3 cert
        for bad in ((float("nan"), 1, 1), (1, complex(0, float("inf")), 1)):
            with pytest.raises(ValueError):
                gp.green_eval(mono, None, None, bad)
            with pytest.raises(ValueError):
                gp.green_eval(mono, None, None, bad, precision=128)
        for bad in ((0, 0, 0), (1e-300, 0, 0), (1e-20, 1e-20j, 0), (1, 2)):
            with pytest.raises(ZeroVector):
                gp.green_eval(mono, None, None, bad, precision=128)

    def test_certificate_and_point_validation(self, mono, stable):
        f, cert, rep = stable
        flat = cert._replace(H=parse_poly("x", ("x", "y")))
        with pytest.raises(ValueError, match="divisor arity"):
            gp.green_eval(f, flat, None, Z_FROZEN)
        with pytest.raises(ValueError, match="finite"):
            gp.green_eval(mono, None, None, ("-inf+1j", 1, 1), precision=128)

    @pytest.mark.parametrize("precision", [53, 128])
    def test_degree_one_map_is_refused(self, precision):
        # lambda = 1 for a linear map: log||F^n(z)||/d_n grows like n, no potential
        linear = make_map([pp("w"), pp("t"), pp("z + w")])
        with pytest.raises(ValueError, match="degree at least 2"):
            gp.green_eval(linear, None, None, (1, 2, 3), n_iters=10, precision=precision)
        sl = gp.GridSlice(base=(1, 0, 0), e1=(0, 1, 0), e2=(0, 0, 1))
        with pytest.raises(ValueError, match="degree at least 2"):
            gp.grid_sample(linear, None, None, sl, resolution=2, precision=precision)

    @pytest.mark.parametrize("precision", [53, 128])
    def test_recurrence_without_growth_is_refused(self, precision):
        # degrees 1, 2, 3, ...: P = (t - 1)^2, so lambda = 1 and the orbit
        # heights grow with n (u = 1.40, 8.42, 37.2 at n = 10, 40, 160)
        f = make_map([pp("t^2"), pp("-z*w - z*t"), pp("-z*w")])
        cert = infer_qas(iterate_degrees(f, 3)).certificate
        assert (cert.d, cert.h, cert.n0) == (2, 1, 1)
        sl = gp.GridSlice(base=(1, 0, 0), e1=(0, 1, 0), e2=(0, 0, 1))
        calls = (
            lambda: gp.green_eval(f, cert, None, Z_FROZEN, n_iters=10, precision=precision),
            lambda: gp.grid_sample(f, cert, None, sl, resolution=2, precision=precision),
            lambda: gp.functional_eq_residual(f, cert, None, Z_FROZEN, precision=precision),
            lambda: gp.telescope_residual(f, cert, None, Z_FROZEN, 2, precision=precision),
        )
        for call in calls:
            with pytest.raises(DegenerateLambda, match="no real root above 1"):
                call()
        # plain iteration (h = 0) grows like 2^n and still evaluates
        u, _ = gp.green_eval(f, None, None, Z_FROZEN, n_iters=40, precision=precision)
        assert math.isfinite(float(u))
        grid = gp.grid_sample(f, None, None, sl, resolution=2, precision=precision)
        assert grid.resolution == 2

    def test_coordinates_beyond_the_float_range_at_53_bits(self, mono):
        # an int or Fraction that no float holds is an input error, as inf is
        for big in (10**400, -10**400, Fraction(10**400, 3), Fraction(2**1030, 3)):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                gp.green_eval(mono, None, None, (big, 1, 1))
            sl = gp.GridSlice(base=(big, 1, 1), e1=(1, 0, 0), e2=(0, 1, 0))
            with pytest.raises(ValueError, match="finite"):
                gp.grid_sample(mono, None, None, sl, 2)
        # above 53 bits the same point is read exactly: u is log(10^400)
        u, _ = gp.green_eval(mono, None, None, (10**400, 1, 1), precision=128)
        assert abs(float(u) - 400 * math.log(10)) < 1e-9

    def test_huge_point_at_53_bits(self, mono, stable):
        # the squares of 1e300 overflow; the norm is taken after a 2^-k scaling
        f, cert, rep = stable
        for fn, ct in ((mono, None), (f, cert)):
            u1, _ = gp.green_eval(fn, ct, None, Z_FROZEN, n_iters=36)
            u2, _ = gp.green_eval(fn, ct, None, tuple(1e300 * c for c in Z_FROZEN), n_iters=36)
            assert abs(u2 - u1 - math.log(1e300)) < 1e-9


    def test_huge_and_exact_points_above_53_bits(self, stable):
        # the fixed-point start scales by the largest exponent, exactly
        f, cert, rep = stable
        u1, _ = gp.green_eval(f, cert, None, Z_FROZEN, n_iters=40, precision=128)
        tol = mpf(2) ** -110
        # 2^997 ≈ 1.3e300 scales the floats exactly; their squares overflow
        huge = tuple(complex(math.ldexp(c.real, 997), math.ldexp(c.imag, 997)) for c in Z_FROZEN)
        u2, _ = gp.green_eval(f, cert, None, huge, n_iters=40, precision=128)
        with workprec(256):
            assert abs(mpf_of(u2 - u1) - 997 * mp.log(2)) < tol * mpf_of(abs(u2))
        z0 = (Fraction(3, 2), Fraction(-2, 3), Fraction(1, 4))
        big = tuple(x * 10**400 for x in z0)
        u3, _ = gp.green_eval(f, cert, None, z0, n_iters=40, precision=128)
        u4, _ = gp.green_eval(f, cert, None, big, n_iters=40, precision=128)
        with workprec(256):
            assert abs(mpf_of(u4 - u3) - 400 * mp.log(10)) < tol * mpf_of(abs(u4))
            want = mp_reference_u(f, cert, z0, 40, 256)
            assert abs(mpf_of(u3) - want) < tol

    def test_mpmath_and_string_points_above_53_bits(self, stable):
        # a string is read exactly at the orbit's scale; an mpmath number is no coordinate
        f, cert, rep = stable
        for x in (mp.mpc(0.9 + 0.3j), mpf(1), mpf("inf")):
            with pytest.raises(ValueError, match="number or a complex literal, not mp"):
                gp.green_eval(f, cert, None, (x, 1, 1), n_iters=40, precision=128)
        z = ("0.9", "-1.1", "0.5")
        u, _ = gp.green_eval(f, cert, None, z, n_iters=40, precision=128)
        with workprec(256):
            assert abs(mpf_of(u) - mp_reference_u(f, cert, z, 40, 256)) < mpf(2) ** -110

    def test_literal_syntax_is_complex_syntax(self):
        cases = {
            "2": (2, 0), " 1_0 ": (10, 0), "(3)": (3, 0), "J": (0, 1), "-j": (0, -1),
            "1+j": (1, 1), "(0.5+0.25j)": (Fraction(1, 2), Fraction(1, 4)),
            "1e-5j": (0, Fraction(1, 10**5)), "2.5E+1-3e-2J": (25, Fraction(-3, 100)),
            "-0.9-0.3j": (Fraction(-9, 10), Fraction(-3, 10)), "1e-400": (Fraction(1, 10**400), 0),
        }
        for text, (re, im) in cases.items():
            assert gp._literal_ratios(text) == (Fraction(re).as_integer_ratio(),
                                                Fraction(im).as_integer_ratio())
        for text in ("1e400", "nan", "infj", "-inf+1j"):
            with pytest.raises(ValueError, match="finite"):
                gp._literal_ratios(text)
        for text in ("1/3", "0x10", "1 + 2j", ""):
            with pytest.raises(ValueError):
                gp._literal_ratios(text)


    def test_complex_string_points_above_53_bits(self, mono):
        # a string coordinate may be a complex literal at every precision
        u, _ = gp.green_eval(mono, None, None, ("2+0j", "1", "1"), precision=128)
        with workprec(128):
            assert abs(mpf_of(u) - mp.log(2)) < mpf(2) ** -120
        got, _ = gp.green_eval(mono, None, None, ("2+1j", "1", "1"), precision=128)
        want, _ = gp.green_eval(mono, None, None, (2 + 1j, 1, 1), precision=128)
        assert got == want


class TestOrbitErrors:
    def test_divisor_hit_at_lag_step(self, stable):
        f, cert, rep = stable
        # the divisor {z=0} enters the recursion at step n0+1 = 2
        for precision in (53, 128):
            for z in ((0, 1, 0.7), (1e-16, 1, 0.7)):
                with pytest.raises(gp.OrbitHitDivisor) as exc:
                    gp.green_eval(f, cert, rep, z, n_iters=10, precision=precision)
                assert exc.value.step == cert.n0 + 1

    def test_indeterminacy_hit(self, stable):
        f, cert, rep = stable
        # F vanishes at (1, 1, 1); 1e-16 away its norm is below the tolerance
        for precision in (53, 128):
            for z in ((1, 1, 1), (1, 1, 1 + Fraction(1, 10**16))):
                with pytest.raises(gp.OrbitHitIndeterminacy) as exc:
                    gp.green_eval(f, cert, rep, z, n_iters=10, precision=precision)
                assert exc.value.step == 1

    def test_not_converged(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.NotConverged):
            gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=3, converge_tol=1e-9)
        u, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40, converge_tol=1e-9)
        assert math.isfinite(u)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_is_refused(self, mono, tol):
        # NaN compares false, so it would switch the check off; a negative
        # tolerance would fail every orbit
        sl = gp.GridSlice(base=(1.5, 1, 1), e1=(1, 0, 0), e2=(0, 1, 0))
        with pytest.raises(ValueError, match="converge_tol"):
            gp.green_eval(mono, None, None, (1.5, 1, 1), n_iters=2, converge_tol=tol)
        with pytest.raises(ValueError, match="converge_tol"):
            gp.grid_sample(mono, None, None, sl, 3, n_iters=2, converge_tol=tol)

    def test_none_and_infinite_tolerance_skip_the_check(self, mono):
        sl = gp.GridSlice(base=(1.5, 1, 1), e1=(1, 0, 0), e2=(0, 1, 0))
        with pytest.raises(gp.NotConverged):
            gp.green_eval(mono, None, None, (1.5, 1, 1), n_iters=2, converge_tol=1e-6)
        for tol in (None, math.inf):
            u, _ = gp.green_eval(mono, None, None, (1.5, 1, 1), n_iters=2, converge_tol=tol)
            assert math.isfinite(u)
            g = gp.grid_sample(mono, None, None, sl, 3, n_iters=2, converge_tol=tol)
            assert {s for row in g.status for s in row} == {gp.STATUS_OK}

    def test_orbit_state_rejects_bad_entries(self, mono):
        # the generated orbit checks the unit norm and the finite height of its entry
        for precision in (53, 128):
            runner = gp._OrbitRunner(mono, None, 3, precision)
            w, gamma = runner.start((1.5, 1, 1))
            S = runner.scale
            two = (2.0 + 0j, 0j, 0j) if S is None else ((2 << S, 0), (0, 0), (0, 0))
            with pytest.raises(gp.OrbitError) as exc:
                runner.run(two, gamma)
            assert (exc.value.step, str(exc.value)) == (0, "orbit point lost normalization (norm 2.0)")
            assert len(runner.run(w, gamma)[0]) == 4
        runner = gp._OrbitRunner(mono, None, 3, 53)
        with pytest.raises(gp.OrbitError) as exc:
            runner.run(runner.start((1.5, 1, 1))[0], float("nan"))
        assert (exc.value.step, str(exc.value)) == (0, "non-finite log-height")

    def test_overflowing_image_is_an_orbit_error(self):
        # |F(w)|^2 overflows for a unit w: the quotient loses its norm
        big = make_map([pp("z^2") * 10**200, pp("w^2"), pp("t^2")])
        with pytest.raises(gp.OrbitError) as exc:
            gp.green_eval(big, None, None, (1, 0, 0), n_iters=4)
        assert exc.value.step == 1 and "normalization" in str(exc.value)

    def test_coefficient_beyond_the_float_range_is_an_orbit_error(self):
        # a coefficient above 2^1024 has no float: the 53-bit runner refuses it at set-up,
        # naming the largest, and the fixed-point runner takes it
        huge = make_map([pp("z^2") * 10**400, pp("w^2") * (3 * 10**399), pp("t^2")])
        sl = gp.GridSlice(base=(1, 2, 3), e1=(1, 0, 0), e2=(0, 1, 0))
        runs = (lambda p: gp.green_eval(huge, None, None, (1, 2, 3), n_iters=8, precision=p),
                lambda p: gp.grid_sample(huge, None, None, sl, 2, n_iters=8, precision=p))
        for sample in runs:
            for precision in (24, 53):
                with pytest.raises(gp.OrbitError) as exc:
                    sample(precision)
                assert (exc.value.step, str(exc.value)) == \
                    (0, "coefficient 1.000e+400 of the map is beyond the float range")
            assert sample(128)


class TestResiduals:
    def test_monomial_functional_eq(self, mono):
        for z in ((2, 1, 1), (1.3 + 0.2j, -0.4, 0.9j), Z_FROZEN):
            assert gp.functional_eq_residual(mono, None, None, z, n_iters=40) < 1e-9

    def test_stable_functional_eq_small(self, stable):
        f, cert, rep = stable
        assert gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=40) < 1e-10

    def test_residual_median_decreases_with_depth(self, stable):
        f, cert, rep = stable
        rng = random.Random(11)

        def unit_point():
            v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
            n = math.sqrt(sum(abs(c) ** 2 for c in v))
            return tuple(c / n for c in v)

        shallow, deep = [], []
        for _ in range(30):
            z = unit_point()
            try:
                shallow.append(gp.functional_eq_residual(f, cert, rep, z, n_iters=10))
                deep.append(gp.functional_eq_residual(f, cert, rep, z, n_iters=40))
            except gp.OrbitError:
                continue
        assert len(shallow) >= 20
        shallow.sort()
        deep.sort()
        assert deep[len(deep) // 2] < shallow[len(shallow) // 2] * 1e-3

    def test_mass_balance(self, stable):
        f, cert, rep = stable
        lam = float(rep.lambda_)
        assert abs((f.degree - lam) + lam - f.degree) < 1e-14

    def test_residual_at_divisor_point_raises(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.OrbitHitDivisor):
            gp.functional_eq_residual(f, cert, rep, (0, 1, 0.7))

    def test_telescope_one_step_matches_functional_eq(self, stable):
        f, cert, rep = stable
        lam = float(rep.lambda_)
        fe = gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=40)
        t1 = gp.telescope_residual(f, cert, rep, Z_FROZEN, 1, n_iters=40)
        assert abs(t1 * lam - fe) < 1e-12

    def test_telescope_three_steps(self, stable):
        f, cert, rep = stable
        assert gp.telescope_residual(f, cert, rep, Z_FROZEN, 3, n_iters=48) < 1e-3

    def test_telescope_plain_mode_exact(self, mono):
        assert gp.telescope_residual(mono, None, None, (2, 1, 1), 3, n_iters=40) < 1e-12

    def test_telescope_high_precision(self, stable):
        f, cert, rep = stable
        r = gp.telescope_residual(f, cert, rep, Z_FROZEN, 4, precision=160, n_iters=70)
        assert float(r) < 1e-9

    def test_residuals_round_at_the_precision(self, stable):
        # the potentials are rounded at the precision, and λ, the coefficient
        # and every sum are exact Fractions
        f, cert, rep = stable
        fe = gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=100, precision=128)
        ts = gp.telescope_residual(f, cert, rep, Z_FROZEN, 4, precision=128, n_iters=100)
        assert isinstance(fe, Fraction) and isinstance(ts, Fraction)
        assert fe < Fraction(1, 2**120) and ts < Fraction(1, 2**120)
        # λ moved off the root by 2^-100 gives residuals near 1e-30, which
        # only arithmetic beyond 53 bits resolves
        with workprec(256):
            off = rep._replace(lambda_=rep.lambda_ + mpf(2) ** -100)
        for residual in (lambda p: gp.functional_eq_residual(f, cert, off, Z_FROZEN, n_iters=100, precision=p),
                         lambda p: gp.telescope_residual(f, cert, off, Z_FROZEN, 4, precision=p, n_iters=100)):
            r128, r256 = residual(128), residual(256)
            assert r256 > Fraction(1, 2**110) and abs(r128 - r256) < Fraction(1, 2**120)

    def test_telescope_amplification_guard(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.AmplificationOverflow):
            gp.telescope_residual(f, cert, rep, Z_FROZEN, 200)
        with pytest.raises(ValueError):
            gp.telescope_residual(f, cert, rep, Z_FROZEN, 0)

    @pytest.mark.parametrize("precision", [53, 128])
    def test_residuals_need_the_report_of_their_recurrence(self, stable, mono, precision):
        # λ = d = 3 in place of the proved 2.618 gave residuals of 0.23 and 0.10
        f, cert, rep = stable
        other = char_poly_roots(DegreeRecurrence(d=3, h=1, n0=2))
        plain = char_poly_roots(DegreeRecurrence(d=2, h=0, n0=1))
        for fn, ct, report in ((f, cert, None), (f, cert, other), (mono, None, rep)):
            with pytest.raises(ValueError, match="lambda report"):
                gp.functional_eq_residual(fn, ct, report, Z_FROZEN, precision=precision)
            with pytest.raises(ValueError, match="lambda report"):
                gp.telescope_residual(fn, ct, report, Z_FROZEN, 2, precision=precision)
        # plain mode without a report takes λ = d, the root of its own recurrence
        for report in (None, plain):
            assert gp.functional_eq_residual(mono, None, report, Z_FROZEN,
                                             precision=precision) < 1e-12
            assert gp.telescope_residual(mono, None, report, Z_FROZEN, 2,
                                         precision=precision) < 1e-12


class TestExactLiftingConsistency:
    def test_heights_match_exact_lifting(self, stable):
        """d_3 * gamma_3 equals log-norm of the exact divisor-corrected lifting."""
        f, cert, rep = stable
        z0 = (Fraction(3, 2), Fraction(-2, 3), Fraction(1, 4))
        apply = lambda v: tuple(c.evaluate(v) for c in f.components)
        hval = lambda v: cert.H.evaluate(v)
        v1 = apply(z0)
        v2 = tuple(x / hval(z0) for x in apply(v1))
        v3 = tuple(x / hval(v1) for x in apply(v2))
        lognorm = math.log(math.sqrt(sum(float(x) ** 2 for x in v3)))
        d3 = extend_degrees(DegreeRecurrence(d=3, h=1, n0=1), 3)[3]
        g3, _ = gp.green_eval(f, cert, rep, z0, n_iters=3)
        assert d3 == 21
        assert abs(d3 * g3 - lognorm) < 1e-9


@pytest.fixture(scope="module")
def divisor_slice_grid(stable):
    f, cert, rep = stable
    sl = gp.GridSlice(
        base=(0.0, 1.0, 0.5),
        e1=(1.0, 0.0, 0.0),
        e2=(0.0, 0.0, 1.0),
        x_range=(-1.0, 1.0),
        y_range=(-1.0, 1.0),
    )
    return gp.grid_sample(f, cert, rep, sl, 5, n_iters=30)


class TestGrid:
    def test_divisor_row_statuses(self, divisor_slice_grid):
        g = divisor_slice_grid
        # x = 0 puts the node on {z=0}; the t = 0 node maps to zero first
        assert g.status[2] == (
            gp.STATUS_DIVISOR,
            gp.STATUS_INDETERMINACY,
            gp.STATUS_DIVISOR,
            gp.STATUS_DIVISOR,
            gp.STATUS_DIVISOR,
        )
        # (x, y) = (1, 0.5) lands on the total-collapse point (1,1,1)
        assert g.status[4][3] == gp.STATUS_INDETERMINACY
        flat = [s for row in g.status for s in row]
        assert flat.count(gp.STATUS_OK) == 19

    def test_values_none_exactly_off_ok(self, divisor_slice_grid):
        g = divisor_slice_grid
        for i in range(5):
            for j in range(5):
                assert (g.values[i][j] is None) == (g.status[i][j] != gp.STATUS_OK)
                if g.values[i][j] is not None:
                    assert math.isfinite(g.values[i][j])

    def test_corner_node_matches_direct_eval(self, divisor_slice_grid, stable):
        f, cert, rep = stable
        u, _ = gp.green_eval(
            f, cert, rep, (-1.0, 1.0, -0.5), n_iters=30, converge_tol=1e-6
        )
        assert divisor_slice_grid.values[0][0] == float(u)

    def test_deterministic_and_equal_to_per_point_path(self, stable):
        f, cert, rep = stable
        sl = gp.GridSlice(base=(1.0, 0.3, 0.5), e1=(0.0, 1.0, 0.0), e2=(0.0, 0.0, 1.0))
        g1 = gp.grid_sample(f, cert, rep, sl, 4, n_iters=25)
        g2 = gp.grid_sample(f, cert, rep, sl, 4, n_iters=25)
        assert g1 == g2
        axis = gp._axis(-1.0, 1.0, 4)
        vecs = [[complex(c) for c in v] for v in (sl.base, sl.e1, sl.e2)]
        for i, x in enumerate(axis):
            for j, y in enumerate(axis):
                z = tuple(b + x * a + y * c for b, a, c in zip(*vecs))
                u, _ = gp.green_eval(f, cert, rep, z, n_iters=25, converge_tol=1e-6)
                assert (g1.values[i][j], g1.status[i][j]) == (u, gp.STATUS_OK)

    @pytest.mark.parametrize("base, e1, e2, with_cert, sha", [
        ((0, 1, 0.5), (1, 0, 0), (0, 0, 1), True,
         "909c69b1d0146f9a94ea934906a0889c76522ca76e9e58fc04ef699215143e02"),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0), True,
         "c85998701ff524c9eb06c178ae042ab94422220fea1a37914ff56a96bb839680"),
        ((0.3 + 0.1j, 1, 0.4), (1, 0, 0), (0, 0, 1), False,
         "69a75a14a30f13a5190e7d882d363501963e325e39d4ff6e6477c9281a2d2c49"),
        # the family map with its certificate: OK, HitDivisor and HitIndeterminacy nodes
        ((0, 1, 0.5), (1, 0, 0), (0, 0, 1), "family",
         "e9e6c5e04b3cd19ca0210e0ff4c671953e09a07e18901103931001d8a43bdf25"),
    ])
    def test_csv_bytes_pinned(self, stable, family, tmp_path, base, e1, e2, with_cert, sha):
        f, cert, rep = family if with_cert == "family" else stable
        sl = gp.GridSlice(base=base, e1=e1, e2=e2)
        g = gp.grid_sample(f, cert if with_cert else None, rep, sl, 9, n_iters=32)
        gp.export_grid_csv(g, tmp_path / "g.csv")
        assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == sha

    def test_huge_base_gives_statuses(self, stable):
        f, cert, rep = stable
        sl = gp.GridSlice(base=(1e300, 0, 1), e1=(1, 0, 0), e2=(0, 1, 0))
        g = gp.grid_sample(f, cert, rep, sl, 3)
        # every node is [1:0:0] to double precision, an indeterminate point
        assert all(s == gp.STATUS_INDETERMINACY for row in g.status for s in row)
        with pytest.raises(ValueError):
            gp.grid_sample(f, cert, rep, gp.GridSlice((0, 0, 1), (float("inf"), 0, 0), (0, 1, 0)), 3)

    def test_meta_records_run(self, divisor_slice_grid):
        meta = divisor_slice_grid.meta
        assert meta["depth"] == 30 and meta["precision"] == 53
        assert len(meta["certificate"]) == 64
        assert all(c in "0123456789abcdef" for c in meta["certificate"])

    def test_complex_direction_pair_is_a_plane(self, mono):
        # e2 = i*e1 is complex-proportional yet spans a real 2-plane, at any
        # size: the Gram determinant of 1e±150 vectors over- or underflows a float
        for scale in (1.0, 1e150, 1e-150):
            sl = gp.GridSlice(base=(1.0, 0.0, 0.5), e1=(0.0, scale, 0.0), e2=(0.0, scale * 1j, 0.0))
            g = gp.grid_sample(mono, None, None, sl, 2, n_iters=20)
            assert all(s == gp.STATUS_OK for row in g.status for s in row)

    def test_dependent_directions_rejected(self, mono):
        for scale in (1, 1e150, 1e-150):
            sl = gp.GridSlice(base=(1, 0, 0), e1=(0, scale, 0), e2=(0, 2 * scale, 0))
            with pytest.raises(ValueError, match="linearly independent"):
                gp.grid_sample(mono, None, None, sl, 3)

    def test_zero_vector_node_flagged(self, mono):
        sl = gp.GridSlice(
            base=(0, 0, 0), e1=(1, 0, 0), e2=(0, 1, 0), x_range=(0, 1), y_range=(0, 1)
        )
        g = gp.grid_sample(mono, None, None, sl, 2, n_iters=24)
        assert g.status[0][0] == gp.STATUS_INDETERMINACY
        assert g.status[1][1] == gp.STATUS_OK

    def test_not_converged_statuses(self, stable):
        f, cert, rep = stable
        sl = gp.GridSlice(base=(1.0, 0.3, 0.5), e1=(0.0, 1.0, 0.0), e2=(0.0, 0.0, 1.0))
        g = gp.grid_sample(f, cert, rep, sl, 3, n_iters=3, converge_tol=1e-12)
        assert all(s == gp.STATUS_NOT_CONVERGED for row in g.status for s in row)
        assert all(v is None for row in g.values for v in row)


class TestExports:
    def test_csv_shape_and_cells(self, divisor_slice_grid, tmp_path):
        path = tmp_path / "grid.csv"
        gp.export_grid_csv(divisor_slice_grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u,status"
        assert len(lines) == 1 + 25
        row = lines[1].split(",")
        assert float(row[0]) == -1.0 and float(row[1]) == -1.0
        assert float(row[2]) == divisor_slice_grid.values[0][0]
        assert row[3] == "OK"
        center = lines[1 + 2 * 5 + 2].split(",")
        assert center[2] == "" and center[3] == "HitDivisor"

    def test_pgm_and_sidecar(self, divisor_slice_grid, tmp_path):
        path = tmp_path / "grid.pgm"
        gp.export_grid_pgm(divisor_slice_grid, path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["P2", "5 5", "65535"]
        rows = [[int(v) for v in ln.split()] for ln in lines[3:]]
        assert len(rows) == 5 and all(len(r) == 5 for r in rows)
        # the x = 0 column is off-status in every image row
        assert all(rows[j][2] == 0 for j in range(5))
        ok_shades = [v for r in rows for v in r if v > 0]
        assert min(ok_shades) >= 1 and max(ok_shades) == 65535
        side = json.loads((tmp_path / "grid.pgm.json").read_text())
        assert sorted(side) == [
            "certificate", "depth", "max", "min", "precision", "slice",
        ]
        assert side["certificate"] == divisor_slice_grid.meta["certificate"]
        vals = [v for row in divisor_slice_grid.values for v in row if v is not None]
        assert side["min"] == min(vals) and side["max"] == max(vals)

    def test_pgm_constant_grid(self, stable, tmp_path):
        f, cert, rep = stable
        sl = gp.GridSlice(base=(1.0, 0.3, 0.5), e1=(0.0, 1.0, 0.0), e2=(0.0, 0.0, 1.0))
        g = gp.grid_sample(f, cert, rep, sl, 1, n_iters=30)
        path = tmp_path / "one.pgm"
        gp.export_grid_pgm(g, path)
        assert path.read_text().splitlines() == ["P2", "1 1", "65535", "65535"]


def mp_loop_evaluator(p):
    """The per-term mpmath loop, the reference of the fixed-point code (run it at 2p bits)."""
    terms = [(mpf(c.numerator) / c.denominator, e) for e, c in ((e, Fraction(c)) for e, c in p.terms)]

    def ev(v):
        parts = []
        for c, e in terms:
            t = c
            for x, k in zip(v, e):
                if k:
                    t = t * x**k
            parts.append(t)
        return mp.fsum(parts)

    return ev


def mp_norm(v):
    return mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))


def mp_reference_u(f, cert, z, n_iters, prec):
    """u at z by the normalized orbit on the mpmath loop, every operation at prec bits."""
    with workprec(prec):
        comps = [mp_loop_evaluator(p) for p in f.components]
        H = cert and mp_loop_evaluator(cert.H)
        h, n0 = (0, 1) if cert is None else (cert.h, cert.n0)
        degrees = extend_degrees(DegreeRecurrence(d=f.degree, h=h, n0=n0), n_iters)
        v = [mp.mpc(x) if not isinstance(x, Fraction) else mpf(x.numerator) / x.denominator for x in z]
        nrm = mp_norm(v)
        points, gammas = [[x / nrm for x in v]], [mp.log(nrm)]
        for n in range(1, n_iters + 1):
            fv = [c(points[-1]) for c in comps]
            nf = mp_norm(fv)
            num = f.degree * degrees[n - 1] * gammas[-1] + mp.log(nf)
            if cert is not None and n - n0 - 1 >= 0:
                lag = n - n0 - 1
                num -= h * degrees[lag] * gammas[lag] + mp.log(abs(H(points[lag])))
            points.append([x / nf for x in fv])
            gammas.append(num / degrees[n])
        return gammas[-1]


def loop_evaluator(p):
    """The per-term loop the generated 53-bit code must reproduce bit for bit."""
    terms = [(gp._to_complex(c), e) for e, c in p.terms]

    def ev(v):
        acc = 0j
        for c, e in terms:
            t = c
            for x, k in zip(v, e):
                if k == 1:
                    t *= x
                elif k:
                    t *= x**k
            acc += t
        return acc

    return ev


def check_entry(nrm, gamma, step):
    """The unit-norm and finite-height checks of every orbit point, entry included."""
    if abs(nrm - 1.0) > 1e-6:
        raise gp.OrbitError(f"orbit point lost normalization (norm {nrm})", step=step)
    if gamma - gamma:
        raise gp.OrbitError("non-finite log-height", step=step)


def reference_run(runner, w, gamma):
    """The per-step Python loop of _OrbitRunner.run on the runner's single step.

    The generated orbit must reproduce it bit for bit, exceptions and
    their steps included.
    """
    step, log, plan, n0, tol, S = runner.step, runner.log, runner.plan, runner.spec.n0, runner.tol, runner.scale
    fixed = S is not None
    if fixed:
        check_entry(math.sqrt(sum(r * r + i * i for r, i in w) / (1 << 2 * S)), gamma, 0)
    else:
        check_entry(math.sqrt(ltr_sum(x.real * x.real + x.imag * x.imag for x in w)), gamma, 0)
    gammas, increments, hs = [gamma], [], []
    for n, a, b, hd, k, _ in plan:
        nf, w, nrm, hw = step(w)
        hs.append(hw)
        if hd is not None:
            ah = abs(hs[n - n0 - 1])
            if ah < tol:
                raise gp.OrbitHitDivisor(f"orbit met the extracted divisor at step {n}", step=n)
        if w is None:
            raise gp.OrbitHitIndeterminacy(f"orbit met an indeterminate point at step {n}", step=n)
        if hd is None:
            lg = log(nf)
        elif fixed:
            lg, lh = gp._int_log(nf, ah, S), 0
        else:
            lg, lh = log(nf), log(ah)
        if k:
            lg = math.ldexp(lg, -k)
            if hd is not None:
                lh = math.ldexp(lh, -k)
        num = a * gamma + lg
        if hd is not None:
            num -= hd * gammas[n - n0 - 1] + lh
        g = num // b if fixed else num / b
        increments.append(abs(g - gamma))
        gamma = g
        check_entry(nrm, gamma, n)
        gammas.append(gamma)
    return gammas, increments, hs, w


def outcome(run, runner, w, gamma):
    """repr of (gammas, increments, hs, last point), or the class, step and message of the failure."""
    try:
        return repr(run(runner, w, gamma))
    except gp.OrbitError as exc:
        return type(exc), exc.step, str(exc)


def reference_functional_eq(f, cert, rep, z, n_iters=40, precision=53):
    """functional_eq_residual with an orbit of its own for each potential, each by reference_run."""
    orbit = gp._OrbitRunner(f, cert, n_iters, precision)
    lam = gp._lambda(orbit, rep)
    w, _ = orbit.start(z)
    u_z = orbit.real(reference_run(orbit, *orbit.start(w))[0][-1])
    nf, w1, _, hw = orbit.step(w)
    if w1 is None:
        raise gp.OrbitHitIndeterminacy("F vanishes at the input point", step=0)
    u_fz = orbit.real(reference_run(orbit, w1, orbit.log(nf))[0][-1])
    if cert is None:
        return abs(u_fz - lam * u_z)
    ah = abs(hw)
    if ah < orbit.tol:
        raise gp.OrbitHitDivisor("input point lies on the extracted divisor", step=0)
    coef = (f.degree - lam) / cert.h
    return abs(u_fz - lam * u_z - coef * orbit.real(orbit.log(ah)))


def reference_telescope(f, cert, rep, z, n, precision=53, n_iters=48):
    """telescope_residual with an orbit of its own for the plain orbit, u(z) and u(Fⁿ(z)), by reference_run."""
    if n < 1:
        raise ValueError("n must be at least 1")
    orbit = gp._OrbitRunner(f, cert, n_iters, precision)
    lam = gp._lambda(orbit, rep)
    if n * math.log10(max(float(lam), 1.0 + 1e-9)) > precision * math.log10(2) - 6:
        raise gp.AmplificationOverflow(f"lambda^{n} exceeds the usable precision ({precision} bits)", step=n)
    plain = gp._OrbitRunner(f, cert, n_iters, precision)
    plain.plan = list(gp._plan(DegreeRecurrence(d=f.degree, h=0, n0=1), n, precision <= 53))
    w, _ = orbit.start(z)
    w0, gamma0 = orbit.start(w)
    gammas, _, hs, w_n = reference_run(plain, w0, gamma0)
    u_z = orbit.real(reference_run(orbit, w0, gamma0)[0][-1])
    u_wn = orbit.real(reference_run(orbit, *orbit.start(w_n))[0][-1])
    d, real, lam_n = f.degree, orbit.real, lam**n
    u_fnz = real(d**n * gammas[n]) + u_wn
    if cert is None:
        return abs(u_fnz - lam_n * u_z) / lam_n
    acc = 0 * lam
    for j in range(1, n + 1):
        m = n - j
        ah = abs(hs[m])
        if ah < orbit.tol:
            raise gp.OrbitHitDivisor(f"orbit met the divisor at step {m}", step=m)
        acc += lam ** (j - 1) * real(cert.h * d**m * gammas[m] + orbit.log(ah))
    coef = (d - lam) / cert.h
    return abs(u_fnz - lam_n * u_z - coef * acc) / lam_n


def result_of(call):
    """(value, repr of the value) of call(), or the class, step and message of the OrbitError it raises."""
    try:
        value = call()
        return value, repr(value)
    except gp.OrbitError as exc:
        return type(exc), exc.step, str(exc)


def ltr_sum(values):
    """Float sum left to right, as the generated norms add; sum() compensates from Python 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def loop_step(polys, w):
    fv = [loop_evaluator(p)(w) for p in polys]
    nf = math.sqrt(ltr_sum(x.real * x.real + x.imag * x.imag for x in fv))
    return nf, tuple(x / nf for x in fv) if nf >= gp._SINGULAR_TOL else None


def random_poly(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        c = rng.choice([rng.randint(-9, 9) or 1, Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 13))])
        terms[tuple(e)] = c
    return HomPoly(nvars, terms.items())


def sharing_polys(rng, nvars, degree):
    """Components P·Q_j − R with ±1 coefficients, and one monomial at c in the first, −c in the last.

    The terms of R recur across the components, and so do products that
    P·Q_j and P·Q_k have in common: the generator's shared terms.
    """
    signs = lambda p: HomPoly(nvars, [(e, rng.choice((1, -1, c))) for e, c in p.terms])
    a = rng.randint(1, degree)
    P, R = signs(random_poly(rng, nvars, a)), signs(random_poly(rng, nvars, degree))
    comps = [dict((P * signs(random_poly(rng, nvars, degree - a)) - R).terms) for _ in range(nvars)]
    m = [0] * nvars
    for _ in range(degree):
        m[rng.randrange(nvars)] += 1
    c = rng.choice([1, rng.randint(2, 9), Fraction(rng.randint(1, 20), rng.randint(2, 13))])
    comps[0][tuple(m)], comps[-1][tuple(m)] = c, -c
    return tuple(HomPoly(nvars, terms.items()) for terms in comps)


class TestGeneratedStep:
    ZEROS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0))

    def point(self, rng, nvars):
        pick = lambda: (rng.choice(self.ZEROS) if rng.random() < 0.3
                        else complex(rng.uniform(-2, 2), rng.choice((rng.uniform(-2, 2), 0.0, -0.0))))
        v = [pick() for _ in range(nvars)]
        v[rng.randrange(nvars)] = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        return tuple(complex(x) for x in v)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_matches_loop_evaluator(self, nvars):
        rng, shared = random.Random(100 + nvars), random.Random(200 + nvars)
        inputs = [(rng, lambda degree: tuple(random_poly(rng, nvars, degree) for _ in range(nvars))),
                  (shared, lambda degree: sharing_polys(shared, nvars, degree))]
        for degree, (prng, make) in itertools.product((1, 2, 3, 5), inputs):
            polys = make(degree)
            plain = gp._float_code(polys, nvars)
            step = gp._float_code(polys, nvars, polys[0])
            for _ in range(40):
                w = self.point(prng, nvars)
                nf, u, nrm, h = step(w)
                assert repr(h) == repr(loop_evaluator(polys[0])(w))
                assert (repr(nf), repr(u)) == tuple(map(repr, loop_step(polys, w)))
                assert u is None or abs(nrm - 1.0) < 1e-12
                assert repr(plain(w)) == repr((nf, u, nrm, None))

    @pytest.mark.parametrize("case", ["overflow", "underflow"])
    def test_matches_loop_evaluator_at_the_float_range_ends(self, case):
        # coefficients of 1e150-1e200 make the squares of the norm overflow to
        # inf, and coordinates near 1e-170 make them underflow, to subnormals or 0
        rng = random.Random(28 + len(case))
        for nvars in (1, 2, 3, 4):
            for degree in (1, 2, 3, 5):
                polys = tuple(random_poly(rng, nvars, degree) for _ in range(nvars))
                if case == "overflow":
                    polys = tuple(p * 10**rng.randint(150, 200) for p in polys)
                for step in (gp._float_code(polys, nvars), gp._float_code(polys, nvars, polys[0])):
                    for _ in range(50):
                        w = self.point(rng, nvars)
                        if case == "underflow":
                            w = tuple(x * 10.0**-rng.uniform(165, 175) for x in w)
                        nf, u, _, h = step(w)
                        assert (repr(nf), repr(u)) == tuple(map(repr, loop_step(polys, w)))
                        if h is not None:
                            assert repr(h) == repr(loop_evaluator(polys[0])(w))

    def test_conjugate_product_is_the_sum_of_squares(self):
        # the generated norms rest on this identity of CPython's complex product
        edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-170, 3e-162, 0.1, 1.0,
                 1.3407807929942596e154, 1e200, 1.7976931348623157e308, math.inf, math.nan]
        edges += [-x for x in edges]
        rng = random.Random(28)
        randoms = [rng.choice((-1, 1)) * math.ldexp(rng.random(), rng.randint(-1080, 1030))
                   for _ in range(200)]
        bits = lambda x: "nan" if math.isnan(x) else struct.pack("<d", x)
        for values in (edges, randoms):
            for r in values:
                for i in values:
                    x = complex(r, i)
                    assert bits((x * x.conjugate()).real) == bits(r * r + i * i)
        for _ in range(200):
            v = [complex(rng.choice(edges + randoms), rng.choice(edges + randoms)) for _ in range(3)]
            want = math.sqrt(ltr_sum(x.real * x.real + x.imag * x.imag for x in v))
            assert bits(gp._float_norm(v)) == bits(want)

    def test_exponents_zero_one_and_large(self):
        p = HomPoly(2, [((0, 7), Fraction(-1, 3)), ((1, 6), 2), ((7, 0), Fraction(5, 2)), ((3, 4), -1)])
        q = HomPoly(2, [((2, 5), 1), ((0, 7), -4)])
        # a divisor of degree 0: its one term is the bare coefficient
        minus_one = HomPoly(2, [((0, 0), -1)])
        for w in ((1.5 - 0.25j, -0.0 + 0.5j), (complex(-0.0, -0.0), 1 + 0j), (0.75 + 0j, -1.25 - 0j)):
            nf, u, _, h = gp._float_code((p, q), 2, minus_one)(w)
            assert (repr(nf), repr(u)) == tuple(map(repr, loop_step([p, q], w)))
            assert repr(h) == repr(loop_evaluator(minus_one)(w))

    def test_ten_thousand_terms(self):
        # one flat sum this long exceeds the compiler's recursion limit
        d = 146
        p = HomPoly(3, [((i, j, d - i - j), 1 + (i * j) % 5)
                        for i in range(d + 1) for j in range(d + 1 - i)])
        assert len(p.terms) > 10000
        w = (0.6 + 0.1j, 0.5j, -0.55)
        assert repr(gp._float_code((p,), 3, p)(w)[3]) == repr(loop_evaluator(p)(w))

    def test_source_holds_no_coefficients(self, monkeypatch):
        sources = []
        real_exec = exec
        monkeypatch.setattr(gp, "exec", lambda src, ns: (sources.append(src), real_exec(src, ns))[1],
                            raising=False)
        polys = (HomPoly(3, [((2, 0, 0), Fraction(7, 3)), ((0, 1, 1), 12345)]),)
        div = HomPoly(3, [((1, 0, 0), Fraction(11, 7)), ((0, 0, 1), -54321)])
        # the generators are memoised: start cold so that both run
        gp._float_code.cache_clear()
        gp._fixed_code.cache_clear()
        gp._float_code(polys, 3, div)
        gp._fixed_code(polys, 3, 180, div)
        # one source per map: the step, the run that inlines its lines, and the fold
        assert len(sources) == 2
        assert all("def step(w):" in src and "def points(" in src and "def heights(" in src for src in sources)
        shown = ["12345", "7/3", "2.33", "54321", "11/7", "1.57"]
        shown += [str(math.floor(c * 2**180)) for c in (Fraction(7, 3), Fraction(11, 7))]
        assert not any(c in src for src in sources for c in shown)


class TestGeneratedOrbit:
    # the squares of ‖F(w)‖ overflow at 53 bits, and the orbit loses its normalization
    LOST_NORM = make_map([pp(f"{10**160}*z^2 + w*t"), pp("w^2"), pp("t^2 + z*w")])

    @classmethod
    def maps(cls, stable, extracting, mono, family):
        yield stable[:2]
        yield extracting, None
        yield mono, None
        yield family[:2]
        yield cls.LOST_NORM, None

    @staticmethod
    def points():
        # the nodes of the slice base (0,0,1), e1 (1,0,0), e2 (0,1,0), whose
        # x = 0 column lies on the stable map's divisor, and random points
        rng = random.Random(24)
        axis = gp._axis(-1.0, 1.0, 9)
        yield from ((x, y, 1.0) for x in axis for y in axis)
        yield Z_FROZEN
        for _ in range(6):
            yield tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        yield from ((1, 0.5, 0.25), (0.001, 1, 1))

    @pytest.mark.parametrize("precision", [53, 64, 128])
    def test_matches_reference_loop(self, stable, extracting, mono, family, precision):
        outcomes = {}
        for f, cert in self.maps(stable, extracting, mono, family):
            runner = gp._OrbitRunner(f, cert, 32, precision)
            for z in self.points():
                w, gamma = runner.start(z)
                want = outcome(reference_run, runner, w, gamma)
                assert outcome(gp._OrbitRunner.run, runner, w, gamma) == want
                outcomes[f, z] = want
        kinds = {want[0] if isinstance(want, tuple) else "OK" for want in outcomes.values()}
        if precision > 53:
            assert kinds == {"OK", gp.OrbitHitDivisor, gp.OrbitHitIndeterminacy}
            return
        assert kinds == {"OK", gp.OrbitHitDivisor, gp.OrbitHitIndeterminacy, gp.OrbitError}
        lost = "orbit point lost normalization (norm 0.0)"
        assert outcomes[self.LOST_NORM, (1, 0.5, 0.25)] == (gp.OrbitError, 1, lost)
        assert outcomes[self.LOST_NORM, (0.001, 1, 1)] == (gp.OrbitError, 2, lost)

    @pytest.mark.parametrize("precision", [53, 128])
    def test_plain_runner_and_not_converged(self, stable, precision):
        # telescope_residual's plain plan reads hs from a step that carries H
        f, cert, _ = stable
        plain = gp._OrbitRunner(f, cert, 48, precision)
        plain.plan = gp._plan(DegreeRecurrence(d=3, h=0, n0=1), 5, precision <= 53)
        w, gamma = plain.start(Z_FROZEN)
        got = plain.run(w, gamma)
        assert repr(got) == repr(reference_run(plain, w, gamma))
        assert len(got[2]) == 5 and None not in got[2]
        with pytest.raises(gp.NotConverged) as exc:
            gp._OrbitRunner(f, cert, 3, precision).value(Z_FROZEN, 1e-9)
        assert exc.value.step == 3

    def test_long_orbit_scales_the_weights(self, stable):
        # at 53 bits the weights leave the float range at step 737
        f, cert, _ = stable
        runner = gp._OrbitRunner(f, cert, 800, 53)
        assert [row[0] for row in runner.plan if row[4]][0] == 737
        w, gamma = runner.start(Z_FROZEN)
        assert repr(runner.run(w, gamma)) == repr(reference_run(runner, w, gamma))

    def test_non_finite_height_is_refused(self, mono):
        # an infinite weight makes γ₁ infinite: the orbit raises at step 1 as the loop does
        runner = gp._OrbitRunner(mono, None, 3, 53)
        runner.plan[0] = (1, math.inf, 1.0, None, 0, -1)
        w, gamma = runner.start((1.5, 1, 1))
        want = outcome(reference_run, runner, w, gamma)
        assert want == (gp.OrbitError, 1, "non-finite log-height")
        assert outcome(gp._OrbitRunner.run, runner, w, gamma) == want


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fixture_maps():
    """The n0 = 2, quartic and P^3 fixtures with their certificates and lambda reports."""
    maps = []
    for name, depth in (("n0_2_qas.map", 4), ("quartic_qas.map", 3), ("p3_qas.map", 3)):
        f = load_map(FIXTURES / name)
        cert = infer_qas(iterate_degrees(f, depth)).certificate
        maps.append((f, cert, char_poly_roots(DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0))))
    return maps


def reference_green(f, cert, z, n_iters, precision):
    """green_eval without a tolerance, by reference_run."""
    runner = gp._OrbitRunner(f, cert, n_iters, precision)
    gammas, increments, _, _ = reference_run(runner, *runner.start(z))
    return runner.real(gammas[-1]), tuple(map(runner.real, increments))


class TestSharedRuns:
    """The residuals fold two potentials over one run where their starts coincide; outputs stay bit for bit."""

    @staticmethod
    def branches(monkeypatch):
        # counts of _same's answers: True where a residual folds a potential over a run it shares
        real, seen = gp._same, collections.Counter()

        def same(v, w):
            seen[sys._getframe(1).f_code.co_name, real(v, w)] += 1
            return real(v, w)

        monkeypatch.setattr(gp, "_same", same)
        return seen

    @staticmethod
    def counted(monkeypatch, step):
        # the points each run of step evaluates F at, per call of step.points
        runs, real = [], step.points

        def points(w, n):
            run = real(w, n)
            runs.append(len(run[0]))
            return run

        monkeypatch.setattr(step, "points", points)
        return runs

    @pytest.mark.parametrize("precision", [24, 53, 64, 128, 256])
    def test_matches_the_frozen_reference(self, monkeypatch, stable, extracting, mono, family,
                                          fixture_maps, precision):
        maps = [stable, (extracting, None, None), (mono, None, None), family] + fixture_maps
        seen = self.branches(monkeypatch)
        plane = gp.GridSlice((0, 0, 1), (1, 0, 0), (0, 1, 0))
        for f, cert, rep in maps:
            pad = (0.5,) * (f.nvars - 3)
            for z in TestGeneratedOrbit.points():
                z += pad
                assert result_of(lambda: gp.green_eval(f, cert, rep, z, n_iters=12, precision=precision)) == \
                    result_of(lambda: reference_green(f, cert, z, 12, precision))
                assert result_of(lambda: gp.functional_eq_residual(f, cert, rep, z, n_iters=12, precision=precision)) == \
                    result_of(lambda: reference_functional_eq(f, cert, rep, z, n_iters=12, precision=precision))
                for n, n_iters in ((2, 14), (3, 2)):
                    assert result_of(lambda: gp.telescope_residual(f, cert, rep, z, n, precision, n_iters)) == \
                        result_of(lambda: reference_telescope(f, cert, rep, z, n, precision, n_iters))
            sl = plane._replace(base=plane.base + pad, e1=plane.e1 + pad, e2=plane.e2 + pad)
            grid = gp.grid_sample(f, cert, rep, sl, 3, n_iters=12, precision=precision)
            with monkeypatch.context() as m:
                m.setattr(gp._OrbitRunner, "run", reference_run)
                want = gp.grid_sample(f, cert, rep, sl, 3, n_iters=12, precision=precision)
            assert grid == want and repr(grid) == repr(want)
        if precision in (53, 128):
            assert all(seen[residual, shared] for residual in ("functional_eq_residual", "telescope_residual")
                       for shared in (True, False))

    def test_runs_share_only_bit_for_bit_starts(self):
        # == takes -0.0 for 0.0, and a zero's sign can reach a value through x**k, k > 100
        assert gp._same((0.5 + 0j, 1j), (0.5 + 0j, 1j))
        assert (0.5 + 0j, 0j) == (0.5 + 0j, complex(0.0, -0.0))
        assert not gp._same((0.5 + 0j, 0j), (0.5 + 0j, complex(0.0, -0.0)))
        assert not gp._same((0.5 + 0j, 1j), (0.5 + 0j, 1.0000000000000002j))
        assert gp._same(((3, 4), (0, -1)), ((3, 4), (0, -1))) and not gp._same(((3, 4),), ((3, 5),))

    def test_fold_from_a_point_that_lost_its_normalization(self):
        # the run stops at the quotient whose norm was lost; a fold of the records after it
        # starts from that point and raises at its entry, as an orbit from the point does
        runner = gp._OrbitRunner(TestGeneratedOrbit.LOST_NORM, None, 3, 53)
        w, _ = runner.start((1, 0.5, 0.25))
        nfs, hs, last, lost = runner.step.points(w, 4)
        assert (len(nfs), last, lost) == (1, None, 0.0)
        nf, w1, _, _ = runner.step(w)
        want = outcome(reference_run, runner, w1, runner.log(nf))
        assert want == (gp.OrbitError, 0, "orbit point lost normalization (norm 0.0)")
        with pytest.raises(gp.OrbitError) as exc:
            runner.heights(runner.log(nfs[0]), (nfs[1:], hs[1:], last, lost))
        assert (type(exc.value), exc.value.step, str(exc.value)) == want

    @pytest.mark.parametrize("precision", [53, 128])
    def test_point_counts(self, monkeypatch, stable, precision):
        # F is evaluated at 41 points for the functional equation when start(w) is w, else
        # at 41 + 40; at 2 + 48 for the telescope when start(w_2) is w_2, else 2 + 46 + 48
        f, cert, rep = stable
        runner = gp._OrbitRunner(f, cert, 40, precision)
        runs = self.counted(monkeypatch, runner.step)
        is_start = lambda w: repr(runner.start(w)[0]) == repr(w)
        rng = random.Random(precision)
        kinds = collections.Counter()
        for _ in range(24):
            z = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
            w, _ = runner.start(z)
            w_2 = runner.step(runner.step(runner.start(w)[0])[1])[1]
            want = [("fe", [41] if is_start(w) else [41, 40]),
                    ("ts", [2, 48] if is_start(w_2) else [2, 46, 48]),
                    ("green", [40])]
            kinds.update(name + str(len(counts)) for name, counts in want)
            # two calls in a row: the second runs every point again
            for _ in range(2):
                got = []
                for call in (lambda: gp.functional_eq_residual(f, cert, rep, z, n_iters=40, precision=precision),
                             lambda: gp.telescope_residual(f, cert, rep, z, 2, precision=precision, n_iters=48),
                             lambda: gp.green_eval(f, cert, rep, z, n_iters=40, precision=precision)):
                    runs.clear()
                    call()
                    got.append(list(runs))
                assert got == [counts for _, counts in want]
        assert set(kinds) == {"fe1", "fe2", "ts2", "ts3", "green1"}

    @pytest.mark.parametrize("precision", [53, 128])
    def test_error_paths_of_shared_runs(self, monkeypatch, stable, precision):
        f, cert, rep = stable
        seen = self.branches(monkeypatch)
        residual = lambda g, c, r, z, n_iters: result_of(
            lambda: gp.functional_eq_residual(g, c, r, z, n_iters=n_iters, precision=precision))
        reference = lambda g, c, r, z, n_iters: result_of(
            lambda: reference_functional_eq(g, c, r, z, n_iters=n_iters, precision=precision))
        divisor = "orbit met the extracted divisor at step {}"
        # per case: the map, z, n_iters, the failure, and the run's point where F vanishes
        # at the step that raises, if any
        cases = [
            # F(z) lies on the divisor z = 0, which F maps into I(f): at step 2 of u(F(z)), the
            # run's last, the lagged divisor check outranks the indeterminacy check
            (stable, (-2, -1, 1), 2, (gp.OrbitHitDivisor, 2, divisor.format(2)), 2),
            # F(z) = (0, 0, -6) is a point of I(f): step 1 of u(F(z)), the run's step 2
            (stable, (-2, 1, 1), 1, (gp.OrbitHitIndeterminacy, 1, "orbit met an indeterminate point at step 1"), 1),
            # z on the divisor: u(z) meets it at step 2, where F vanishes too
            (stable, (0, 1, 0.7), 40, (gp.OrbitHitDivisor, 2, divisor.format(2)), 1),
        ]
        if precision == 53:
            cases += [
                # the squares of ‖F(F(z))‖ overflow: the run's step 2 loses the normalization
                ((TestGeneratedOrbit.LOST_NORM, None, None), (0.0015902012064902642, 2.271716009271806, 3.231118465312296),
                 1, (gp.OrbitError, 1, "orbit point lost normalization (norm 0.0)"), None),
            ]
        for (g, c, r), z, n_iters, want, vanishing in cases:
            seen.clear()
            assert residual(g, c, r, z, n_iters) == reference(g, c, r, z, n_iters) == want
            assert seen == {("functional_eq_residual", True): 1}
            if vanishing is not None:
                runner = gp._OrbitRunner(g, c, n_iters, precision)
                nfs = runner.step.points(runner.start(z)[0], n_iters + 1)[0]
                assert nfs[vanishing] < runner.tol
        if precision == 53:
            # ‖F(w)‖ is below the tolerance at w and above it at start(w), which is not w: u(z)
            # runs from start(w), and F(z) has no quotient
            z = ((1.3653020944735599+2.0866998250573602e-14j), (1.3653020944735539+1.1292287101224718e-14j),
                 (1.3653020944735457-1.2473799639778826e-14j))
            seen.clear()
            want = (gp.OrbitHitIndeterminacy, 0, "F vanishes at the input point")
            assert residual(*stable, z, 40) == reference(*stable, z, 40) == want
            assert seen == {("functional_eq_residual", False): 1}


class TestPreparedRunners:
    """Runner set-up is memoised once per process; each call still runs its own orbits."""

    @staticmethod
    def fresh(call):
        # the call with the set-up and plan caches emptied, so its runners are built anew
        gp._prepare.cache_clear()
        gp._plan.cache_clear()
        return call()

    @staticmethod
    def twin(stable):
        # an equal map, certificate and report, every object rebuilt from text
        f, cert, rep = stable
        g = make_map([pp(poly_to_text(c, NAMES)) for c in f.components])
        twin_cert = cert._replace(H=pp(poly_to_text(cert.H, NAMES)), degrees=tuple(list(cert.degrees)))
        twin_rep = char_poly_roots(DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0))
        assert (g, twin_cert) == (f, cert) and g is not f and g.components[0] is not f.components[0]
        assert twin_cert.H is not cert.H and twin_rep is not rep
        return g, twin_cert, twin_rep

    @pytest.mark.parametrize("precision", [53, 128, 256])
    def test_memoised_calls_equal_fresh_runners(self, stable, precision):
        f, cert, rep = stable
        twin = self.twin(stable)
        rng = random.Random(precision)
        points = [Z_FROZEN] + [tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
                               for _ in range(2)]

        def calls(f, cert, rep, z):
            return repr((gp.green_eval(f, cert, rep, z, n_iters=40, precision=precision),
                         gp.functional_eq_residual(f, cert, rep, z, n_iters=40, precision=precision),
                         gp.telescope_residual(f, cert, rep, z, 2, precision=precision, n_iters=48)))

        want = [self.fresh(lambda: calls(f, cert, rep, z)) for z in points]
        plane = gp.GridSlice((0, 0, 1), (1, 0, 0), (0, 1, 0))
        grid = self.fresh(lambda: gp.grid_sample(f, cert, rep, plane, 3, precision=precision))
        before = gp._prepare.cache_info()
        for z, w in zip(points, want):
            assert calls(f, cert, rep, z) == w
            assert calls(*twin, z) == w
            # calls that raised OrbitError leave no state behind
            with pytest.raises(gp.OrbitHitDivisor):
                gp.functional_eq_residual(f, cert, rep, (0, 1, 0.7), n_iters=40, precision=precision)
            with pytest.raises(gp.NotConverged):
                gp.green_eval(*twin, z, n_iters=3, precision=precision, converge_tol=0)
            assert calls(*twin, z) == w
            assert gp.grid_sample(*twin, plane, 3, precision=precision) == grid
            assert calls(f, cert, rep, z) == w
        # one set-up each for depths 40, 48 and 3; the twin's calls and the grid's found theirs
        after = gp._prepare.cache_info()
        assert after.misses - before.misses == 3
        assert after.hits - before.hits == 15 * len(points) - 3

    def test_refused_set_up_is_not_cached(self, stable, mono):
        f, cert, rep = stable
        before = gp._prepare.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="n_iters"):
                gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=0, precision=128)
            with pytest.raises(ValueError, match="degree"):
                gp._OrbitRunner(mono, cert, 40, 53)
        after = gp._prepare.cache_info()
        assert (after.misses - before.misses, after.currsize) == (4, before.currsize)
        assert after.maxsize == gp._plan.cache_info().maxsize == 32

    def test_a_runner_writes_only_its_own_plan(self, mono):
        # test_non_finite_height_is_refused writes a runner's plan in place: the
        # memoised plan is a tuple, and the next runner starts from it unchanged
        want = self.fresh(lambda: gp._OrbitRunner(mono, None, 3, 53).plan)
        runner = gp._OrbitRunner(mono, None, 3, 53)
        runner.plan[0] = (1, math.inf, 1.0, None, 0, -1)
        assert gp._OrbitRunner(mono, None, 3, 53).plan == want
        plan = gp._plan(DegreeRecurrence(d=2, h=0, n0=1), 3, True)
        assert isinstance(plan, tuple) and list(plan) == want
        with pytest.raises(TypeError):
            plan[0] = runner.plan[0]


def value_bound(polys):
    """The documented error bound E of the fixed-point values, in units of 2^-S."""
    return math.ceil(sum(2 * p.degree * abs(c) + 1 for p in polys for _, c in p.terms) + 2 * len(polys))


def fixed(v, scale):
    return tuple((math.floor(x.real * 2**scale), math.floor(x.imag * 2**scale)) for x in v)


def as_mpc(w, scale):
    return [mp.mpc(mpf(r) / 2**scale, mpf(i) / 2**scale) for r, i in w]


def one_shift_step(polys, div, S, W):
    """The fixed-point step by one shift per value, each coefficient floored at 2^S.

    The reference for the generated step: monomials are built in its
    order (a power from the next lower one, a product from its prefix),
    each complex product floored by one shift; a square's imaginary part
    2·re·im shifted by S is re·im shifted by S − 1, so squares need no
    case of their own.
    """
    monos = {}

    def mul(a, b):
        (ar, ai), (br, bi) = a, b
        return (ar * br - ai * bi) >> S, (ar * bi + ai * br) >> S

    def mono(factors):
        if factors not in monos:
            (i, k), rest = factors[-1], factors[:-1]
            monos[factors] = (mul(mono(rest), mono(factors[-1:])) if rest
                              else W[i] if k == 1 else mul(mono(((i, k - 1),)), W[i]))
        return monos[factors]

    def value(p):
        re = im = 0
        for e, c in p.terms:
            factors = tuple((i, k) for i, k in enumerate(e) if k)
            mr, mi = mono(factors) if factors else (1 << S, 0)
            re += math.floor(c * 2**S) * mr
            im += math.floor(c * 2**S) * mi
        return re >> S, im >> S

    ys = [value(p) for p in polys]
    nf = math.isqrt(sum(r * r + i * i for r, i in ys))
    h = math.isqrt(sum(x * x for x in value(div)))
    if nf < math.ceil(Fraction(gp._SINGULAR_TOL) * 2**S):
        return nf, None, 0.0, h
    q = tuple(((r << S) // nf, (i << S) // nf) for r, i in ys)
    return nf, q, math.sqrt(sum(r * r + i * i for r, i in q) / (1 << 2 * S)), h


def mixed_poly(rng, nvars, degree):
    """A random form whose coefficients mix ±1, small and huge ints, and fractions."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.choice([1, -1, rng.randint(-9, 9) or 2, rng.randint(-10**30, 10**30),
                                      Fraction(rng.randint(-20, 20) or 1, rng.randint(2, 13))])
    return HomPoly(nvars, terms.items())


class TestFixedPointStep:
    P = 96

    def test_integer_terms_equal_the_one_shift_rule(self):
        # integer coefficients multiply at 2^S outside the shift: bit for bit the same step
        rng = random.Random(23)
        for nvars in (1, 2, 3):
            for degree in (1, 2, 4):
                polys = tuple(mixed_poly(rng, nvars, degree) for _ in range(nvars))
                # divisors of other degrees, constants among them
                divs = [mixed_poly(rng, nvars, k) for k in (0, 0, 1, 3)]
                for S in (60, 117, 186):
                    for div in divs:
                        step = gp._fixed_code(polys, nvars, S, div)
                        points = [TestGeneratedStep().point(rng, nvars) for _ in range(4)]
                        for v in points:
                            X = fixed(v, S)
                            nz = math.isqrt(sum(r * r + i * i for r, i in X))
                            W = tuple(((r << S) // nz, (i << S) // nz) for r, i in X)
                            assert step(W) == one_shift_step(polys, div, S, W)
                        zero = ((0, 0),) * nvars
                        assert step(zero) == one_shift_step(polys, div, S, zero)

    @pytest.mark.parametrize("precision", [96, 128, 256])
    def test_green_eval_matches_double_precision_reference(self, stable, extracting, mono,
                                                            precision):
        f, cert, rep = stable
        rng = random.Random(precision)
        points = [Z_FROZEN] + [tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
                               for _ in range(20)]
        for fn, ct in ((f, cert), (extracting, None), (mono, None)):
            for z in points:
                u, hist = gp.green_eval(fn, ct, None, z, n_iters=40, precision=precision)
                # dyadic values of at most precision significant bits
                for x in (u, *hist):
                    assert isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0
                    assert abs(x.numerator).bit_length() <= precision
                want = mp_reference_u(fn, ct, z, 40, 2 * precision)
                with workprec(2 * precision):
                    assert abs(mpf_of(u) - want) <= mpf(2) ** (2 - precision) * max(1, abs(want))

    def check_step(self, polys, nvars, v):
        polys = tuple(polys)
        # v normalized as the orbit start and the step quotient do it
        S = self.P + gp._guard_bits(polys)
        X = fixed(v, S)
        nz = math.isqrt(sum(r * r + i * i for r, i in X))
        W = tuple(((r << S) // nz, (i << S) // nz) for r, i in X)
        with workprec(2 * self.P):
            x = as_mpc(W, S)
            assert max(abs(c) for c in x) <= 1 + mpf(2) ** (49 - S)
            fv = [mp_loop_evaluator(p)(x) for p in polys]
            for p, y in zip(polys, fv):
                ay = gp._fixed_code(polys, nvars, S, p)(W)[3]
                assert abs(mpf(ay) / 2**S - abs(y)) < mpf(value_bound([p]) + 1) / 2**S
            nf, q, nrm, _ = gp._fixed_code(polys, nvars, S)(W)
            want = mp_norm(fv)
            assert abs(mpf(nf) / 2**S - want) < mpf(value_bound(polys) + 1) / 2**S
            if want >= gp._SINGULAR_TOL:
                # the relative accuracy the guard bits promise
                assert abs(mpf(nf) / 2**S - want) <= want * mpf(2) ** -(self.P + 3)
                assert abs(nrm - 1) < 1e-12
                for a, b in zip(as_mpc(q, S), fv):
                    assert abs(a - b / want) <= mpf(2) ** -(self.P + 1)
        return want

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_matches_reference_within_bound(self, nvars):
        rng = random.Random(200 + nvars)
        for degree in (1, 2, 3, 5):
            polys = [random_poly(rng, nvars, degree) for _ in range(nvars)]
            for _ in range(10):
                self.check_step(polys, nvars, TestGeneratedStep().point(rng, nvars))

    def test_ten_thousand_terms(self):
        d = 146
        p = HomPoly(3, [((i, j, d - i - j), Fraction(1 + (i * j) % 5, 1 + i % 3))
                        for i in range(d + 1) for j in range(d + 1 - i)])
        self.check_step([p], 3, (0.6 + 0.1j, 0.5j, -0.55))

    def test_norm_just_above_the_singular_tolerance(self):
        # F = (z - w)·q with q of degree 2: at z - w = δ, ‖F(w)‖ = δ·‖q‖
        rng = random.Random(5)
        for _ in range(6):
            q = [random_poly(rng, 2, 2) for _ in range(3)]
            lin = HomPoly(2, [((1, 0), 1), ((0, 1), -1)])
            polys = [lin * p for p in q]
            a = cmath.rect(math.sqrt(0.5), rng.uniform(-math.pi, math.pi))
            qn = math.sqrt(sum(abs(loop_evaluator(p)((a, a))) ** 2 for p in q))
            for ratio in (1.01, 1.5, 8.0):
                delta = ratio * gp._SINGULAR_TOL / qn
                want = self.check_step(polys, 2, (a, a - delta))
                assert gp._SINGULAR_TOL * ratio * 0.9 < want < gp._SINGULAR_TOL * ratio * 1.1

    def test_greenpot_calls_no_mpmath(self, stable, monkeypatch):
        # greenpot imports no mpmath, and with mpmath unimportable the values above
        # 53 bits, log tables built afresh included, are those of a normal run
        tree = ast.parse(Path(gp.__file__).read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {m for m in imported if m and m.split(".")[0] == "mpmath"}
        f, cert, rep = stable
        calls = [lambda p: gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40, precision=p),
                 lambda p: gp.functional_eq_residual(f, cert, rep, Z_FROZEN, n_iters=40, precision=p),
                 lambda p: gp.telescope_residual(f, cert, rep, Z_FROZEN, 3, precision=p, n_iters=48)]
        precisions = (96, 128, 256)
        want = [call(p) for p in precisions for call in calls]
        gp._log_table.cache_clear()
        monkeypatch.setitem(sys.modules, "mpmath", None)
        monkeypatch.setitem(sys.modules, "mpmath.libmp", None)
        assert [call(p) for p in precisions for call in calls] == want

    def test_real_rounds_as_mpmath(self):
        # real() above 53 bits is x/2^S rounded half to even at the precision,
        # libmp.from_man_exp(x, -S, precision, round_nearest) as an exact Fraction
        rng = random.Random(54)
        cases = [(0, 128, 60), (1, 128, 60), (-1, 128, 60)]
        for _ in range(3000):
            precision = rng.choice((54, 64, 96, 128, 257))
            S = precision + rng.randint(40, 70)
            x = rng.getrandbits(rng.randint(1, S + 80))
            cases.append((x, S, precision))
            # exact ties, below and above, and carries through ones
            n = rng.randint(1, 80)
            tie = (rng.getrandbits(precision) << n) | (1 << (n - 1))
            cases += [(tie, S, precision), (tie - 1, S, precision), (tie + 1, S, precision),
                      (((1 << precision) - 1 << n) | (1 << (n - 1)), S, precision)]
        for x, S, precision in cases + [(-x, S, precision) for x, S, precision in cases]:
            want = libmp.from_man_exp(x, -S, precision, libmp.round_nearest)
            got = gp._round(x, S, precision)
            assert isinstance(got, Fraction)
            assert got == Fraction(*libmp.to_rational(want)), (x, S, precision)


class TestIntLog:
    def test_table_matches_mpmath(self, stable, mono):
        # every table width W = S + bitlen(S), S = precision + guard bits, at
        # precisions 54-1024 on the stable map with its H and on the monomial map,
        # against the table mpmath built: its logs at W + 30 bits, floored at 2^W
        f, cert, _ = stable
        widths = {S + S.bit_length() for polys in (f.components + (cert.H,), mono.components)
                  for S in range(54 + gp._guard_bits(polys), 1025 + gp._guard_bits(polys))}
        for W in sorted(widths):
            ln2, table = gp._log_table(W)
            assert ln2 == libmp.ln2_fixed(W + 64), W
            assert table == tuple(libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp(256 + j, -8), W + 30), W)
                                  for j in range(256)), W

    @staticmethod
    def error(num, den, S):
        got = gp._int_log(num, den, S)
        assert isinstance(got, int)
        with workprec(S + 64):
            return abs(got - (mp.log(num) - mp.log(den)) * mpf(2) ** S)

    @pytest.mark.parametrize("precision", [54, 96, 128, 256, 1024])
    def test_within_two_units(self, stable, precision):
        f, cert, _ = stable
        S = precision + gp._guard_bits(f.components + (cert.H,))
        rng = random.Random(precision)
        pairs = [(rng.getrandbits(rng.randint(1, S + 60)) | 1, rng.getrandbits(rng.randint(1, S + 60)) | 1)
                 for _ in range(200)]
        # exact powers of two, whose log is e·ln 2 alone
        pairs += [(1 << a, 1 << b) for a in (0, 1, 7, S, S + 50) for b in (0, 3, S)]
        # e·ln 2 far above 2^G units, as from a huge start point
        pairs += [(1 << 40 * S, 1), (3 << 40 * S, 5)]
        # y just below 2, and at and just above each table point b = 1 + j/256
        pairs += [((1 << S + 1) - 1, 1 << S), ((1 << S) - 1, 1)]
        for j in range(256):
            pairs += [(256 + j, 256), (((256 + j) << S - 8) + 1, 1 << S)]
        # the orbit's extremes: a value at the singular tolerance against 2^10
        tol = math.ceil(Fraction(gp._SINGULAR_TOL) * 2**S)
        pairs += [(tol, 1 << S + 10), (1 << S + 10, tol)]
        logs = [gp._int_log(n, d, S) for n, d in pairs]
        # negative logs: every pair also runs the other way round
        for num, den in pairs + [(d, n) for n, d in pairs]:
            assert self.error(num, den, S) <= 2, (num, den)
        assert min(logs) < 0 < max(logs)
        # num = den: the log is exactly 0
        for x in (1, 3, (1 << S) + 1, tol, 12345678987654321 << S):
            assert gp._int_log(x, x, S) == 0
