"""Acceptance gate: one end-to-end test per pinned requirement.

Seeds, tolerances, and expected values are frozen.  Two maps recur
throughout: the "reference instance" built from P = z,
Q = (w^2 + z*t, t^2 + z*w, 2*w*t), R = 2*w^2*t, and the monomial map
(z^2, w^2, t^2) whose escape potential has a closed form.

The reference instance passes the full preflight (pencil included) and
realizes the QAS degree sequence 1, 3, 8, 21, 55 with divisor H = z.
An earlier fixture, P = z, Q = (w^2, t^2, z*w), R = w^2*t, lies outside
the family's hypotheses: Q3 = z*w is divisible by P, so the pencil check
fails, and its exact degrees are 1, 3, 7, 16, 37 (NotQAS).  Those forms
remain in test_cli.py as the NotQAS ``drops`` map.  The frozen expected
values were kept; only the instance and, in the convergence pin, the
quantity compared against lambda changed: d_n^{1/n} approaches lambda
only at rate O(1/n), while d_n / d_{n-1} converges geometrically.
"""

import json
import math
import random
import statistics
import time
from fractions import Fraction

import pytest
from mpmath import mp

from projdyn.cli import main
from projdyn.family2 import (
    build_family_map,
    check_coprimality,
    check_rank_and_pencil,
    random_family,
    run_preflight,
)
from projdyn.greenpot import OrbitError, functional_eq_residual, green_eval
from projdyn.mapiter import (
    QASCertificate,
    infer_qas,
    iterate_degrees,
    make_map,
    save_map,
    verify_lifting_recurrence,
)
from projdyn.polycore import (
    exact_div,
    parse_poly,
    poly_gcd,
    poly_to_text,
    random_hompoly,
    same_up_to_scalar,
)
from projdyn.specdeg import (
    DegreeRecurrence,
    char_poly_roots,
    check_asymptotics,
    check_growth_bounds,
    check_sn_identity,
    extend_degrees,
)

NAMES = ("z", "w", "t")
GOLDEN = DegreeRecurrence(d=3, h=1, n0=1)


def pp(s):
    return parse_poly(s, NAMES)


def _random_point(rng):
    return tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))


def _unit_point(rng):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return tuple(c / norm for c in v)


def _reference_certificate():
    return QASCertificate(
        n0=1, H=pp("z"), h=1, d=3, verified_to=4, degrees=(1, 3, 8, 21, 55)
    )


@pytest.fixture(scope="module")
def reference():
    return build_family_map(
        pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t")
    )


@pytest.fixture(scope="module")
def mono_map():
    return make_map([pp("z^2"), pp("w^2"), pp("t^2")])


def test_reference_instance_degree_sequence(reference):
    start = time.monotonic()
    trace = iterate_degrees(reference.map, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert extend_degrees(GOLDEN, 4) == [1, 3, 8, 21, 55]
    assert list(trace.degrees) == [1, 3, 8, 21, 55]


def test_reference_instance_divisor_certificate(reference):
    trace = iterate_degrees(reference.map, 4)
    res = infer_qas(trace)
    assert res.verdict == "QAS"
    cert = res.certificate
    assert cert.n0 == 1
    assert same_up_to_scalar(cert.H, pp("z"))
    for n in (2, 3, 4):
        assert verify_lifting_recurrence(reference.map, cert, trace, n)


def test_dominant_root_and_degree_convergence():
    rep = char_poly_roots(GOLDEN, precision_bits=128)
    lam = float(rep.lambda_)
    assert abs(lam - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
    assert rep.r == 1
    degrees = extend_degrees(GOLDEN, 20)
    assert abs(degrees[20] / degrees[19] - lam) < 0.01
    # d_n = lambda^n (Q + o(1)), so d_n^{1/n} - lambda = lambda (Q^{1/n} - 1)
    # up to an exponentially small error
    predicted_gap = lam * (float(rep.Q_fit[0]) ** (1 / 20) - 1.0)
    assert abs((degrees[20] ** (1 / 20) - lam) - predicted_gap) < 1e-9


def test_root_identity_vanishes_at_high_precision():
    rep = char_poly_roots(GOLDEN, precision_bits=240)
    degrees = extend_degrees(GOLDEN, 20)
    with mp.workdps(64):
        worst = check_sn_identity(GOLDEN, rep.lambda_, degrees, 20)
    assert float(worst) < 1e-9


def test_growth_constants_and_residual_decay():
    rep = char_poly_roots(GOLDEN, precision_bits=128)
    c1, c2 = check_growth_bounds(extend_degrees(GOLDEN, 10_000), rep.lambda_)
    assert math.isfinite(float(c1)) and math.isfinite(float(c2))
    arep = check_asymptotics(extend_degrees(GOLDEN, 40), rep)
    assert arep.residuals[30] < 1e-3 * arep.residuals[5]


def test_monomial_green_matches_closed_form(mono_map):
    rng = random.Random(2026)
    worst_value_gap = 0.0
    worst_residual = 0.0
    for _ in range(1000):
        z = _random_point(rng)
        u, _ = green_eval(mono_map, None, None, z, n_iters=48)
        oracle = max(math.log(abs(c)) for c in z if c != 0)
        worst_value_gap = max(worst_value_gap, abs(u - oracle))
        worst_residual = max(
            worst_residual, functional_eq_residual(mono_map, None, None, z)
        )
    assert worst_value_gap < 1e-9
    assert worst_residual < 1e-9


def test_functional_equation_on_reference_instance(reference):
    cert = _reference_certificate()
    rep = char_poly_roots(GOLDEN, precision_bits=128)
    rng = random.Random(701)
    shallow, deep = [], []
    for _ in range(200):
        z = _unit_point(rng)
        try:
            deep.append(
                functional_eq_residual(reference.map, cert, rep, z, n_iters=40)
            )
            shallow.append(
                functional_eq_residual(reference.map, cert, rep, z, n_iters=10)
            )
        except OrbitError:
            continue
    assert sum(1 for r in deep if r < 1e-3) >= 190
    assert statistics.median(deep) < statistics.median(shallow)


def test_green_scaling_homogeneity(mono_map, reference):
    rng = random.Random(83)
    cases = ((mono_map, None), (reference.map, _reference_certificate()))
    for f, cert in cases:
        for _ in range(100):
            z = _random_point(rng)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            s = rng.uniform(0.3, 2.5) * complex(math.cos(angle), math.sin(angle))
            u, _ = green_eval(f, cert, None, z, n_iters=40)
            u_s, _ = green_eval(f, cert, None, tuple(s * c for c in z), n_iters=40)
            assert abs(u_s - math.log(abs(s)) - u) < 1e-8


def test_preflight_rank_and_coprimality(reference):
    assert check_coprimality(reference) == "PASS"
    assert run_preflight(reference).overall == "PASS"
    rank_rep, _ = check_rank_and_pencil(reference)
    assert rank_rep.rank == 2
    for seed in range(50):
        inst = random_family(1, 2, 3, seed)
        inst_rank, _ = check_rank_and_pencil(inst)
        assert inst_rank.rank <= 2


def test_polynomial_engine_property_suites():
    rng = random.Random(424242)

    def draw(deg, terms=3, bound=4):
        while True:
            p = random_hompoly(rng, 3, deg, terms, bound)
            if not p.is_zero:
                return p

    for _ in range(1000):
        a = draw(rng.randint(1, 2))
        b = draw(rng.randint(1, 2))
        c = draw(rng.randint(1, 2), terms=2, bound=3)
        p, q = a * c, b * c
        g = poly_gcd(p, q)
        assert exact_div(p, g) * g == p
        assert exact_div(q, g) * g == q
        assert poly_gcd(g, c).degree == c.degree

    for _ in range(100):
        deg = rng.randint(1, 3)
        a, b = draw(deg), draw(deg)
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)

    for _ in range(500):
        p = draw(rng.randint(1, 4), terms=5, bound=9)
        assert parse_poly(poly_to_text(p, NAMES), NAMES) == p


def test_verify_all_byte_identical(reference, tmp_path, capsys):
    path = tmp_path / "map.txt"
    save_map(reference.map, path)
    argv = ["verify-all", "--map", str(path), "--n", "4", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["passed"] is True
