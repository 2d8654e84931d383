"""Linear conjugation as an oracle for the exact and the numeric layers.

For A in GL_3(Z) with an integral inverse, g = A f A^-1 has the degrees,
the stability verdict, n0 and NotQAS witness of f, and its divisor is
H_f(A^-1 y) up to a scalar.  Such an A keeps the content of integer
forms, so the primitive liftings of g^n are those of f^n conjugated and
u_g(A z) = u_f(z).  A permutation only reorders coefficients, so the
Green values agree to the last bit.  The shear changes every
coefficient, so its values agree to the truncation of the orbit, which
the final increments measure.
"""

from pathlib import Path

import pytest

from projdyn.family2 import build_family_map, random_family
from projdyn.greenpot import green_eval
from projdyn.mapiter import infer_qas, iterate_degrees, load_map, make_map
from projdyn.polycore import HomPoly, parse_poly, same_up_to_scalar

NAMES = ("z", "w", "t")
SHEAR = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
SHEAR_INV = ((1, -1, 1), (0, 1, -1), (0, 0, 1))
CYCLE = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
CYCLE_INV = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
# Gaussian points with coordinates in tenths, so A z is exact in decimal literals
POINTS = (
    ((9, 3), (-11, 4), (5, -7)),
    ((12, -5), (3, 8), (-6, 2)),
)


def pp(s):
    return parse_poly(s, NAMES)


def _linear_forms(mat):
    return [HomPoly(3, (((int(j == 0), int(j == 1), int(j == 2)), c) for j, c in enumerate(row)))
            for row in mat]


def _conjugate(f, mat, inv):
    """The map A f A^-1 for the integer matrix A = mat with inverse inv."""
    pulled = [c.compose(_linear_forms(inv)) for c in f.components]
    return make_map([sum((p * a for p, a in zip(pulled, row) if a), HomPoly.zero(3)) for row in mat],
                    NAMES)


def _tenths(k):
    """The decimal literal of k/10, exactly."""
    return f"{'-' * (k < 0)}{abs(k) // 10}.{abs(k) % 10}"


def _literal(x):
    re10, im10 = x
    return f"{_tenths(re10)}{'+' * (im10 >= 0)}{_tenths(im10)}j"


def _apply(mat, z):
    """A z on points in tenths, still in tenths."""
    return tuple(
        tuple(sum(a * x[part] for a, x in zip(row, z)) for part in (0, 1)) for row in mat
    )


def _stable():
    return build_family_map(
        pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t")
    ).map


def _extracting():
    return make_map([pp("z*w^2 - w^2*t"), pp("z*t^2 - w^2*t"), pp("z^2*w - w^2*t")], NAMES)


def _family():
    return random_family(1, 2, 5, 1).map


def _twisted():
    """The stable cubic twisted to QAS with n0 = 2, certified from depth 4."""
    return load_map(Path(__file__).parent / "fixtures" / "n0_2_qas.map")


# map builder, depth, verdict at that depth
MAPS = {
    "stable": (_stable, 3, "QAS"),
    "extracting": (_extracting, 4, "NotQAS"),
    "family-1-2-1": (_family, 3, "QAS"),
    "n0-2": (_twisted, 4, "QAS"),
}
QAS_MAPS = sorted(k for k, (_, _, verdict) in MAPS.items() if verdict == "QAS")
CONJUGATIONS = {"shear": (SHEAR, SHEAR_INV), "cycle": (CYCLE, CYCLE_INV)}


@pytest.fixture(scope="module")
def conjugated():
    """Per map: f, its trace, its inference, and per conjugation g with the same two."""
    out = {}
    for key, (build, depth, verdict) in MAPS.items():
        f = build()
        trace = iterate_degrees(f, depth)
        res = infer_qas(trace)
        assert res.verdict == verdict
        gs = {}
        for name, (mat, inv) in CONJUGATIONS.items():
            g = _conjugate(f, mat, inv)
            g_trace = iterate_degrees(g, depth)
            gs[name] = (g, g_trace, infer_qas(g_trace))
        out[key] = (f, trace, res), gs
    return out


def test_matrices_are_inverse():
    for mat, inv in CONJUGATIONS.values():
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in mat] == [
            [int(i == j) for j in range(3)] for i in range(3)
        ]


@pytest.mark.parametrize("name", sorted(CONJUGATIONS))
@pytest.mark.parametrize("key", sorted(MAPS))
def test_conjugate_keeps_degrees_verdict_and_divisor(conjugated, key, name):
    (_, trace, res_f), gs = conjugated[key]
    _, g_trace, res_g = gs[name]
    assert g_trace.degrees == trace.degrees
    assert (res_g.verdict, res_g.n0, res_g.witness) == (res_f.verdict, res_f.n0, res_f.witness)
    if res_f.verdict == "QAS":
        cert_f, cert_g = res_f.certificate, res_g.certificate
        assert (cert_g.n0, cert_g.h, cert_g.d, cert_g.degrees) == (
            cert_f.n0, cert_f.h, cert_f.d, cert_f.degrees
        )
    H_f, H_g = (res.certificate.H if res.certificate else res.H for res in (res_f, res_g))
    assert same_up_to_scalar(H_g, H_f.compose(_linear_forms(CONJUGATIONS[name][1])))


def _green_pairs(conjugated, key, name, precision):
    """(u_f(z), u_g(A z), the larger final increment) at each of POINTS, 40 steps."""
    (f, _, res_f), gs = conjugated[key]
    g, _, res_g = gs[name]
    mat = CONJUGATIONS[name][0]
    for z in POINTS:
        u_f, hist_f = green_eval(f, res_f.certificate, None, tuple(map(_literal, z)), 40, precision)
        az = tuple(map(_literal, _apply(mat, z)))
        u_g, hist_g = green_eval(g, res_g.certificate, None, az, 40, precision)
        yield u_f, u_g, max(hist_f[-1], hist_g[-1])


@pytest.mark.parametrize("precision", [53, 128])
@pytest.mark.parametrize("key", QAS_MAPS)
def test_permuted_green_values_agree_exactly(conjugated, key, precision):
    for u_f, u_g, _ in _green_pairs(conjugated, key, "cycle", precision):
        assert u_g == u_f


@pytest.mark.parametrize("key", QAS_MAPS)
def test_sheared_green_values_agree_to_the_orbit_truncation(conjugated, key):
    for u_f, u_g, _ in _green_pairs(conjugated, key, "shear", 53):
        assert abs(u_g - u_f) < 1e-12
    for u_f, u_g, inc in _green_pairs(conjugated, key, "shear", 128):
        assert abs(u_g - u_f) < 10 * inc
