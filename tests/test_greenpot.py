"""Potential evaluation: closed-form oracle, identities, grids, exports.

The coordinatewise-square map has the closed-form potential
u(z) = max_i log|z_i|, which pins every convention (norm, base point
normalization, history) independently of the orbit recursion.  The
quadratically stable cubic instance exercises the divisor-corrected
recursion and both residual identities.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from projdyn.family2 import build_family_map
from projdyn.mapiter import ZeroVector, infer_qas, iterate_degrees, make_map
from projdyn.polycore import parse_poly
from projdyn.specdeg import DegreeRecurrence, char_poly_roots, extend_degrees
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


def mono_closed_form(z):
    return max(math.log(abs(c)) for c in z)


Z_FROZEN = (0.9 + 0.3j, -1.1 + 0.4j, 0.5 - 0.7j)


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


class TestOrbitErrors:
    def test_divisor_hit_at_lag_step(self, stable):
        f, cert, rep = stable
        # the divisor {z=0} enters the recursion at step n0+1 = 2
        with pytest.raises(gp.OrbitHitDivisor) as exc:
            gp.green_eval(f, cert, rep, (0, 1, 0.7), n_iters=10)
        assert exc.value.step == cert.n0 + 1

    def test_indeterminacy_hit(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.OrbitHitIndeterminacy) as exc:
            gp.green_eval(f, cert, rep, (1, 1, 1), n_iters=10)
        assert exc.value.step == 1

    def test_not_converged(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.NotConverged):
            gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=3, converge_tol=1e-9)
        u, _ = gp.green_eval(f, cert, rep, Z_FROZEN, n_iters=40, converge_tol=1e-9)
        assert math.isfinite(u)

    def test_orbit_state_ring_window(self):
        st = gp.OrbitState(2)
        for k in range(4):
            st.push((1.0, 0.0, 0.0), float(k))
        assert st.n == 3
        assert st.gamma(3) == 3.0 and st.gamma(2) == 2.0
        with pytest.raises(IndexError):
            st.point(1)

    def test_orbit_state_rejects_bad_entries(self):
        st = gp.OrbitState(2)
        with pytest.raises(gp.OrbitError):
            st.push((2.0, 0.0, 0.0), 0.0)
        with pytest.raises(gp.OrbitError):
            st.push((1.0, 0.0, 0.0), float("nan"))


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

    def test_telescope_amplification_guard(self, stable):
        f, cert, rep = stable
        with pytest.raises(gp.AmplificationOverflow):
            gp.telescope_residual(f, cert, rep, Z_FROZEN, 200)
        with pytest.raises(ValueError):
            gp.telescope_residual(f, cert, rep, Z_FROZEN, 0)


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

    def test_deterministic_and_worker_independent(self, stable, monkeypatch):
        f, cert, rep = stable
        sl = gp.GridSlice(base=(1.0, 0.3, 0.5), e1=(0.0, 1.0, 0.0), e2=(0.0, 0.0, 1.0))
        g1 = gp.grid_sample(f, cert, rep, sl, 4, n_iters=25)
        g2 = gp.grid_sample(f, cert, rep, sl, 4, n_iters=25)
        assert g1 == g2
        monkeypatch.setenv("PROJDYN_WORKERS", "3")
        g3 = gp.grid_sample(f, cert, rep, sl, 4, n_iters=25)
        assert g1.values == g3.values and g1.status == g3.status

    def test_meta_records_run(self, divisor_slice_grid):
        meta = divisor_slice_grid.meta
        assert meta["depth"] == 30 and meta["precision"] == 53
        assert len(meta["certificate"]) == 64
        assert all(c in "0123456789abcdef" for c in meta["certificate"])

    def test_complex_direction_pair_is_a_plane(self, mono):
        # e2 = i*e1 is complex-proportional yet spans a real 2-plane
        sl = gp.GridSlice(base=(1.0, 0.0, 0.5), e1=(0.0, 1.0, 0.0), e2=(0.0, 1j, 0.0))
        g = gp.grid_sample(mono, None, None, sl, 2, n_iters=20)
        assert all(s == gp.STATUS_OK for row in g.status for s in row)

    def test_dependent_directions_rejected(self, mono):
        sl = gp.GridSlice(base=(1, 0, 0), e1=(0, 1, 0), e2=(0, 2, 0))
        with pytest.raises(ValueError):
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


def synthetic_grid(fn, res=7, lo=-1.0, hi=1.0):
    xs = [lo + i * (hi - lo) / (res - 1) for i in range(res)]
    values = tuple(tuple(fn(xs[i], xs[j]) for j in range(res)) for i in range(res))
    status = tuple((gp.STATUS_OK,) * res for _ in range(res))
    sl = gp.GridSlice(base=(1, 0, 0), e1=(0, 1, 0), e2=(0, 0, 1), x_range=(lo, hi), y_range=(lo, hi))
    return gp.GreenGrid(slice=sl, resolution=res, values=values, status=status, meta={})


class TestLaplacian:
    def test_affine_is_flat(self):
        grid = synthetic_grid(lambda x, y: 0.3 + 2 * x - 0.7 * y)
        lap = gp.laplacian_diagnostic(grid)
        vals = [v for row in lap for v in row if v is not None]
        assert vals and max(vals) < 1e-12

    def test_paraboloid_gives_four(self):
        lap = gp.laplacian_diagnostic(synthetic_grid(lambda x, y: x * x + y * y))
        assert abs(lap[3][3] - 4.0) < 1e-9
        assert lap[0][0] is None and lap[0][3] is None

    def test_insufficient_region(self):
        small = synthetic_grid(lambda x, y: x, res=2)
        with pytest.raises(gp.InsufficientOKRegion):
            gp.laplacian_diagnostic(small)
        bad = gp.GreenGrid(
            slice=small.slice,
            resolution=3,
            values=((None,) * 3,) * 3,
            status=((gp.STATUS_DIVISOR,) * 3,) * 3,
            meta={},
        )
        with pytest.raises(gp.InsufficientOKRegion):
            gp.laplacian_diagnostic(bad)

    def test_monomial_mass_concentrates_on_branch_switch(self, mono):
        # slice (1, x+iy, 0.5): u = max(0, log|x+iy|, log 0.5) kinks on |x+iy| = 1
        sl = gp.GridSlice(
            base=(1.0, 0.0, 0.5),
            e1=(0.0, 1.0, 0.0),
            e2=(0.0, 1j, 0.0),
            x_range=(-1.5, 1.5),
            y_range=(-1.5, 1.5),
        )
        g = gp.grid_sample(mono, None, None, sl, 9, n_iters=40)
        lap = gp.laplacian_diagnostic(g)
        xs = [-1.5 + i * 3 / 8 for i in range(9)]
        ring = interior = 0.0
        for i in range(1, 8):
            for j in range(1, 8):
                if lap[i][j] is None:
                    continue
                r = math.hypot(xs[i], xs[j])
                if abs(r - 1.0) < 0.25:
                    ring = max(ring, lap[i][j])
                elif r < 0.5:
                    interior = max(interior, lap[i][j])
        assert ring > 1.0 and interior < 1e-10
