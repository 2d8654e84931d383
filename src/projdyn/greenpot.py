"""Numeric evaluation of the Green potential of a stable map.

The potential u(z) = lim log‖Fₙ(z)‖ / dₙ is evaluated through a
normalized orbit recursion that never forms the huge lifted vectors:
the orbit keeps unit vectors wₙ and per-degree log-heights
γₙ = log‖Fₙ(z)‖ / dₙ, so all floating quantities stay bounded while
the exact integer degrees dₙ carry the growth.

Residual operations check the two identities the potential must
satisfy: the one-step functional equation
u(F(z)) = λ·u(z) + ((d−λ)/h)·log|H(z)| and its n-step telescoped
form.  Both are evaluated at the unit-normalized input point, which
pins the additive normalization; the identities then hold with no
floating constant.

Grid sampling, CSV/PGM export, and a discrete-Laplacian diagnostic
support visual inspection of u along 2-plane slices.
"""

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, workprec

from .mapiter import ProjMap, QASCertificate, ZeroVector, map_to_text
from .polycore import HomPoly, poly_to_text
from .specdeg import DegreeRecurrence, extend_degrees

__all__ = [
    "STATUS_OK",
    "STATUS_INDETERMINACY",
    "STATUS_DIVISOR",
    "STATUS_NOT_CONVERGED",
    "OrbitError",
    "OrbitHitIndeterminacy",
    "OrbitHitDivisor",
    "NotConverged",
    "AmplificationOverflow",
    "InsufficientOKRegion",
    "OrbitState",
    "GridSlice",
    "GreenGrid",
    "green_eval",
    "functional_eq_residual",
    "telescope_residual",
    "grid_sample",
    "laplacian_diagnostic",
    "export_grid_csv",
    "export_grid_pgm",
]

STATUS_OK = "OK"
STATUS_INDETERMINACY = "HitIndeterminacy"
STATUS_DIVISOR = "HitDivisor"
STATUS_NOT_CONVERGED = "NotConverged"

# orbits are declared singular when a norm drops below this times the
# working scale (unit after normalization); no silent perturbation
_SINGULAR_TOL = 1e-14

# every int below 2^1023 converts to a finite float
_FLOAT_INT_BITS = 1023


class OrbitError(Exception):
    """Base class for orbit evaluation failures."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class OrbitHitIndeterminacy(OrbitError):
    """The orbit reached a point where every component vanishes."""


class OrbitHitDivisor(OrbitError):
    """The orbit reached the divisor where the extracted form vanishes."""


class NotConverged(OrbitError):
    """The final per-step increment stayed above the requested tolerance."""


class AmplificationOverflow(OrbitError):
    """The telescoped identity would amplify noise beyond the precision."""


class InsufficientOKRegion(Exception):
    """The grid has no interior node with a complete 5-point stencil."""


# -- arithmetic engines -------------------------------------------------------


def _to_complex(x):
    if isinstance(x, Fraction):
        return complex(float(x))
    return complex(x)


class _FloatEngine:
    """Native double-precision arithmetic."""

    def vector(self, z):
        return tuple(_to_complex(x) for x in z)

    def norm(self, v):
        return math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in v))

    def log(self, r):
        return math.log(r)

    def absval(self, x):
        return abs(x)

    def compile(self, p: HomPoly):
        terms = [(_to_complex(c), e) for e, c in p.terms]

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


class _MPEngine:
    """Arbitrary-precision arithmetic at a fixed bit count."""

    def __init__(self, precision: int):
        self.precision = precision

    def vector(self, z):
        with workprec(self.precision):
            return tuple(mp.mpc(x) if not isinstance(x, Fraction)
                         else mp.mpf(x.numerator) / x.denominator for x in z)

    def norm(self, v):
        with workprec(self.precision):
            return mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))

    def log(self, r):
        with workprec(self.precision):
            return mp.log(r)

    def absval(self, x):
        return abs(x)

    def compile(self, p: HomPoly):
        with workprec(self.precision):
            terms = []
            for e, c in p.terms:
                if isinstance(c, Fraction):
                    terms.append((mp.mpf(c.numerator) / c.denominator, e))
                else:
                    terms.append((mp.mpf(c), e))
        prec = self.precision

        def ev(v):
            with workprec(prec):
                parts = []
                for c, e in terms:
                    t = c
                    for x, k in zip(v, e):
                        if k:
                            t = t * x**k
                    parts.append(t)
                return mp.fsum(parts)

        return ev


def _engine(precision: int):
    if precision < 24:
        raise ValueError("precision below 24 bits is not meaningful here")
    return _FloatEngine() if precision <= 53 else _MPEngine(precision)


# -- orbit state --------------------------------------------------------------


class OrbitState:
    """Ring buffer of the last `depth` normalized orbit points and heights.

    Entries are (unit vector w, per-degree log-height γ); the window is
    exactly big enough for the lagged recursion to reach back n0+1
    steps.  Pushing a non-unit vector or a non-finite height raises
    OrbitError instead of letting a NaN propagate.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.depth = depth
        self._entries = []
        self.n = -1

    def push(self, w, gamma):
        nrm = math.sqrt(sum(abs(complex(x)) ** 2 for x in w))
        if abs(nrm - 1.0) > 1e-6:
            raise OrbitError(f"orbit point lost normalization (norm {nrm})", step=self.n + 1)
        if not math.isfinite(float(gamma)):
            raise OrbitError("non-finite log-height", step=self.n + 1)
        self.n += 1
        self._entries.append((w, gamma))
        if len(self._entries) > self.depth:
            self._entries.pop(0)

    def _slot(self, step: int):
        offset = step - (self.n - len(self._entries) + 1)
        if not 0 <= offset < len(self._entries):
            raise IndexError(f"step {step} no longer buffered (window ends at {self.n})")
        return self._entries[offset]

    def point(self, step: int):
        return self._slot(step)[0]

    def gamma(self, step: int):
        return self._slot(step)[1]


# -- core orbit evaluation ----------------------------------------------------


def _check_cert(f: ProjMap, cert: Optional[QASCertificate]):
    if cert is None:
        return None
    if cert.d != f.degree:
        raise ValueError(f"certificate degree {cert.d} does not match the map degree {f.degree}")
    if cert.H.nvars != f.nvars:
        raise ValueError("certificate divisor arity does not match the map")
    return cert


def _run_orbit(f, cert, z, n_iters, precision, keep_all=False):
    """Drive the normalized recursion; return (gammas, points, increments).

    gammas[-1] is the u estimate after n_iters steps.  With keep_all
    the full lists come back; otherwise only the sliding window is
    retained internally and the returned lists hold what the caller
    needs: every γ and, in keep_all mode, every w.
    """
    cert = _check_cert(f, cert)
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    E = _engine(precision)
    v = E.vector(z)
    if len(v) != f.nvars:
        raise ZeroVector(f"point has {len(v)} coordinates, need {f.nvars}")
    nrm = E.norm(v)
    if nrm < _SINGULAR_TOL:
        raise ZeroVector("cannot evaluate at the zero vector")
    d = f.degree
    if cert is None:
        h, n0, Hc = 0, 1, None
    else:
        h, n0 = cert.h, cert.n0
        Hc = E.compile(cert.H)
    if d >= 2:
        degrees = extend_degrees(DegreeRecurrence(d=d, h=h, n0=n0), n_iters)
    elif cert is not None:
        raise ValueError("degree-1 maps take no divisor certificate")
    else:
        degrees = [1] * (n_iters + 1)
    comps = [E.compile(c) for c in f.components]

    w = tuple(x / nrm for x in v)
    gamma = E.log(nrm)
    state = OrbitState(n0 + 1)
    state.push(w, gamma)
    gammas = [gamma]
    points = [w] if keep_all else None
    increments = []
    for n in range(1, n_iters + 1):
        w_prev = state.point(n - 1)
        g_prev = state.gamma(n - 1)
        # the division by the lagged divisor value is part of forming
        # step n, so its failure outranks a vanishing forward image
        lag = n - n0 - 1
        hpart = None
        if cert is not None and lag >= 0:
            w_old = state.point(lag)
            g_old = state.gamma(lag)
            ah = E.absval(Hc(w_old))
            if ah < _SINGULAR_TOL:
                raise OrbitHitDivisor(
                    f"orbit met the extracted divisor at step {n}", step=n
                )
            hpart = (h * degrees[lag], E.log(ah))
        Fv = tuple(c(w_prev) for c in comps)
        nf = E.norm(Fv)
        if nf < _SINGULAR_TOL:
            raise OrbitHitIndeterminacy(
                f"orbit met an indeterminate point at step {n}", step=n
            )
        a, b, lg = d * degrees[n - 1], degrees[n], E.log(nf)
        k = a.bit_length() - _FLOAT_INT_BITS
        if k > 0 and isinstance(g_prev, float):
            # float(a) would overflow: divide numerator and denominator by
            # 2^k (exact int true division; power-of-two scaling commutes
            # with rounding, so only the overflow is avoided)
            s = 1 << k
            num = a / s * g_prev + math.ldexp(lg, -k)
            if hpart is not None:
                num -= hpart[0] / s * g_old + math.ldexp(hpart[1], -k)
            gamma = num / (b / s)
        else:
            num = a * g_prev + lg
            if hpart is not None:
                num -= hpart[0] * g_old + hpart[1]
            gamma = num / b
        increments.append(abs(gamma - g_prev))
        w = tuple(x / nf for x in Fv)
        state.push(w, gamma)
        gammas.append(gamma)
        if keep_all:
            points.append(w)
    return gammas, points, increments


def green_eval(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    z: Sequence,
    n_iters: int = 32,
    precision: int = 53,
    converge_tol: Optional[float] = None,
):
    """Potential estimate at z with the per-step convergence history.

    cert None means plain iteration (no divisor correction, h = 0).
    Returns (u, history) where history[n-1] = |γₙ − γ_{n−1}|.  The
    final iterate is reported as the estimate; when converge_tol is
    given and the last increment exceeds it, NotConverged is raised
    instead of returning a value silently off target.
    """
    del lambda_report  # reserved for tolerance heuristics; degrees suffice here
    gammas, _, increments = _run_orbit(f, cert, z, n_iters, precision)
    if converge_tol is not None and increments[-1] > converge_tol:
        raise NotConverged(
            f"increment {float(increments[-1]):.3e} above {converge_tol:.3e} "
            f"after {n_iters} steps",
            step=n_iters,
        )
    return gammas[-1], tuple(increments)


def _normalized_input(f: ProjMap, z, precision):
    E = _engine(precision)
    v = E.vector(z)
    if len(v) != f.nvars:
        raise ZeroVector(f"point has {len(v)} coordinates, need {f.nvars}")
    nrm = E.norm(v)
    if nrm < _SINGULAR_TOL:
        raise ZeroVector("cannot evaluate at the zero vector")
    return E, tuple(x / nrm for x in v)


def functional_eq_residual(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    z: Sequence,
    n_iters: int = 40,
    precision: int = 53,
) -> float:
    """|u(F(z)) − λ·u(z) − ((d−λ)/h)·log|H(z)|| at the unit-normalized z.

    Both potentials are evaluated with the same normalization (the
    input is scaled to the unit sphere first), which is what makes the
    identity hold without a floating additive constant.  In plain
    (h = 0) mode the residual is |u(F(z)) − d·u(z)| and λ defaults to
    the degree.
    """
    cert = _check_cert(f, cert)
    E, w = _normalized_input(f, z, precision)
    lam = float(lambda_report.lambda_) if lambda_report is not None else float(f.degree)
    u_z, _ = green_eval(f, cert, None, w, n_iters=n_iters, precision=precision)
    comps = [E.compile(c) for c in f.components]
    Fw = tuple(c(w) for c in comps)
    if E.norm(Fw) < _SINGULAR_TOL:
        raise OrbitHitIndeterminacy("F vanishes at the input point", step=0)
    u_fz, _ = green_eval(f, cert, None, Fw, n_iters=n_iters, precision=precision)
    if cert is None:
        return abs(u_fz - lam * u_z)
    ah = E.absval(E.compile(cert.H)(w))
    if ah < _SINGULAR_TOL:
        raise OrbitHitDivisor("input point lies on the extracted divisor", step=0)
    coef = (f.degree - lam) / cert.h
    return abs(u_fz - lam * u_z - coef * E.log(ah))


def telescope_residual(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    z: Sequence,
    n: int,
    precision: int = 53,
    n_iters: int = 48,
) -> float:
    """Residual of the n-step telescoped identity, scaled by λ^{−n}.

    u(Fⁿ(z)) − λⁿ·u(z) − ((d−λ)/h)·Σ_{j=1..n} λ^{j−1}·log|H(F^{n−j}(z))|
    with Fᵐ the plain m-fold composition of the chosen lifting, which
    is the telescoping that unrolls the one-step equation.  The input
    is unit-normalized first; orbit heights stay in normalized (γ, w)
    form, so nothing overflows even though log‖Fᵐ(z)‖ grows like dᵐ.
    """
    cert = _check_cert(f, cert)
    if n < 1:
        raise ValueError("n must be at least 1")
    if lambda_report is not None:
        lam = float(lambda_report.lambda_) if precision <= 53 else mp.mpf(lambda_report.lambda_)
    else:
        lam = float(f.degree) if precision <= 53 else mp.mpf(f.degree)
    digits = precision * math.log10(2)
    if n * math.log10(max(float(lam), 1.0 + 1e-9)) > digits - 6:
        raise AmplificationOverflow(
            f"lambda^{n} exceeds the usable precision ({precision} bits)", step=n
        )
    _, w = _normalized_input(f, z, precision)
    # plain-composition orbit: heights scale by d^m, no extraction
    gammas, points, _ = _run_orbit(f, None, w, n, precision, keep_all=True)
    u_z, _ = green_eval(f, cert, None, w, n_iters=n_iters, precision=precision)
    u_wn, _ = green_eval(f, cert, None, points[n], n_iters=n_iters, precision=precision)
    d = f.degree
    u_fnz = d**n * gammas[n] + u_wn
    if cert is None:
        return abs(u_fnz - lam**n * u_z) / lam**n
    E = _engine(precision)
    Hc = E.compile(cert.H)
    acc = 0 * lam
    for j in range(1, n + 1):
        m = n - j
        ah = E.absval(Hc(points[m]))
        if ah < _SINGULAR_TOL:
            raise OrbitHitDivisor(f"orbit met the divisor at step {m}", step=m)
        log_h = cert.h * d**m * gammas[m] + E.log(ah)
        acc += lam ** (j - 1) * log_h
    coef = (d - lam) / cert.h
    return abs(u_fnz - lam**n * u_z - coef * acc) / lam**n


# -- grid sampling ------------------------------------------------------------


@dataclass(frozen=True)
class GridSlice:
    """A 2-plane window base + x·e1 + y·e2 over a real parameter box."""

    base: tuple
    e1: tuple
    e2: tuple
    x_range: tuple = (-1.0, 1.0)
    y_range: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class GreenGrid:
    """Sampled potential values over a slice; values are None off-status."""

    slice: GridSlice
    resolution: int
    values: tuple
    status: tuple
    meta: dict = field(compare=False)


def _independent(e1, e2) -> bool:
    # real-linear independence: e2 = i*e1 still spans a 2-plane, so the
    # test flattens to real coordinates and checks the Gram determinant
    u = [p for x in e1 for p in (_to_complex(x).real, _to_complex(x).imag)]
    v = [p for x in e2 for p in (_to_complex(x).real, _to_complex(x).imag)]
    uu = sum(a * a for a in u)
    vv = sum(a * a for a in v)
    uv = sum(a * b for a, b in zip(u, v))
    return uu * vv - uv * uv > 1e-24 * max(uu * vv, 1e-300)


def _grid_digest(f: ProjMap, cert: Optional[QASCertificate]) -> str:
    blob = map_to_text(f)
    if cert is None:
        blob += "mode=plain"
    else:
        blob += f"H={poly_to_text(cert.H)};d={cert.d};h={cert.h};n0={cert.n0}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _axis(lo, hi, resolution):
    if resolution == 1:
        return [float(lo)]
    step = (float(hi) - float(lo)) / (resolution - 1)
    return [float(lo) + i * step for i in range(resolution)]


def grid_sample(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    slice_spec: GridSlice,
    resolution: int,
    n_iters: int = 32,
    precision: int = 53,
    converge_tol: float = 1e-6,
    workers: Optional[int] = None,
) -> GreenGrid:
    """Evaluate the potential on a resolution² grid over the slice.

    Per-node failures become status entries, never exceptions; the
    assembly is deterministic regardless of the worker count (workers
    defaults to the PROJDYN_WORKERS environment variable).
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if not _independent(slice_spec.e1, slice_spec.e2):
        raise ValueError("direction vectors must be linearly independent")
    if workers is None:
        workers = max(1, int(os.environ.get("PROJDYN_WORKERS", "1")))
    xs = _axis(*slice_spec.x_range, resolution)
    ys = _axis(*slice_spec.y_range, resolution)
    base = [_to_complex(b) for b in slice_spec.base]
    e1 = [_to_complex(x) for x in slice_spec.e1]
    e2 = [_to_complex(x) for x in slice_spec.e2]

    def node(ij):
        i, j = ij
        z = tuple(b + xs[i] * a + ys[j] * c for b, a, c in zip(base, e1, e2))
        try:
            u, _ = green_eval(
                f, cert, lambda_report, z,
                n_iters=n_iters, precision=precision, converge_tol=converge_tol,
            )
            return float(u), STATUS_OK
        except (OrbitHitIndeterminacy, ZeroVector):
            return None, STATUS_INDETERMINACY
        except OrbitHitDivisor:
            return None, STATUS_DIVISOR
        except NotConverged:
            return None, STATUS_NOT_CONVERGED

    indices = [(i, j) for i in range(resolution) for j in range(resolution)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(node, indices))
    else:
        results = [node(ij) for ij in indices]
    values = tuple(
        tuple(results[i * resolution + j][0] for j in range(resolution))
        for i in range(resolution)
    )
    status = tuple(
        tuple(results[i * resolution + j][1] for j in range(resolution))
        for i in range(resolution)
    )
    meta = {
        "depth": n_iters,
        "precision": precision,
        "certificate": _grid_digest(f, cert),
    }
    return GreenGrid(
        slice=slice_spec, resolution=resolution, values=values, status=status, meta=meta
    )


def laplacian_diagnostic(grid: GreenGrid):
    """5-point discrete Laplacian magnitudes on interior OK nodes.

    Entries are None wherever the stencil is incomplete.  Large values
    flag candidate non-harmonic locus; this is advisory only.
    """
    res = grid.resolution
    xs = _axis(*grid.slice.x_range, res)
    ys = _axis(*grid.slice.y_range, res)
    if res < 3:
        raise InsufficientOKRegion("grid too small for any 5-point stencil")
    sx = xs[1] - xs[0]
    sy = ys[1] - ys[0]
    ok = grid.status
    u = grid.values
    out = [[None] * res for _ in range(res)]
    complete = 0
    for i in range(1, res - 1):
        for j in range(1, res - 1):
            sten = (
                (i, j), (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)
            )
            if any(ok[a][b] != STATUS_OK for a, b in sten):
                continue
            lap = (u[i + 1][j] - 2 * u[i][j] + u[i - 1][j]) / (sx * sx) + (
                u[i][j + 1] - 2 * u[i][j] + u[i][j - 1]
            ) / (sy * sy)
            out[i][j] = abs(lap)
            complete += 1
    if complete == 0:
        raise InsufficientOKRegion("no interior node has a complete OK stencil")
    return tuple(tuple(row) for row in out)


# -- exports ------------------------------------------------------------------


def export_grid_csv(grid: GreenGrid, path) -> None:
    """Rows x,y,u,status; u empty for non-OK nodes; row-major in x then y."""
    xs = _axis(*grid.slice.x_range, grid.resolution)
    ys = _axis(*grid.slice.y_range, grid.resolution)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,u,status\n")
        for i in range(grid.resolution):
            for j in range(grid.resolution):
                v = grid.values[i][j]
                cell = repr(v) if v is not None else ""
                fh.write(f"{xs[i]!r},{ys[j]!r},{cell},{grid.status[i][j]}\n")


def _complex_pairs(vec):
    return [[_to_complex(x).real, _to_complex(x).imag] for x in vec]


def export_grid_pgm(grid: GreenGrid, path) -> None:
    """Plain 16-bit PGM; OK nodes map linearly to [1, 65535], others to 0.

    A sidecar JSON (path + '.json') records the value range, the slice,
    the depth and precision, and the certificate digest.
    """
    res = grid.resolution
    flat = [v for row in grid.values for v in row if v is not None]
    lo = min(flat) if flat else None
    hi = max(flat) if flat else None
    span = (hi - lo) if flat else None

    def shade(v):
        if v is None:
            return 0
        if span == 0:
            return 65535
        return 1 + round((v - lo) / span * 65534)

    lines = ["P2", f"{res} {res}", "65535"]
    # image rows follow the y index, columns the x index
    for j in range(res):
        lines.append(" ".join(str(shade(grid.values[i][j])) for i in range(res)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "min": lo,
        "max": hi,
        "slice": {
            "base": _complex_pairs(grid.slice.base),
            "e1": _complex_pairs(grid.slice.e1),
            "e2": _complex_pairs(grid.slice.e2),
            "x_range": [float(v) for v in grid.slice.x_range],
            "y_range": [float(v) for v in grid.slice.y_range],
        },
        "depth": grid.meta["depth"],
        "precision": grid.meta["precision"],
        "certificate": grid.meta["certificate"],
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
