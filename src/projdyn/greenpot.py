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

import cmath
import hashlib
import json
import math
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


# -- arithmetic ---------------------------------------------------------------


def _to_complex(x):
    if isinstance(x, Fraction):
        return complex(float(x))
    return complex(x)


def _float_norm(v):
    return math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in v))


def _square(y):
    return f"({y}.real * {y}.real + {y}.imag * {y}.imag)"


def _float_code(polys, nvars, step=True):
    """Straight-line 53-bit evaluator of polys, generated once per map.

    With step the function maps a point w to (‖F(w)‖, F(w)/‖F(w)‖,
    norm of that quotient); the quotient is None when ‖F(w)‖ is below
    the singular tolerance.  Without step it returns the value of the
    single polynomial.  The float operations are those of a per-term
    loop, so values are bit-identical to it: each value starts at 0j
    and adds c·x_i**k_i (left to right, ** for k ≥ 2) in p.terms order,
    and the norm sums parenthesized per-coordinate squares.  Powers
    x_i**k are shared across the polynomials.  The coefficients are
    names bound in the namespace; the source holds only indices and
    exponents.
    """
    ns = {"sqrt": math.sqrt, "TOL": _SINGULAR_TOL}
    xs = [f"x{i}" for i in range(nvars)]
    powers, values = {}, []
    for j, p in enumerate(polys):
        terms = []
        for t, (e, c) in enumerate(p.terms):
            ns[f"c{j}_{t}"] = _to_complex(c)
            factors = [f"c{j}_{t}"]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(xs[i])
                elif k:
                    factors.append(powers.setdefault((i, k), f"p{i}_{k}"))
            terms.append(" * ".join(factors))
        # chunks keep the left-to-right sum without one huge expression
        acc = "0j"
        for lo in range(0, max(len(terms), 1), 64):
            values.append(f"y{j} = " + " + ".join([acc] + terms[lo:lo + 64]))
            acc = f"y{j}"
    lines = [", ".join(xs) + ", = w"]
    lines += [f"{name} = x{i}**{k}" for (i, k), name in powers.items()]
    lines += values
    if step:
        ys = [f"y{j}" for j in range(len(polys))]
        lines.append("nf = sqrt(" + " + ".join(map(_square, ys)) + ")")
        lines.append("if nf < TOL:\n        return nf, None, 0.0")
        lines += [f"u{j} = y{j} / nf" for j in range(len(polys))]
        us = [f"u{j}" for j in range(len(polys))]
        lines.append(f"return nf, ({', '.join(us)},), sqrt(" + " + ".join(map(_square, us)) + ")")
    else:
        lines.append("return y0")
    exec("def ev(w):\n" + "".join(f"    {ln}\n" for ln in lines), ns)
    return ns["ev"]


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

    def step(self, polys):
        comps = [self.compile(p) for p in polys]

        def step(w):
            Fv = tuple(c(w) for c in comps)
            nf = self.norm(Fv)
            if nf < _SINGULAR_TOL:
                return nf, None, 0.0
            # the quotient (and the γ arithmetic of the orbit) rounds at
            # the ambient mpmath precision, not at self.precision
            u = tuple(x / nf for x in Fv)
            return nf, u, math.sqrt(sum(abs(complex(x)) ** 2 for x in u))

        return step


# -- core orbit evaluation ----------------------------------------------------


def _check_cert(f: ProjMap, cert: Optional[QASCertificate]):
    if cert is None:
        return None
    if cert.d != f.degree:
        raise ValueError(f"certificate degree {cert.d} does not match the map degree {f.degree}")
    if cert.H.nvars != f.nvars:
        raise ValueError("certificate divisor arity does not match the map")
    return cert


def _check_entry(nrm, gamma, step):
    """Reject an orbit entry whose point lost unit norm or whose height is not finite."""
    if abs(nrm - 1.0) > 1e-6:
        raise OrbitError(f"orbit point lost normalization (norm {nrm})", step=step)
    if not math.isfinite(float(gamma)):
        raise OrbitError("non-finite log-height", step=step)


class _OrbitRunner:
    """The normalized recursion, prepared once for (f, cert, n_iters, precision).

    Set-up checks the certificate, extends the exact degrees and builds
    the step: generated straight-line code at 53 bits or less, mpmath
    loop evaluators above.  start() and run() then cost one orbit per
    point.  The orbit keeps unit vectors wₙ and per-degree log-heights
    γₙ; the lagged divisor term reaches back n0+1 steps.
    """

    def __init__(self, f: ProjMap, cert, n_iters: int, precision: int, step=None):
        cert = _check_cert(f, cert)
        if n_iters < 1:
            raise ValueError("n_iters must be at least 1")
        if precision < 24:
            raise ValueError("precision below 24 bits is not meaningful here")
        d = f.degree
        h, n0 = (0, 1) if cert is None else (cert.h, cert.n0)
        if d >= 2:
            degrees = extend_degrees(DegreeRecurrence(d=d, h=h, n0=n0), n_iters)
        elif cert is not None:
            raise ValueError("degree-1 maps take no divisor certificate")
        else:
            degrees = [1] * (n_iters + 1)
        self.nvars, self.n0 = f.nvars, n0
        fast = precision <= 53
        if fast:
            self.log, self.engine = math.log, None
            self.step = step or _float_code(f.components, f.nvars)
            self.H = cert and _float_code([cert.H], f.nvars, step=False)
        else:
            E = self.engine = _MPEngine(precision)
            self.log = E.log
            self.step = step or E.step(f.components)
            self.H = cert and E.compile(cert.H)
        # per step n: the weights of γ_{n-1}, γₙ and (when the divisor
        # enters) γ_{n-n0-1}, and the power of two k they were divided by
        self.plan = [None]
        for n in range(1, n_iters + 1):
            a, b = d * degrees[n - 1], degrees[n]
            lag = n - n0 - 1
            hd = h * degrees[lag] if cert is not None and lag >= 0 else None
            k = a.bit_length() - _FLOAT_INT_BITS if fast else 0
            if k > 0:
                # float(a) would overflow: divide numerator and denominator
                # by 2^k (exact int true division; power-of-two scaling
                # commutes with rounding, so only the overflow is avoided)
                s = 1 << k
                a, b, hd = a / s, b / s, None if hd is None else hd / s
            elif fast:
                a, b, hd, k = float(a), float(b), None if hd is None else float(hd), 0
            self.plan.append((a, b, hd, k))

    def start(self, z):
        """Unit vector and log-height of the input point."""
        E = self.engine
        v = tuple(map(_to_complex, z)) if E is None else E.vector(z)
        if not all(map(cmath.isfinite if E is None else mp.isfinite, v)):
            raise ValueError("point coordinates must be finite")
        if len(v) != self.nvars:
            raise ZeroVector(f"point has {len(v)} coordinates, need {self.nvars}")
        nrm = _float_norm(v) if E is None else E.norm(v)
        if nrm < _SINGULAR_TOL:
            raise ZeroVector("cannot evaluate at the zero vector")
        if nrm == math.inf:
            # finite coordinates whose squares overflow: scale by 2^-k first
            k = max(math.frexp(abs(p))[1] for x in v for p in (x.real, x.imag))
            v = tuple(complex(math.ldexp(x.real, -k), math.ldexp(x.imag, -k)) for x in v)
            nrm = _float_norm(v)
            return tuple(x / nrm for x in v), math.log(nrm) + k * math.log(2)
        return tuple(x / nrm for x in v), self.log(nrm)

    def run(self, w, gamma):
        """Orbit from unit vector w at height γ: (gammas, points, increments).

        gammas[-1] is the u estimate after n_iters steps and
        increments[n-1] = |γₙ − γ_{n−1}|.
        """
        _check_entry(math.sqrt(sum(abs(complex(x)) ** 2 for x in w)), gamma, 0)
        step, H, log, plan, n0 = self.step, self.H, self.log, self.plan, self.n0
        points, gammas, increments = [w], [gamma], []
        for n in range(1, len(plan)):
            a, b, hd, k = plan[n]
            if hd is not None:
                # the division by the lagged divisor value is part of forming
                # step n, so its failure outranks a vanishing forward image
                ah = abs(H(points[n - n0 - 1]))
                if ah < _SINGULAR_TOL:
                    raise OrbitHitDivisor(f"orbit met the extracted divisor at step {n}", step=n)
                lh = log(ah)
            nf, w, nrm = step(w)
            if w is None:
                raise OrbitHitIndeterminacy(f"orbit met an indeterminate point at step {n}", step=n)
            lg = log(nf)
            if k:
                lg = math.ldexp(lg, -k)
                if hd is not None:
                    lh = math.ldexp(lh, -k)
            num = a * gamma + lg
            if hd is not None:
                num -= hd * gammas[n - n0 - 1] + lh
            g = num / b
            increments.append(abs(g - gamma))
            gamma = g
            _check_entry(nrm, gamma, n)
            points.append(w)
            gammas.append(gamma)
        return gammas, points, increments

    def value(self, z, converge_tol=None):
        """(u, increments) at z; NotConverged when the last increment exceeds converge_tol."""
        gammas, _, increments = self.run(*self.start(z))
        if converge_tol is not None and increments[-1] > converge_tol:
            raise NotConverged(
                f"increment {float(increments[-1]):.3e} above {converge_tol:.3e} "
                f"after {len(increments)} steps",
                step=len(increments),
            )
        return gammas[-1], tuple(increments)


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
    return _OrbitRunner(f, cert, n_iters, precision).value(z, converge_tol)


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
    orbit = _OrbitRunner(f, cert, n_iters, precision)
    w, _ = orbit.start(z)
    lam = float(lambda_report.lambda_) if lambda_report is not None else float(f.degree)
    u_z, _ = orbit.value(w)
    nf, w1, _ = orbit.step(w)
    if w1 is None:
        raise OrbitHitIndeterminacy("F vanishes at the input point", step=0)
    u_fz = orbit.run(w1, orbit.log(nf))[0][-1]
    if cert is None:
        return abs(u_fz - lam * u_z)
    ah = abs(orbit.H(w))
    if ah < _SINGULAR_TOL:
        raise OrbitHitDivisor("input point lies on the extracted divisor", step=0)
    coef = (f.degree - lam) / cert.h
    return abs(u_fz - lam * u_z - coef * orbit.log(ah))


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
    orbit = _OrbitRunner(f, cert, n_iters, precision)
    # plain-composition orbit: heights scale by d^m, no extraction
    plain = _OrbitRunner(f, None, n, precision, step=orbit.step)
    w, _ = orbit.start(z)
    gammas, points, _ = plain.run(*plain.start(w))
    u_z, _ = orbit.value(w)
    u_wn, _ = orbit.value(points[n])
    d = f.degree
    u_fnz = d**n * gammas[n] + u_wn
    if cert is None:
        return abs(u_fnz - lam**n * u_z) / lam**n
    acc = 0 * lam
    for j in range(1, n + 1):
        m = n - j
        ah = abs(orbit.H(points[m]))
        if ah < _SINGULAR_TOL:
            raise OrbitHitDivisor(f"orbit met the divisor at step {m}", step=m)
        log_h = cert.h * d**m * gammas[m] + orbit.log(ah)
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
) -> GreenGrid:
    """Evaluate the potential on a resolution² grid over the slice.

    Per-node orbit failures become status entries, never exceptions;
    a node outside the float range is an input error (ValueError).  One
    prepared orbit runner serves every node, in row-major order on one
    thread, so the grid is deterministic and each node equals green_eval
    at that point.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    base, e1, e2 = ([_to_complex(x) for x in v]
                    for v in (slice_spec.base, slice_spec.e1, slice_spec.e2))
    if not all(map(cmath.isfinite, base + e1 + e2)):
        raise ValueError("slice coordinates must be finite")
    if not _independent(slice_spec.e1, slice_spec.e2):
        raise ValueError("direction vectors must be linearly independent")
    orbit = _OrbitRunner(f, cert, n_iters, precision)
    xs = _axis(*slice_spec.x_range, resolution)
    ys = _axis(*slice_spec.y_range, resolution)

    def node(x, y):
        z = tuple(b + x * a + y * c for b, a, c in zip(base, e1, e2))
        try:
            return float(orbit.value(z, converge_tol)[0]), STATUS_OK
        except (OrbitHitIndeterminacy, ZeroVector):
            return None, STATUS_INDETERMINACY
        except OrbitHitDivisor:
            return None, STATUS_DIVISOR
        except NotConverged:
            return None, STATUS_NOT_CONVERGED

    results = [[node(x, y) for y in ys] for x in xs]
    meta = {
        "depth": n_iters,
        "precision": precision,
        "certificate": _grid_digest(f, cert),
    }
    return GreenGrid(
        slice=slice_spec,
        resolution=resolution,
        values=tuple(tuple(u for u, _ in row) for row in results),
        status=tuple(tuple(s for _, s in row) for row in results),
        meta=meta,
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
