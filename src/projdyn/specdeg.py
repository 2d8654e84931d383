"""Degree recurrences and the spectral data of their characteristic polynomial.

The three-term recurrence d_n = d*d_{n-1} - h*d_{n-n0-1} (with d_n = d^n
up to the lag n0 and zero for negative indices) models the algebraic
degree growth of a quasi-stable map.  Its characteristic polynomial
P(t) = t^{n0+1} - d*t^{n0} + h carries the first dynamical degree as
its dominant root; this module extends the sequence exactly, decides
exactly whether a root above 1 exists (`DegreeRecurrence.check_viable`),
certifies the dominant root and its multiplicity, reads the
subexponential factor off the residue of the generating function
sum d_n x^n = 1/(1 - d x + h x^{n0+1}) at 1/lambda, and verifies the
asymptotic statements numerically as residuals.  The recurrence and its
exact extension use ints and Fractions alone; the spectral functions and
the checks import mpmath when called, so exact work never loads it.

For h > 0, P falls on (0, t*) and rises after its one positive critical
point t* = d n0/(n0+1), and by Descartes' rule it has at most two
positive roots.  In the simple case P(t*) < 0 < P(0) = h, so there are
exactly two, lambda2 < t* < lambda, whose reciprocals Newton's method
finds as the roots of the convex Q(x) = x^{n0+1} P(1/x) (see `_newton`).
On |t| = r with lambda2 < r < lambda, P(r) < 0 gives
|t^{n0+1} + h| <= r^{n0+1} + h < d r^{n0} = |d t^{n0}|, so by Rouche's
theorem P has n0 roots in |t| < r, like d t^{n0}.  Letting r fall to
lambda2 puts every root but lambda in |t| <= lambda2: lambda dominates
and rho = lambda2/lambda.  In the tangent case P(t*) = 0, so
d = t* (n0+1)/n0, h = t*^{n0+1}/n0, and the identity
n0 s^{n0+1} - (n0+1) s^{n0} + 1 = (s - 1)^2 R(s), R(s) = sum_{k<n0} (k+1) s^k,
gives P(t* s) = h (s - 1)^2 R(s).  R has increasing positive
coefficients, so by the Enestrom-Kakeya theorem its roots lie in
1/2 <= |s| <= (n0-1)/n0 < 1: the double root lambda = t* dominates, and
rho, the largest root modulus of R, depends on n0 alone, and
Braess-Hadeler inclusion discs prove it (see `_tangent_rho`).
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["specdeg"])


class SpectralError(Exception):
    """Base class for recurrence and spectral failures."""


class NonPositiveDegree(SpectralError):
    """The recurrence produced a value <= 0; the modeled map degenerates."""


class DegenerateLambda(SpectralError):
    """No real dominant root exceeding one; growth is not exponential."""


class PrecisionExhausted(SpectralError):
    """A proof failed: a root's bracket check or the inclusion discs of rho."""


class InsufficientData(SpectralError):
    """Too few degree values for a meaningful fit."""


class _RecurrenceFields(NamedTuple):
    d: int
    h: int
    n0: int


class DegreeRecurrence(_RecurrenceFields):
    """Parameters (d, h, n0) of the lagged degree recurrence.

    h = 0 encodes the stable case where no factor is ever extracted
    and the sequence is exactly geometric.
    """

    __slots__ = ()

    def __new__(cls, d, h, n0):
        if not (isinstance(d, int) and d >= 2):
            raise ValueError("d must be an integer >= 2")
        if not (isinstance(h, int) and h >= 0):
            raise ValueError("h must be an integer >= 0")
        if not (isinstance(n0, int) and n0 >= 1):
            raise ValueError("n0 must be an integer >= 1")
        return super().__new__(cls, d, h, n0)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*fields)

    def charpoly(self) -> tuple:
        """Integer coefficients of t^{n0+1} - d t^{n0} + h, high to low."""
        return (1, -self.d) + (0,) * (self.n0 - 1) + (self.h,)

    def p_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return x ** (self.n0 + 1) - self.d * x**self.n0 + self.h

    def check_viable(self):
        """Raise DegenerateLambda unless P has a real root above 1, decided in integers.

        P(1) = 1 - d + h < 0 puts a root above 1.  Otherwise P, which
        falls before its one positive critical point t* = d n0/(n0+1) and
        rises after it, reaches zero above 1 only if t* > 1 and P(t*) <= 0,
        where (n0+1)^{n0+1} P(t*) = h (n0+1)^{n0+1} - d (d n0)^{n0}.
        """
        d, h, n0 = self.d, self.h, self.n0
        p_star_nonpositive = h * (n0 + 1) ** (n0 + 1) <= d * (d * n0) ** n0
        if not (1 - d + h < 0 or (d * n0 > n0 + 1 and p_star_nonpositive)):
            raise DegenerateLambda("no real root above 1; the recurrence has no exponential rate")


class SpectralReport(NamedTuple):
    """Dominant-root data of a degree recurrence.

    lambda_ is the dominant root (real, > 1), exact as a double root
    and otherwise proved by a sign change of P to the precision (see
    `char_poly_roots`).  r is its multiplicity and rho the ratio of the
    next-largest root modulus to lambda_: for a simple lambda_ that is
    lambda2/lambda_, lambda2 the other positive root (see the module
    docstring), proved the same way; for the double root it is the
    largest root modulus of R, proved by inclusion discs to a relative
    2^-precision (0 for n0 = 1).  Q_fit holds the
    r polynomial coefficients (constant first) of the subexponential
    factor in d_n = lambda^n (Q(n) + o(1)): the principal part of the
    generating function at x = 1/lambda, which depends on no other root
    and no sampled sequence.
    """

    charpoly: tuple
    lambda_: object
    r: int
    rho: object
    Q_fit: tuple
    precision_bits: int


class AsymptoticsReport(NamedTuple):
    """Tail-fitted subexponential factor and per-index relative residuals."""

    Q: tuple
    residuals: tuple
    max_residual: object

    def __float__(self):
        return float(self.max_residual)


def extend_degrees(spec: DegreeRecurrence, N: int) -> list:
    """Exact values d_0..d_N of the degree recurrence.

    d_n = d^n up to the lag, then d_n = d*d_{n-1} - h*d_{n-n0-1} with
    the convention that negative indices contribute zero.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    d, h, n0 = spec.d, spec.h, spec.n0
    out = []
    for n in range(N + 1):
        if n <= n0:
            v = d**n
        else:
            v = d * out[n - 1] - h * out[n - n0 - 1]
        if v <= 0:
            raise NonPositiveDegree(f"d_{n} = {v}; growth collapses at step {n}")
        out.append(v)
    return out


def _tangent_estimates(n0):
    """Unproved estimates of the n0 - 1 roots of R at the working precision.

    A root s of R solves s^n0 (n0 + 1 - n0 s) = 1, s != 1 (module docstring),
    so it is fixed by g_j(s) = w^j (n0 + 1 - n0 s)^(-1/n0), w = e^(2 pi i/n0),
    on the principal branch, for some j; g_j maps |s| < 1 into the sector
    |arg s - 2 pi j/n0| < pi/(2 n0), and |g_j'| = |s|^(n0+1) < 1/e at a
    fixed point.  For 0 < j < n0, 64 float steps of g_j from 0 reach the
    float's rounding (18 do for n0 <= 500), 32 bits at least, and each
    Newton step on s^n0 (n0 + 1 - n0 s) - 1 doubles the bits.
    """
    from mpmath import mp, mpc
    out = []
    for j in range(1, n0):
        wj, s = cmath.exp(2j * cmath.pi * j / n0), 0j
        for _ in range(64):
            s = wj * (n0 + 1 - n0 * s) ** (-1 / n0)
        s = mpc(s)
        for _ in range((mp.prec // 32).bit_length()):
            t = s ** (n0 - 1)
            s -= (t * s * (n0 + 1 - n0 * s) - 1) / (n0 * (n0 + 1) * t * (1 - s))
        out.append(s)
    return out


def _tangent_rho(n0, precision_bits):
    """rho, the largest root modulus of R (0 for n0 = 1), proved to a relative 2^-precision_bits.

    The estimates z_i of `_tangent_estimates` at 2*precision_bits bits, the
    precision of `char_poly_roots`, rounded to Gaussian integers Z_i at the
    scale 2^S, S = precision_bits + 16, centre the Braess-Hadeler inclusion
    discs |s - z_i| <= m |W_i|, W_i = R(z_i) / (c_m prod_{j != i} (z_i - z_j)),
    whose union holds every root, one in each disc that meets no other
    (Numer. Math. 21, 1973); R = sum_k c_k s^k, c_k = k + 1, m = n0 - 1.
    In integers, W_i = N_i / (2^S c_m D_i) with N_i = sum_k c_k Z_i^k 2^{S(m-k)}
    and D_i = prod_{j != i} (Z_i - Z_j), and r_i = isqrt(ceil(m^2 |N_i|^2 /
    (c_m^2 |D_i|^2))) + 1 bounds the radius in units of 2^-S.  Unless the
    discs are pairwise disjoint and every r_i <= 2^-precision_bits max|Z_j|,
    which puts each root within a relative 2^-precision_bits of its
    estimate, `PrecisionExhausted` is raised.
    """
    from mpmath import mp, mpf
    roots, coeffs, S, m = _tangent_estimates(n0), range(n0, 0, -1), precision_bits + 16, n0 - 1
    Z = [tuple(int(mp.nint(mp.ldexp(x, S))) for x in (mp.re(z), mp.im(z))) for z in roots]
    top = max((x * x + y * y for x, y in Z), default=0)
    radii = []
    for i, (x, y) in enumerate(Z):
        nr, ni = coeffs[0], 0
        for k, c in enumerate(coeffs[1:], 1):
            nr, ni = nr * x - ni * y + (c << k * S), nr * y + ni * x
        dd = math.prod((x - u) ** 2 + (y - v) ** 2 for j, (u, v) in enumerate(Z) if j != i)
        if not dd:
            raise PrecisionExhausted("two root estimates coincide")
        radii.append(math.isqrt(-(-m * m * (nr * nr + ni * ni) // (coeffs[0] ** 2 * dd))) + 1)
    if any(r * r << 2 * precision_bits > top for r in radii) or any(
            (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2
            for i, (x, y) in enumerate(Z) for j, (u, v) in enumerate(Z[:i])):
        raise PrecisionExhausted(f"inclusion discs overlap or exceed 2^-{precision_bits}")
    return max(map(abs, roots), default=mpf(0))


def _descend(update, x):
    """x - update(x), repeated up to the first step that is zero or points back.

    The callers run Newton's method on a convex function from a start
    where it is >= 0, so in exact arithmetic the iterates move
    monotonically to the root (Fourier's condition).  Only rounding
    keeps a step from moving x toward it, so that step ends the
    iteration; the loop bound is a backstop.
    """
    from mpmath import mp
    step = None
    for _ in range(mp.prec):
        new = x - update(x)
        if step is not None and not (new - x) * step > 0:
            break
        x, step = new, new - x
    return x


def _newton(spec: DegreeRecurrence, x):
    """The root 1/y of P, y the root of Q that Newton reaches from x, at the working precision.

    Q = 1 - d x + h x^{n0+1} is convex on x > 0, so from a start with Q > 0 the
    iterates move monotonically to the root of Q on the start's side of its
    minimum (see `_descend`): up from 0 (Q' = -d) to 1/lambda, down from
    (d/h)^{1/n0} (Q = 1, Q' = d n0) to 1/lambda2.  `_proved_root` refuses a
    short iterate.
    """
    d, h, n0 = spec.d, spec.h, spec.n0

    def step(x):
        return (1 - d * x + h * x ** (n0 + 1)) / (h * (n0 + 1) * x**n0 - d)

    return 1 / _descend(step, x)


def _scaled_gap(spec: DegreeRecurrence, lam, precision_bits: int):
    """(n0+1)(lambda - t*) for a simple lambda, proved below lam (1 + 2^-precision_bits).

    With a = d n0, so that t* = a/(n0+1), it is the positive root of
    g(e) = (n0+1)^{n0+1} P(t* + e/(n0+1)) = sum_k g_k e^k.  Its Taylor
    coefficients g_k = C(n0+1, k) a^{n0+1-k} - (n0+1) d C(n0, k) a^{n0-k}
    (plus h (n0+1)^{n0+1} in g_0) are integers: g_0 < 0 in the simple
    case, g_k = (n0+1) d C(n0, k) (k-1) a^{n0-k}/(n0+1-k) for 1 <= k <= n0,
    so g_1 = 0 and g_k > 0 above, and g_{n0+1} = 1.  So g is convex and
    increasing on e > 0, and Newton falls to the root (see `_descend`)
    from (n0+1)(lam (1 + 2^-precision_bits) - t*), which lies above it
    by a margin far beyond rounding.  The root keeps its relative
    precision however small it is, where lambda - t* taken from lambda
    loses the bits of lambda/(lambda - t*).
    """
    from mpmath import mp, mpf
    d, n0 = spec.d, spec.n0
    a = d * n0
    g = [math.comb(n0 + 1, k) * a ** (n0 + 1 - k)
         - (n0 + 1) * d * math.comb(n0, k) * a ** max(n0 - k, 0) for k in range(n0 + 2)]
    g[0] += spec.h * (n0 + 1) ** (n0 + 1)
    g = [mpf(c) for c in reversed(g)]

    def step(e):
        y, dy = mp.polyval(g, e, derivative=True)
        return y / dy

    return _descend(step, (n0 + 1) * lam * (1 + mpf(2) ** -precision_bits) - a)


def _p_sign(spec: DegreeRecurrence, N: int, K: int) -> int:
    """The sign (-1, 0 or 1) of P(N/2^K) for ints N and K >= 0, decided in integers.

    2^{K(n0+1)} P(N/2^K) = N^{n0+1} - d N^{n0} 2^K + h 2^{K(n0+1)}.
    """
    d, h, n0 = spec
    top = N**n0
    v = top * N - (d * top << K) + (h << K * (n0 + 1))
    return (v > 0) - (v < 0)


def _brackets(x, precision_bits: int):
    """(N_a, N_b, K), K >= 0, with N_a/2^K and N_b/2^K equal to x (1 -+ 2^-precision_bits) for a positive mpf x."""
    man, exp = x.man_exp
    K = precision_bits - exp
    na, nb = man * ((1 << precision_bits) - 1), man * ((1 << precision_bits) + 1)
    if K < 0:
        return na << -K, nb << -K, 0
    return na, nb, K


def _proved_root(spec: DegreeRecurrence, lo: Fraction, hi: Fraction, start, precision_bits: int):
    """The root of P in (lo, hi), where P is monotone, proved to a relative 2^-precision_bits.

    With a, b = x (1 -+ 2^-precision_bits) for the value x that `_newton`
    reaches from start (see `_brackets`), exact integer arithmetic checks
    lo < a, b < hi and that P changes sign between a and b (see
    `_p_sign`), so the one root in (lo, hi) lies in (a, b).  A failed
    check raises `PrecisionExhausted`.
    """
    x = _newton(spec, start)
    na, nb, K = _brackets(x, precision_bits)
    inside = lo.numerator << K < na * lo.denominator and nb * hi.denominator < hi.numerator << K
    if not (inside and (_p_sign(spec, na, K) < 0) != (_p_sign(spec, nb, K) < 0)):
        raise PrecisionExhausted(f"root is not bracketed to 2^-{precision_bits}")
    return x


def char_poly_roots(spec: DegreeRecurrence, precision_bits: int = 128) -> SpectralReport:
    """Dominant root, multiplicity, spectral gap and Q_fit of P.

    Viability (a real root above one, `DegreeRecurrence.check_viable`)
    and double-root tangency are decided exactly first.  In the simple case `_proved_root` gives the two positive
    roots by Newton on Q (see `_newton`), lambda on (t*, d + 1) and
    lambda2 on (0, t*); by the Rouche argument of the module docstring
    lambda is dominant and rho = lambda2/lambda.  The tangent double
    root t* is exact, and rho, the largest root modulus of R, is proved
    by `_tangent_rho`, above.  The degrees have the generating
    function sum d_n x^n = 1/Q(x), Q(x) = 1 - d x + h x^{n0+1}
    = x^{n0+1} P(1/x), and Q_fit is read off its principal part at
    x0 = 1/lambda: for a simple root lambda/((n0+1)(lambda - t*)), at
    the working precision from lambda and the gap that `_scaled_gap`
    solves for on the shifted polynomial.  For the double root
    Q(x0 u) = (1 - u)^2 S(u)/n0 with
    S(u) = sum_{j<n0} (n0 - j) u^j, so 1/Q = A/(1 - u)^2 + B/(1 - u) + ...
    with A = n0/S(1), B = n0 S'(1)/S(1)^2 and Q_fit = (A + B, A).
    """
    from mpmath import mp, mpf, workprec
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    spec.check_viable()
    d, h, n0 = spec.d, spec.h, spec.n0
    t_star = Fraction(d * n0, n0 + 1)
    p_star = spec.p_at(t_star)

    with workprec(2 * precision_bits):
        if h == 0:
            # P = t^n0 (t - d): everything is exact
            lam, r, rho, q_fit = mpf(d), 1, mpf(0), (mpf(1),)
        elif p_star == 0:
            # the tangent case, as the viability check leaves t* > 1
            lam, r = mpf(t_star.numerator) / t_star.denominator, 2
            rho = _tangent_rho(n0, precision_bits)
            q_fit = (mpf(2 * n0 + 4) / (3 * (n0 + 1)), mpf(2) / (n0 + 1))
        else:
            lam, r = _proved_root(spec, t_star, Fraction(d + 1), mpf(0), precision_bits), 1
            x2 = mp.root(mpf(d) / h, n0)
            rho = _proved_root(spec, Fraction(0), t_star, x2, precision_bits) / lam
            # the residue 1/Q'(x0) gives lambda^n0 / P'(lambda) = lambda/((n0+1)(lambda - t*))
            q_fit = (lam / _scaled_gap(spec, lam, precision_bits),)
        return SpectralReport(charpoly=spec.charpoly(), lambda_=lam, r=r, rho=rho, Q_fit=q_fit,
                              precision_bits=precision_bits)


def _recurrence_from_charpoly(charpoly):
    d = -charpoly[1]
    h = charpoly[-1]
    n0 = len(charpoly) - 2
    return DegreeRecurrence(d=int(d), h=int(h), n0=int(n0))


def check_asymptotics(degrees: Sequence[int], report: SpectralReport) -> AsymptoticsReport:
    """Relative residuals of d_n against the fitted lambda^n Q(n).

    Q (of degree r-1) is interpolated from the tail of the provided
    sequence, independently of the report's residue fit Q_fit, so
    the two routes cross-check each other.
    """
    from mpmath import mp, mpf, workprec
    if len(degrees) < 10:
        raise InsufficientData("need at least 10 degree values")
    spec = _recurrence_from_charpoly(report.charpoly)
    expect = extend_degrees(spec, len(degrees) - 1)
    if list(degrees) != expect:
        raise ValueError("degrees do not satisfy the report's recurrence")
    lam = report.lambda_
    N = len(degrees) - 1
    with workprec(max(mp.prec, 2 * report.precision_bits)):
        scaled = [mpf(degrees[n]) / lam**n for n in range(N + 1)]
        if report.r == 1:
            a, b = scaled[N], mpf(0)
        else:
            b = scaled[N] - scaled[N - 1]
            a = scaled[N] - b * N
        residuals = []
        for n in range(N + 1):
            q = a + b * n
            residuals.append(abs(scaled[n] - q) / abs(q))
        mx = max(residuals)
    return AsymptoticsReport(Q=(a, b)[: report.r], residuals=tuple(residuals), max_residual=mx)


def check_growth_bounds(degrees: Sequence[int], lam) -> tuple:
    """Smallest constants for the two growth inequalities.

    C1 bounds n^2 (d_{n+1} - lam d_n)/d_n over the range, C2 bounds the
    partial-sum ratio sum_{j<=n} d_j / d_n; both are returned exactly as
    scanned, so a stable map yields C1 = 0.
    """
    from mpmath import mpf
    if len(degrees) < 10:
        raise ValueError("need at least 10 degree values")
    lam = mpf(lam) if not isinstance(lam, mpf) else lam
    c1 = mpf(0)
    c2 = mpf(0)
    partial = 0
    for n, dn in enumerate(degrees):
        partial += dn
        c2 = max(c2, mpf(partial) / dn)
        if 1 <= n < len(degrees) - 1:
            c1 = max(c1, (n**2) * (degrees[n + 1] - lam * dn) / dn)
    return c1, c2


def check_sn_identity(spec: DegreeRecurrence, lam, degrees: Sequence[int], n_max: int):
    """Max of |S_n|/lam^n for the telescoping root identity.

    S_n = lam^n + (d - lam) sum_{j=1}^{n0} lam^{j-1} d_{n-j} - d_n
    vanishes identically when lam is a root of the characteristic
    polynomial; the returned maximum is the numeric witness, bounded
    by the precision of the supplied lam.
    """
    from mpmath import mp, mpf
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if len(degrees) <= n_max:
        raise ValueError(f"need degrees up to index {n_max}")
    lam = mpf(lam) if not isinstance(lam, mpf) else lam

    def deg(m):
        return degrees[m] if m >= 0 else 0

    worst = mpf(0)
    lam_n = mpf(1)
    for n in range(n_max + 1):
        acc = mp.fsum(lam ** (j - 1) * deg(n - j) for j in range(1, spec.n0 + 1))
        s_n = lam_n + (spec.d - lam) * acc - deg(n)
        worst = max(worst, abs(s_n) / lam_n)
        lam_n *= lam
    return worst
