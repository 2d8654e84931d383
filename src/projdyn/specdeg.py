"""Degree recurrences and the spectral data of their characteristic polynomial.

The three-term recurrence d_n = d*d_{n-1} - h*d_{n-n0-1} (with d_n = d^n
up to the lag n0 and zero for negative indices) models the algebraic
degree growth of a quasi-stable map.  Its characteristic polynomial
P(t) = t^{n0+1} - d*t^{n0} + h carries the first dynamical degree as
its dominant root; this module extends the sequence exactly, certifies
the dominant root and its multiplicity, reads the subexponential factor
off the residue of the generating function sum d_n x^n =
1/(1 - d x + h x^{n0+1}) at 1/lambda, and verifies the asymptotic
statements numerically as residuals.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf, workprec

__all__ = [
    "SpectralError",
    "NonPositiveDegree",
    "DegenerateLambda",
    "MultiplicityOutOfRange",
    "PrecisionExhausted",
    "InsufficientData",
    "DegreeRecurrence",
    "SpectralReport",
    "AsymptoticsReport",
    "extend_degrees",
    "char_poly_roots",
    "check_asymptotics",
    "check_growth_bounds",
    "check_sn_identity",
]


class SpectralError(Exception):
    """Base class for recurrence and spectral failures."""


class NonPositiveDegree(SpectralError):
    """The recurrence produced a value <= 0; the modeled map degenerates."""


class DegenerateLambda(SpectralError):
    """No real dominant root exceeding one; growth is not exponential."""


class MultiplicityOutOfRange(SpectralError):
    """Dominant-root multiplicity above two; outside the supported family."""


class PrecisionExhausted(SpectralError):
    """Roots failed to certify within the precision retry budget."""


class InsufficientData(SpectralError):
    """Too few degree values for a meaningful fit."""


@dataclass(frozen=True)
class DegreeRecurrence:
    """Parameters (d, h, n0) of the lagged degree recurrence.

    h = 0 encodes the stable case where no factor is ever extracted
    and the sequence is exactly geometric.
    """

    d: int
    h: int
    n0: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ValueError("d must be an integer >= 2")
        if not (isinstance(self.h, int) and self.h >= 0):
            raise ValueError("h must be an integer >= 0")
        if not (isinstance(self.n0, int) and self.n0 >= 1):
            raise ValueError("n0 must be an integer >= 1")

    def charpoly(self) -> tuple:
        """Integer coefficients of t^{n0+1} - d t^{n0} + h, high to low."""
        return (1, -self.d) + (0,) * (self.n0 - 1) + (self.h,)

    def p_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return x ** (self.n0 + 1) - self.d * x**self.n0 + self.h


@dataclass(frozen=True)
class SpectralReport:
    """Dominant-root data of a degree recurrence.

    lambda_ is the dominant root (real, > 1), exact as a double root
    and otherwise proved by a sign change of P to the precision (see
    `char_poly_roots`); its dominance over the complex roots and rho
    rest on `mp.polyroots`.  r is its multiplicity, rho the ratio of
    the next-largest root modulus to lambda_, and Q_fit the r
    polynomial coefficients (constant first) of the subexponential
    factor in d_n = lambda^n (Q(n) + o(1)): the principal part of the
    generating function 1/(1 - d x + h x^{n0+1}) at x = 1/lambda, which
    depends on lambda alone, not on any other root or sampled sequence.
    """

    charpoly: tuple
    lambda_: object
    r: int
    rho: object
    Q_fit: tuple
    precision_bits: int


@dataclass(frozen=True)
class AsymptoticsReport:
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


def _critical_point(spec: DegreeRecurrence) -> tuple:
    """The only positive critical point t* = d*n0/(n0+1) of P, and P(t*).

    P decreases on (0, t*) and increases after it, so the exact sign
    pattern of P at 1 and t* decides whether a real root above one
    exists, and P(t*) = 0 with t* > 1 is the tangent double root.
    """
    t_star = Fraction(spec.d * spec.n0, spec.n0 + 1)
    return t_star, spec.p_at(t_star)


def _deflate(coeffs: Sequence[Fraction], root: Fraction) -> list:
    """Synthetic division by (t - root); the remainder must vanish."""
    out = []
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * root + c
        out.append(acc)
    rem = out.pop()
    assert rem == 0, "deflation by a non-root"
    return out


def _polyroots_certified(coeffs, precision_bits):
    """All roots with certified error below 2^{-precision_bits/2}."""
    prec = 2 * precision_bits
    for _ in range(8):
        with workprec(prec):
            try:
                roots, err = mp.polyroots(
                    coeffs, maxsteps=300, extraprec=prec // 2, error=True
                )
                bound = mpf(2) ** (-(precision_bits // 2) - 2)
                if err < bound:
                    return list(roots)
            except mp.NoConvergence:
                pass
        prec *= 2
    raise PrecisionExhausted(
        f"root certification failed below 2^-{precision_bits // 2}"
    )


def char_poly_roots(spec: DegreeRecurrence, precision_bits: int = 128) -> SpectralReport:
    """Dominant root, multiplicity, spectral gap and Q_fit of P.

    Viability (a real root above one) and double-root tangency are
    decided exactly in rational arithmetic first; the numeric stage
    only ever sees a squarefree polynomial, deflated by the exact
    double root when the tangency case holds.  A simple lambda is then
    proved to lie within a relative 2^-precision_bits of the returned
    value: with a, b = lambda (1 -+ 2^-precision_bits), exact rational
    arithmetic checks t* < a and P(a) < 0 < P(b); P increases on
    (t*, oo), so its only root there lies in (a, b).  A failed check
    raises `PrecisionExhausted`.  The degrees have the generating
    function sum d_n x^n = 1/Q(x), Q(x) = 1 - d x + h x^{n0+1} =
    x^{n0+1} P(1/x), and Q_fit is read off its principal part at
    x0 = 1/lambda: at the working precision from lambda for a simple
    root, exact in rationals and rounded once for the double root.  Two
    things still rest on `mp.polyroots`: that no complex root has
    modulus at least lambda, and rho.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    d, h, n0 = spec.d, spec.h, spec.n0
    t_star, p_star = _critical_point(spec)
    if not (spec.p_at(1) < 0 or (t_star > 1 and p_star <= 0)):
        raise DegenerateLambda(
            "no real root above 1; the recurrence has no exponential rate"
        )

    if h == 0:
        # P = t^n0 (t - d): everything is exact
        with workprec(2 * precision_bits):
            lam = mpf(d)
            return SpectralReport(
                charpoly=spec.charpoly(),
                lambda_=lam,
                r=1,
                rho=mpf(0),
                Q_fit=(mpf(1),),
                precision_bits=precision_bits,
            )

    coeffs = [Fraction(c) for c in spec.charpoly()]
    with workprec(2 * precision_bits):
        if t_star > 1 and p_star == 0:
            reduced = _deflate(_deflate(coeffs, t_star), t_star)
            others = _polyroots_certified(reduced, precision_bits) if len(reduced) > 1 else []
            lam = mpf(t_star.numerator) / t_star.denominator
            r = 2
            if any(abs(z) >= lam for z in others):
                raise DegenerateLambda("double root at the top is not dominant")
            # 1/Q = A/(x - x0)^2 + B/(x - x0) + ... with A = 2/Q''(x0) and
            # B = -2 Q'''(x0) / (3 Q''(x0)^2), so b = A/x0^2 and a = b - B/x0
            x0 = 1 / t_star
            q2 = h * (n0 + 1) * n0 * x0 ** (n0 - 1)
            q3 = h * (n0 + 1) * n0 * (n0 - 1) * x0 ** (n0 - 2)
            b = 2 / (x0**2 * q2)
            a = b + 2 * q3 / (3 * q2**2 * x0)
            q_fit = tuple(mpf(c.numerator) / c.denominator for c in (a, b))
        else:
            roots = _polyroots_certified(coeffs, precision_bits)
            tol = mpf(2) ** (-(precision_bits // 4))
            top = max(roots, key=abs)
            cluster = [z for z in roots if abs(z - top) < tol * max(1, abs(top))]
            if len(cluster) > 2:
                raise MultiplicityOutOfRange(f"dominant cluster of size {len(cluster)}")
            if len(cluster) > 1:
                # simple-root case was decided exactly; a merged cluster
                # means the gap is below tolerance, not a true multiple
                raise PrecisionExhausted("distinct roots inseparable at this precision")
            if abs(top.imag) > tol or top.real <= 1:
                raise DegenerateLambda("dominant root is not real above 1")
            lam = top.real
            r = 1
            others = [z for z in roots if z is not top]
            # P increases on (t*, oo), so a sign change there brackets its only root
            man, exp = lam.man_exp
            exact, eps = man * Fraction(2) ** exp, Fraction(1, 2**precision_bits)
            lo, hi = exact * (1 - eps), exact * (1 + eps)
            if not (t_star < lo and spec.p_at(lo) < 0 < spec.p_at(hi)):
                raise PrecisionExhausted(f"lambda is not bracketed to 2^-{precision_bits}")
            # the residue 1/Q'(x0) gives lambda^n0 / P'(lambda), whose
            # denominator (n0+1)(lambda - t*) is nonzero since t* < lo
            q_fit = (lam / ((n0 + 1) * lam - d * n0),)

        rho = max((abs(z) for z in others), default=mpf(0)) / lam
        return SpectralReport(
            charpoly=spec.charpoly(),
            lambda_=lam,
            r=r,
            rho=rho,
            Q_fit=q_fit,
            precision_bits=precision_bits,
        )


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
