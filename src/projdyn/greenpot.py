"""Numeric evaluation of the Green potential of a stable map.

The potential u(z) = lim log‖Fₙ(z)‖ / dₙ is evaluated through a
normalized orbit recursion that never forms the huge lifted vectors:
the orbit keeps unit vectors wₙ and per-degree log-heights
γₙ = log‖Fₙ(z)‖ / dₙ, so all floating quantities stay bounded while
the exact integer degrees dₙ carry the growth.  An orbit is a run of
points, which records ‖F(w)‖ and H(w) at each, and a fold of the γ
update over those records.  The limit needs λ > 1, so every entry
point refuses a map of degree 1 with ValueError, and a certificate
whose degree recurrence has no root above 1 with DegenerateLambda.

Residual operations check the two identities the potential must
satisfy: the one-step functional equation
u(F(z)) = λ·u(z) + ((d−λ)/h)·log|H(z)| and its n-step telescoped
form.  Both are evaluated at the unit-normalized input point, which
pins the additive normalization; the identities then hold with no
floating constant.  The potentials they compare sit at points of one
orbit, and the step is a pure function of the point, so within one call
they fold over one run wherever their starts coincide bit for bit.

Grid sampling and CSV/PGM export support visual inspection of u along
2-plane slices.
"""

import cmath
import functools
import json
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import _EXPORTS
from .mapiter import ProjMap, QASCertificate, ZeroVector, map_to_text
from .polycore import poly_to_text
from .specdeg import DegreeRecurrence, extend_degrees

__all__ = list(_EXPORTS["greenpot"])

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


# -- arithmetic ---------------------------------------------------------------


def _to_complex(x):
    # the exact types skip the slow ABC check of Fraction: grid nodes call this per coordinate
    try:
        return complex(float(x) if type(x) not in (complex, float, int) and isinstance(x, Fraction) else x)
    except OverflowError:
        raise ValueError("point coordinates must be finite") from None


def _float_norm(v):
    # the squares of _norm_code, added left to right as its complex sum adds
    # them; sum() compensates a float sum on Python 3.12 and later
    total = 0.0
    for x in v:
        total += (x * x.conjugate()).real
    return math.sqrt(total)


def _norm_code(ys):
    """Source of the norm of the complex values named ys: one complex sum of conjugate products.

    The real part of CPython's y * y.conjugate() is y.real·y.real −
    y.imag·(−y.imag), which IEEE rounds exactly as y.real² + y.imag²,
    since a − (−b) is a + b, and the complex sum adds the real parts left
    to right: the bits of the per-coordinate squares, for inf, nan,
    subnormals and signed zeros too, in one complex product instead of
    four attribute loads and three float operations.  A C build that
    fused the product's multiply and subtract would break this; the
    tests check the identity on edge values.
    """
    return "sqrt((" + " + ".join(f"{y} * {y}.conjugate()" for y in ys) + ").real)"


def _term_walk(polys, ns, coeff):
    """Per polynomial, its terms in p.terms order as (c, name, ((i, k), ...)).

    Each coefficient c is bound in ns as coeff(c) under its name, so the
    generated source holds only indices and exponents; the pairs list
    the variables with nonzero exponent k.
    """
    walk = []
    for j, p in enumerate(polys):
        terms = []
        for t, (e, c) in enumerate(p.terms):
            ns[f"c{j}_{t}"] = coeff(c)
            terms.append((c, f"c{j}_{t}", tuple((i, k) for i, k in enumerate(e) if k)))
        walk.append(terms)
    return walk


def _chunked_sum(name, start, parts):
    """Lines that add the signed parts ("+ x" or "- x") to start left to right, 64 at a time.

    Without a start the first part begins the sum (0 without parts).
    Chunks keep the left-to-right sum without one huge expression: a
    flat sum of 10k terms overflows the compiler.
    """
    if start is None:
        start, parts = (parts[0].removeprefix("+ "), parts[1:]) if parts else ("0", parts)
    lines, acc = [], start
    for lo in range(0, max(len(parts), 1), 64):
        lines.append(f"{name} = " + " ".join([acc] + parts[lo:lo + 64]))
        acc = name
    return lines


# An orbit is a run of points, then a fold of the γ update over its records.  points():
# the entry check, then n times the step's lines inline, recording ‖F(w)‖ and H(w) at each
# point; it stops at a point where F vanishes (nf < TOL, no quotient), or when {check}
# finds the quotient's norm lost, and returns (nfs, hs, last point or None, that norm or
# None).  {check} computes nrm and checks it under a guard, or is empty (see _generate:
# _float_code's guard is nf == INF, as for a finite nf the quotient's computed norm lies
# within (2n+4)·2^-53 of 1, and _fixed_code's check cannot fire past the entry).
_POINTS = """
def points(w, n):
{entry}
    nfs, hs = [], []
    for _ in range(n):
{head}
        nfs.append(nf)
        hs.append(hv)
        if nf < TOL:
            return nfs, hs, None, None
{quot}
{check}
    return nfs, hs, w, None
"""

# heights(): the γ update per plan row over the records of a run, with the per-step checks
# in the order of a step (str.format: {{n}} is an f-string's {n} in the source).  A lost
# norm is raised at the step that made the point: step 0 when the records start from it.
# A run that stopped ends in a step that raises, so the rows never outrun the records.
# γ − γ is nan only for a non-finite γ, even an int γ that float() refuses
_HEIGHTS = """
def heights(gamma, plan, run, log):
    nfs, hs, _, lost = run
    if lost is not None and not nfs:
        raise OrbitError(f"orbit point lost normalization (norm {{lost}})", step=0)
    if gamma - gamma:
        raise OrbitError("non-finite log-height", step=0)
    gammas, increments = [gamma], []
    for (n, a, b, hd, k, lag), nf in zip(plan, nfs):
        if hd is not None:
            # dividing by the lagged |H| forms step n: it outranks a vanishing F(w)
            ah = abs(hs[lag])
            if ah < TOL:
                raise OrbitHitDivisor(f"orbit met the extracted divisor at step {{n}}", step=n)
        if nf < TOL:
            raise OrbitHitIndeterminacy(f"orbit met an indeterminate point at step {{n}}", step=n)
        lg = {log_f}
        if hd is not None:
            lh = {log_h}
        if k:
            lg = ldexp(lg, -k)
            if hd is not None:
                lh = ldexp(lh, -k)
        num = a * gamma + lg
        if hd is not None:
            num -= hd * gammas[lag] + lh
        g = num {div} b
        increments.append(abs(g - gamma))
        gamma = g
        if lost is not None and n == len(nfs):
            raise OrbitError(f"orbit point lost normalization (norm {{lost}})", step=n)
        if gamma - gamma:
            raise OrbitError("non-finite log-height", step=n)
        gammas.append(gamma)
    return gammas, increments
"""


def _generate(head, quot, ns, norm_when=None, **update):
    """The step, with its run and fold as the attributes .points and .heights, from the same lines.

    head binds nf = ‖F(w)‖ and hv = H(w) at the point w, and quot the
    quotient w and its norm nrm, in its last two lines "w = (...)" and
    "nrm = ...".  points(w, n) checks its entry point by these two
    lines, the first turned round to unpack w, then runs head and quot,
    less its nrm line, inline n times (see _POINTS).  After each
    quotient it computes nrm and checks it only when the condition
    norm_when holds, and without one never.  A generator leaves the
    check out only where nrm provably passes it, so a fold raises the
    same error at the same step as with the check on every step.
    heights(γ, plan, run, log) folds the γ update over the records of
    a run (see _HEIGHTS); update is the code of its log nf (log_f),
    log|H| (log_h) and division (div), in terms of its argument log.
    """
    ns.update(OrbitError=OrbitError, OrbitHitDivisor=OrbitHitDivisor,
              OrbitHitIndeterminacy=OrbitHitIndeterminacy, ldexp=math.ldexp)
    body = lambda lines, pad: "\n".join(pad + ln for ln in lines)
    lost = 'raise OrbitError(f"orbit point lost normalization (norm {nrm})", step=0)'
    entry = [quot[-2].removeprefix("w = ") + " = w", quot[-1], "if abs(nrm - 1.0) > 1e-6:", "    " + lost]
    loop = [] if norm_when is None else [
        f"if {norm_when}:", "    " + quot[-1], "    if abs(nrm - 1.0) > 1e-6:", "        return nfs, hs, None, nrm"]
    exec("def step(w):\n" + body(head, "    ")
         + "\n    if nf < TOL:\n        return nf, None, 0.0, hv\n"
         + body(quot, "    ") + "\n    return nf, w, nrm, hv\n"
         + _POINTS.format(entry=body(entry, "    "), head=body(head, " " * 8),
                          quot=body(quot[:-1], " " * 8), check=body(loop, " " * 8))
         + _HEIGHTS.format(**update), ns)
    ns["step"].points, ns["step"].heights = ns["points"], ns["heights"]
    return ns["step"]


@functools.lru_cache(maxsize=32)
def _float_code(polys, nvars, div=None):
    """Straight-line 53-bit step and orbit for the tuple polys, generated once per map.

    The code is pure, so it is memoised on the arguments and every
    runner of the map shares it; the run (see _generate) inlines the
    step's lines, and the fold takes math.log of ‖F(w)‖ and of |H(w)|
    apart.

    The step maps a point w to (‖F(w)‖, F(w)/‖F(w)‖, norm of that quotient,
    H(w)): the quotient is None when ‖F(w)‖ is below the singular
    tolerance, and H(w) is the divisor polynomial div at the point the
    step leaves (None without div).  Each value starts at 0j and adds
    or subtracts, in p.terms order, the term |c|·x_i**k_i··· multiplied
    left to right: |c| is left out when it is 1, x_i**2 is x_i * x_i,
    and every other power k ≥ 2 stays x_i**k (above k = 100 CPython's **
    takes exp/log).  A norm is one complex sum of conjugate products,
    which rounds as per-coordinate squares (see _norm_code).  Powers
    are shared across the polynomials and div, and so is each product
    |c|·monomial, evaluated once under one name.

    The values are bit-identical to a per-term loop that starts at 0j
    and adds c·x_i**k_i··· with ** for every k ≥ 2, wherever every
    monomial is finite, as at every point of an orbit, which is a unit
    vector.  CPython computes x**2 as 1·(x·x), and 1·v is v but for the
    sign of a zero part, as is −(|c|·m) against (−|c|)·m: negation
    commutes with rounding to nearest, and a − t is a + (−t).  A zero
    part only multiplies into zero parts, and a sum that starts at +0
    never holds −0 (x + y is −0 only when both are), so the sign of a
    zero part never reaches a value.

    The run computes nrm, and checks it, only when nf is inf.  For a
    finite nf ≥ TOL the computed norm of the n quotients fl(y/nf) lies
    within (2n+4)·2^-53 of 1: the sum of 2n squares and its square root
    give nf, and then the norm, a relative error below (n+1)·2^-53
    each, and each quotient adds one of 2^-53.  That is far inside the
    check's 1e-6, and a nan nf fails the check's comparison as well.  So
    the check can fire only where the squares of ‖F(w)‖ overflow (a
    10^160 coefficient does it), and there the fold raises the same
    OrbitError at the same step as a check on every step.
    """
    ns = {"sqrt": math.sqrt, "TOL": _SINGULAR_TOL, "INF": math.inf}
    xs = [f"x{i}" for i in range(nvars)]
    powers, shared, values = {}, {}, []
    for j, terms in enumerate(_term_walk(polys + (div,) * (div is not None), ns, lambda c: complex(abs(c)))):
        parts = []
        for c, name, factors in terms:
            prod = [name] * (abs(c) != 1 or not factors)
            prod += [xs[i] if k == 1 else powers.setdefault((i, k), f"p{i}_{k}") for i, k in factors]
            term = " * ".join(prod)
            if len(prod) > 1:
                term = shared.setdefault((abs(c), factors), (f"t{len(shared)}", term))[0]
            parts.append(("- " if c < 0 else "+ ") + term)
        values += _chunked_sum(f"y{j}", "0j", parts)
    lines = [", ".join(xs) + ", = w"]
    lines += [f"{name} = x{i} * x{i}" if k == 2 else f"{name} = x{i}**{k}" for (i, k), name in powers.items()]
    lines += [f"{name} = {term}" for name, term in shared.values()]
    lines += values
    ys, us = [f"y{j}" for j in range(len(polys))], [f"u{j}" for j in range(len(polys))]
    lines.append(f"hv = y{len(polys)}" if div is not None else "hv = None")
    lines.append("nf = " + _norm_code(ys))
    quot = [f"{u} = {y} / nf" for u, y in zip(us, ys)]
    quot += [f"w = ({', '.join(us)},)", "nrm = " + _norm_code(us)]
    return _generate(lines, quot, ns, norm_when="nf == INF", log_f="log(nf)", log_h="log(ah)", div="/")


# -log2 of the singular tolerance, rounded up: 47
_TOL_BITS = math.ceil(-math.log2(_SINGULAR_TOL))


def _guard_bits(polys):
    """Guard bits g of the fixed-point scale 2^(p+g) for evaluating polys.

    E = Σ_polys Σ_terms (2·deg·|c| + 1) + 2·len(polys) bounds the
    absolute error of every generated value, in units of 2^-S, at the
    points the orbit produces (see _fixed_code); the error vector of
    all values has norm ≤ E too, and the floored norm adds one unit.
    The orbit accepts only norms ‖F(w)‖ and values |H(w)| of at least
    _SINGULAR_TOL > 2^-47, so g = bitlen(E) + 47 + 4 keeps the relative
    error of each accepted one below 2^-(p+3).  E over-counts integer
    coefficients, which are exact and floor nothing, but S is kept: a
    smaller scale would change every orbit int and so the outputs.
    """
    bound = sum(2 * p.degree * abs(c) + 1 for p in polys for _, c in p.terms) + 2 * len(polys)
    return math.ceil(bound).bit_length() + _TOL_BITS + 4


@functools.lru_cache(maxsize=32)
def _fixed_code(polys, nvars, scale, div=None):
    """Straight-line fixed-point step and orbit for the tuple polys at the scale S = scale.

    Memoised on the arguments like _float_code.  The fold takes one
    _int_log of ‖F(w)‖/|H(w)| per step with a divisor term, as both
    enter the int γ at 2^S with unit weight.  A point is a tuple of
    (re, im) int pairs, each coordinate x read as (re + i·im)/2^S.
    Powers and monomials are built by complex products of four int
    multiplies and a floor shift by S, each shared across the
    polynomials and div and reused as the prefix of longer monomials.
    An integer coefficient c multiplies its monomial m at 2^S as it is
    (c = ±1 as a bare sign, c = ±2^k as a shift of m by k); any other c
    is the int floor(c·2^S), so c·m is exact at 2^(2S), and the sum of
    these terms is shifted down
    once per value (p.terms order, 64-term chunks, coefficients bound
    as names).  As floor(c·2^S) = c·2^S for an integer c and
    (2^S·A + B) >> S = A + (B >> S), each value is the one shift of the
    sum with every coefficient floored at 2^S.

    Error: with every |x| ≤ 1, each product adds less than √2 units of
    2^-S in modulus and passes earlier errors on unamplified, so a
    monomial of degree k is off by less than √2·(k−1) units, a term
    c·m by less than √2·(k−1)·|c| + 1 and a value, after its shift, by
    less than the bound E of _guard_bits.  Orbit points are rounded
    quotients of a floored norm, so their coordinates can exceed 1 by
    2^(49−S); the slack of E over these sums (at least √2·|c| per term
    and 2 − √2 per value) absorbs the factor (1 + 2^(49−S))^k this adds.

    The step maps w to (nf, q, ‖q‖, h): nf = floor(‖F(w)‖·2^S) by
    math.isqrt, the quotient q = floor(F(w)·2^S / nf) in the same
    representation (None when nf is below the singular tolerance), its
    norm as a float, and h = floor(|H(w)|·2^S) for the divisor
    polynomial div at the point the step leaves (None without div).
    The norm of q divides the int Σ q² by the int 2^(2S): int/int
    division is correctly rounded at any size, where a float of the sum
    overflows once 2S > 1024.

    The run checks that norm at its entry alone.  Past it, every
    accepted nf = isqrt(Σ y²) is at least TOL > 2^(S−47), so
    ‖y‖·2^S/nf lies in [2^S, 2^S·(1 + 2^(47−S))), and each part of q is
    within one unit below that of y·2^S/nf: ‖q‖/2^S is within about
    2^-(S−48) of 1, and the float norm adds two roundings of 2^-53.
    S ≥ 54 + 52, so that is far inside the check's 1e-6, which cannot
    fire, and int values leave no inf or nan to catch.
    """
    S = scale
    ns = {"isqrt": math.isqrt, "sqrt": math.sqrt, "S": S,
          "TOL": math.ceil(Fraction(_SINGULAR_TOL) * 2**S), "ONE": 1 << S, "ONE2": 1 << 2 * S}
    xs = [(f"r{i}", f"i{i}") for i in range(nvars)]
    lines = [", ".join(f"({r}, {i})" for r, i in xs) + ", = w"]
    monos = {}

    def mono(factors):
        # the (re, im) names of the product of x_i**k over factors
        if factors in monos:
            return monos[factors]
        if len(factors) == 1 and factors[0][1] == 1:
            return xs[factors[0][0]]
        if len(factors) == 1:
            i, k = factors[0]
            a, b, name = mono(((i, k - 1),)), xs[i], f"p{i}_{k}"
        else:
            a, b, name = mono(factors[:-1]), mono(factors[-1:]), f"m{len(monos)}"
        (ar, ai), (br, bi) = a, b
        if a == b:
            # a square: re² − im² is (re + im)(re − im), one multiply fewer, and
            # 2·re·im shifted by S is re·im shifted by S-1
            lines.append(f"{name}r = (({ar} + {ai}) * ({ar} - {ai})) >> {S}")
            lines.append(f"{name}i = ({ar} * {ai}) >> {S - 1}")
        else:
            lines.append(f"{name}r = ({ar} * {br} - {ai} * {bi}) >> {S}")
            lines.append(f"{name}i = ({ar} * {bi} + {ai} * {br}) >> {S}")
        monos[factors] = f"{name}r", f"{name}i"
        return monos[factors]

    ys, coeff = [], lambda c: c if isinstance(c, int) else math.floor(c * 2**S)
    for j, terms in enumerate(_term_walk(polys + (div,) * (div is not None), ns, coeff)):
        # per part (re, im): the terms at 2^S, and the terms at 2^(2S)
        whole, frac = ([], []), ([], [])
        for c, name, factors in terms:
            re, im = whole if isinstance(c, int) else frac
            if not factors:
                re.append(f"+ ({name} << {S})")
                continue
            if isinstance(c, int) and not abs(c) & (abs(c) - 1):
                # c = ±2^k: a bare sign, or a shift by k
                k = abs(c).bit_length() - 1
                op, fmt = "- " if c < 0 else "+ ", f"({{}} << {k})" if k else "{}"
            else:
                op, fmt = "+ ", f"{name} * {{}}"
            for part, m in zip((re, im), mono(factors)):
                part.append(op + fmt.format(m))
        for y, ws, fs in zip((f"y{j}r", f"y{j}i"), whole, frac):
            lines += _chunked_sum(y, None, fs) if fs else []
            lines += _chunked_sum(y, f"({y} >> {S})" if fs else None, ws)
        ys.append((f"y{j}r", f"y{j}i"))
    lines.append("hv = " + ("isqrt({0} * {0} + {1} * {1})".format(*ys.pop()) if div is not None else "None"))
    lines.append("nf = isqrt(" + " + ".join(f"{r} * {r} + {i} * {i}" for r, i in ys) + ")")
    qs = [(f"q{j}r", f"q{j}i") for j in range(len(ys))]
    quot = [f"{qr}, {qi} = ({r} << {S}) // nf, ({i} << {S}) // nf" for (qr, qi), (r, i) in zip(qs, ys)]
    quot += ["w = (" + ", ".join(f"({r}, {i})" for r, i in qs) + ",)",
             "nrm = sqrt((" + " + ".join(f"{r} * {r} + {i} * {i}" for r, i in qs) + ") / ONE2)"]
    return _generate(lines, quot, ns, log_f="log(nf, ONE if hd is None else ah, S)", log_h="0", div="//")


def _atanh_inv(k, P):
    """atanh(1/k) for an int k ≥ 2 at 2^P, below the true value by less than its term count + 1 units.

    The numerators t_n = floor(2^P/k^(2n+1)) are exact (a floor of a
    floor by ints is one floor), each term t_n // (2n+1) is less than
    one unit low, and the terms left once t_n is 0 add up to under one.
    """
    t = (1 << P) // k
    k2, acc, m = k * k, t, 3
    while t:
        t //= k2
        acc += t // m
        m += 2
    return acc


# ln p = Σ c·atanh(1/k) over k = 251, 449, 4801, 8749 for the primes p ≤ 7 (Machin-like formulas)
_MACHIN_K = (251, 449, 4801, 8749)
_MACHIN = {2: (144, 54, -38, 62), 3: (228, 86, -60, 98), 5: (334, 126, -88, 144), 7: (404, 152, -106, 174)}


@functools.lru_cache(maxsize=32)
def _log_table(W):
    """ln 2 at scale 2^(W+64), and log(1 + j/256) at scale 2^W for j < 256, both floored.

    Every log n, 2 ≤ n < 512, is built as an int at 2^P, P = W + 104:
    ln 2, ln 3, ln 5 and ln 7 by the Machin-like formulas of _MACHIN, a
    composite n as log p + log(n/p) for its least prime factor p, and
    any other prime p as (log(p − 1) + log(p + 1) + 2·atanh(1/(2p² − 1)))/2,
    as p²/(p² − 1) = (1 + x)/(1 − x) for x = 1/(2p² − 1); p + 1 is
    2·(p + 1)/2, whose factors are below p.  log(1 + j/256) is
    log(256 + j) − 8 ln 2.  The 93 series of the primes from 11 on have
    P/32 terms on average, each a division by an int of one or two
    digits.

    Error, in units of 2^-P: each _atanh_inv is low by less than its
    term count + 1, each halving adds half a unit, and summed over the
    formulas that is under 19·P in ln 2 and under 310·P in each
    log(256 + j) − 8 ln 2 for every W ≥ 24 (2^14.3 and 2^18.4 at
    W = 1095).  So ln 2 floored at 2^(W+64) is off only for a true value
    within 2^-25 of a unit step, and a table entry at 2^W only within
    2^-85; the tests compare every table the orbits use with mpmath's.
    """
    P = W + 104
    atanhs = [_atanh_inv(k, P) for k in _MACHIN_K]
    # least prime factors below 512: each prime up to √511 from p² on, the largest first
    lpf = list(range(512))
    for p in (19, 17, 13, 11, 7, 5, 3, 2):
        lpf[p * p::p] = [p] * len(range(p * p, 512, p))
    logs = [0] * 512
    for n in range(2, 512):
        p = lpf[n]
        if p < n:
            logs[n] = logs[p] + logs[n // p]
        elif n in _MACHIN:
            logs[n] = sum(c * a for c, a in zip(_MACHIN[n], atanhs))
        else:
            logs[n] = (logs[n - 1] + logs[2] + logs[(n + 1) // 2] + 2 * _atanh_inv(2 * n * n - 1, P)) >> 1
    ln2 = logs[2]
    return ln2 >> 40, tuple((logs[256 + j] - 8 * ln2) >> 104 for j in range(256))


def _int_log(num, den, S):
    """log(num/den) for positive ints, as an int at scale 2^S within 2 units of 2^-S.

    With e = bitlen(num) − bitlen(den) (less one when needed) and
    W = S + G, G = bitlen(S), y = num/(den·2^e) is floored into [1, 2)
    at 2^W.  Its top 8 fraction bits pick b = 1 + j/256, and
    log y = log b + 2·atanh(s) with s = (y − b)/(y + b), 0 ≤ s < 2^-9,
    about W/18 terms of the series Σ s^(2k+1)/(2k+1), run inline at 2^W
    until a term floors to 0: s and s² floored, and per term
    t·s² and t/(2k+1).  Error, in units of 2^-W: under 1 from y,
    2 from s, 3 per term (two floors, doubled; the tail included), 1
    from the table and 1 + |e|·2^-64 from e·ln 2, so at most W/6 + 9,
    below 1.5·2^G as 2^G > S ≥ 24; the final rounding shift by G adds
    half a unit of 2^-S.  All of it is int arithmetic.
    """
    G = S.bit_length()
    W = S + G
    ln2, table = _log_table(W)
    e = num.bit_length() - den.bit_length()
    # y = num/(den·2^e) lies in (1/2, 2); Y = floor(y·2^(W+1))
    k = W + 1 - e
    Y = (num << k) // den if k >= 0 else (num >> -k) // den
    if Y >> (W + 1):
        Y >>= 1
    else:
        e -= 1
    i = Y >> (W - 8)
    B = i << (W - 8)
    s = ((Y - B) << W) // (Y + B)
    s2 = s * s >> W
    acc = t = s
    m = 3
    while t:
        t = t * s2 >> W
        acc += t // m
        m += 2
    return (2 * acc + table[i - 256] + (e * ln2 >> 64) + (1 << (G - 1))) >> G


# -- core orbit evaluation ----------------------------------------------------


def _literal_ratios(text):
    """The real and imaginary parts of a complex literal as exact (numerator, denominator).

    The syntax is complex()'s ("2", "2+1j", "-j", "(1e-3-2.5j)"), and
    complex() refuses a malformed string (ValueError).  A literal that
    complex() reads as nan or inf, 1e400 among them, is an input error,
    as it is at 53 bits.
    """
    if not cmath.isfinite(complex(text)):
        raise ValueError("point coordinates must be finite")
    t = text.strip()
    if t[0] == "(":
        t = t[1:-1].strip()
    re_part, im_part = t, "0"
    if t[-1] in "jJ":
        # the imaginary part starts at the last sign that is not an exponent's
        k = max((i for i, ch in enumerate(t) if ch in "+-" and i and t[i - 1] not in "eE"), default=0)
        re_part, im_part = t[:k] or "0", t[k:-1]
        if im_part in ("", "+", "-"):
            im_part += "1"
    return Decimal(re_part).as_integer_ratio(), Decimal(im_part).as_integer_ratio()


def _ratios(z, scale):
    """Real and imaginary parts of each coordinate of z as exact (numerator, denominator).

    A coordinate given as an (re, im) int pair is a point of a
    fixed-point orbit at scale 2^scale; a string is a complex literal,
    read exactly (see _literal_ratios).  nan, inf and any other type
    are input errors.
    """
    parts = []
    for x in z:
        if isinstance(x, tuple):
            parts += ((x[0], 1 << scale), (x[1], 1 << scale))
        elif isinstance(x, str):
            parts += _literal_ratios(x)
        elif isinstance(x, (int, Fraction)):
            parts += (x.as_integer_ratio(), (0, 1))
        elif isinstance(x, (float, complex)):
            if not cmath.isfinite(x):
                raise ValueError("point coordinates must be finite")
            parts += (x.real.as_integer_ratio(), x.imag.as_integer_ratio())
        else:
            raise ValueError(f"a point coordinate is a number or a complex literal, not {type(x).__name__}")
    return parts


@functools.lru_cache(maxsize=32)
def _plan(spec, n_iters, fast):
    """The orbit's rows (n, a, b, hd, k, lag) for steps 1..n_iters of the recurrence spec, as a tuple.

    a, b and hd weigh γ_{n-1}, γₙ and γ_lag, lag = n − n0 − 1 (hd None
    when h = 0 or lag < 0), divided by 2^k; floats when fast, else ints.
    Memoised like the generated code: the tuple cannot be changed.
    """
    d, h, n0 = spec.d, spec.h, spec.n0
    degrees = extend_degrees(spec, n_iters)
    plan = []
    for n in range(1, n_iters + 1):
        a, b = d * degrees[n - 1], degrees[n]
        lag = n - n0 - 1
        hd = h * degrees[lag] if h and lag >= 0 else None
        k = max(a.bit_length() - _FLOAT_INT_BITS, 0) if fast else 0
        if fast:
            # divide numerator and denominator by 2^k, k > 0 where float(a)
            # would overflow (int true division rounds correctly, and
            # power-of-two scaling commutes with rounding)
            s = 1 << k
            a, b, hd = a / s, b / s, None if hd is None else hd / s
        plan.append((n, a, b, hd, k, lag))
    return tuple(plan)


@functools.lru_cache(maxsize=32)
def _prepare(f: ProjMap, cert, n_iters: int, precision: int):
    """The set-up of _OrbitRunner(f, cert, n_iters, precision), memoised on the four arguments.

    Returns (spec, scale, tol, real, step, plan): immutable values,
    functions and the plan's tuple, so a runner built from it cannot
    change it.  An exception is raised afresh on every call.
    """
    if cert is not None and cert.d != f.degree:
        raise ValueError(f"certificate degree {cert.d} does not match the map degree {f.degree}")
    if cert is not None and cert.H.nvars != f.nvars:
        raise ValueError("certificate divisor arity does not match the map")
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    if precision < 24:
        raise ValueError("precision below 24 bits is not meaningful here")
    if f.degree < 2:
        raise ValueError("the Green potential needs a map of degree at least 2")
    h, n0 = (0, 1) if cert is None else (cert.h, cert.n0)
    spec = DegreeRecurrence(d=f.degree, h=h, n0=n0)
    spec.check_viable()
    polys = f.components + ((cert.H,) if cert else ())
    if precision <= 53:
        try:
            step = _float_code(f.components, f.nvars, cert and cert.H)
        except OverflowError:
            # a coefficient of 2^1024 or more has no float: name the largest
            big = max(abs(c) for p in polys for _, c in p.terms)
            raise OrbitError(f"coefficient {Decimal(big.numerator) / big.denominator:.3e} "
                             "of the map is beyond the float range", step=0) from None
        return spec, None, _SINGULAR_TOL, float, step, _plan(spec, n_iters, True)
    S = precision + _guard_bits(polys)
    return (spec, S, math.ceil(Fraction(_SINGULAR_TOL) * 2**S), lambda x: _round(x, S, precision),
            _fixed_code(f.components, f.nvars, S, cert and cert.H), _plan(spec, n_iters, False))


class _OrbitRunner:
    """The normalized recursion for (f, cert, n_iters, precision), prepared once per process.

    Set-up is _prepare's, memoised in a bounded cache on the four
    arguments, so a call with arguments equal to an earlier one's builds
    no code and no plan; the runner takes the set-up's values and a
    list copy of the plan of its own.  No orbit is kept: a runner lives
    for one public call, and every call of start() and run() computes
    its own.  Set-up checks the certificate, refuses a recurrence with
    no root above 1 (DegenerateLambda, from
    DegreeRecurrence.check_viable; plain mode, h = 0, always passes),
    extends the exact degrees into the plan of per-step weights (see
    _plan) and takes the generated step, run and fold: straight-line
    float code at 53 bits or less, which refuses a coefficient beyond
    the float range with OrbitError at step 0, fixed-point int code
    above (see _fixed_code).  There the points, the heights γₙ and
    their logarithms are ints at one scale 2^S, S = precision + g: a
    step with a divisor term takes one _int_log of ‖F(w)‖/|H(w)|, since
    both enter γₙ with unit weight, and real() alone rounds outputs at
    the precision, by shift and mask (see _round).  With the guard bits
    g of _guard_bits every accepted norm ‖F(w)‖ and value |H(w)| is
    relatively accurate to 2^-(precision+3), and each logarithm is
    within 2 units of 2^-S, so no other path is needed.

    An orbit is two generated calls (see _generate): step.points(w, n)
    evaluates F at n points from w, recording ‖F(w)‖ and H(w) at each
    and the last point, and heights() folds the γ update of a plan over
    those records, so the per-degree log-heights γₙ of the unit vectors
    wₙ read the lagged H value, n0+1 steps back, from the records; abs()
    of a value is |H(w)| in the units of the step's norm and of tol.
    run() is one of each.  The step is a pure function of w, so the run
    from a point that an earlier run reached is the rest of that run:
    the residuals fold two potentials over one run where their starts
    coincide.  A runner made with memo=True (the residuals' above 53
    bits) takes each _int_log of its folds and of log() from a memo
    that lives as long as the runner, so a logarithm that two folds
    share is computed once.  real(x) turns a height or logarithm of the
    runner into a number: a float at 53 bits and below, an exact
    Fraction above.
    """

    def __init__(self, f: ProjMap, cert, n_iters: int, precision: int, memo: bool = False):
        self.spec, self.scale, self.tol, self.real, self.step, plan = _prepare(f, cert, n_iters, precision)
        self.nvars, self.precision, self.plan = f.nvars, precision, list(plan)
        # the logarithm that heights() takes: math.log at 53 bits, else _int_log(num, den, S)
        self.ln = math.log if self.scale is None else functools.cache(_int_log) if memo else _int_log

    def log(self, r):
        """log r of a norm r in the runner's numbers (an int at 2^S above 53 bits)."""
        return self.ln(r) if self.scale is None else self.ln(r, 1 << self.scale, self.scale)

    def start(self, z):
        """Unit vector and log-height of the input point."""
        if self.scale is not None:
            return self._fixed_start(z)
        v = tuple(map(_to_complex, z))
        if not all(map(cmath.isfinite, v)):
            raise ValueError("point coordinates must be finite")
        if len(v) != self.nvars:
            raise ZeroVector(f"point has {len(v)} coordinates, need {self.nvars}")
        nrm = _float_norm(v)
        if nrm < _SINGULAR_TOL:
            raise ZeroVector("cannot evaluate at the zero vector")
        if nrm == math.inf:
            # finite coordinates whose squares overflow: scale by 2^-k first
            k = max(math.frexp(abs(p))[1] for x in v for p in (x.real, x.imag))
            v = tuple(complex(math.ldexp(x.real, -k), math.ldexp(x.imag, -k)) for x in v)
            nrm = _float_norm(v)
            return tuple(x / nrm for x in v), math.log(nrm) + k * math.log(2)
        return tuple(x / nrm for x in v), math.log(nrm)

    def _fixed_start(self, z):
        # exact parts floored at 2^-S: a point of norm ≥ _SINGULAR_TOL keeps
        # about S - 48 bits, and a huge one needs no special case
        S = self.scale
        parts = _ratios(z, S)
        if len(parts) != 2 * self.nvars:
            raise ZeroVector(f"point has {len(parts) // 2} coordinates, need {self.nvars}")
        X = [(n << S) // d for n, d in parts]
        nz = math.isqrt(sum(x * x for x in X))
        if nz < self.tol:
            raise ZeroVector("cannot evaluate at the zero vector")
        w = tuple(((r << S) // nz, (i << S) // nz) for r, i in zip(X[::2], X[1::2]))
        return w, self.log(nz)

    def heights(self, gamma, run, plan=None):
        """(gammas, increments) of plan, the runner's own by default, folded over a run from γ.

        run is what step.points returned, or its records from a later
        point on; gammas[-1] is the estimate after len(plan) steps and
        increments[n-1] = |γₙ − γ_{n−1}|, in the runner's own numbers.
        """
        return self.step.heights(gamma, self.plan if plan is None else plan, run, self.ln)

    def estimate(self, gamma, run):
        """The u estimate of the runner's plan folded over a run from γ, as a number (see real())."""
        return self.real(self.heights(gamma, run)[0][-1])

    def run(self, w, gamma):
        """Orbit from unit vector w at height γ: (gammas, increments, hs, last point).

        One run of the plan's length from w, folded once: gammas[-1] is
        the u estimate after n_iters steps and increments[n-1] =
        |γₙ − γ_{n−1}|, both in the runner's own numbers (ints at scale
        2^S above 53 bits, see real()); hs[m] is the divisor value at the
        orbit's point m as the step returns it.  A bad entry raises
        OrbitError at step 0.
        """
        run = self.step.points(w, len(self.plan))
        return self.heights(gamma, run) + run[1:3]

    def value(self, z, converge_tol=None):
        """(u, increments) at z, in the runner's numbers; NotConverged past converge_tol."""
        # run()'s two calls, made directly: a grid node pays for no more
        w, gamma = self.start(z)
        gammas, increments = self.step.heights(gamma, self.plan, self.step.points(w, len(self.plan)), self.ln)
        if converge_tol is not None:
            last = self.real(increments[-1])
            if last > converge_tol:
                raise NotConverged(
                    f"increment {float(last):.3e} above {converge_tol:.3e} "
                    f"after {len(increments)} steps",
                    step=len(increments),
                )
        return gammas[-1], increments


def _round(x, S, precision):
    """x/2^S rounded half to even at precision significant bits, on the grid that |x| sets, as a Fraction.

    The int x splits by shift and mask into q = x >> n and the dropped
    bits r = x mod 2^n, as divmod would, n = bitlen|x| − precision.
    """
    n = abs(x).bit_length() - precision
    if n <= 0:
        return Fraction(x, 1 << S)
    q, r, half = x >> n, x & ((1 << n) - 1), 1 << (n - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return Fraction(q << n, 1 << S)


def _check_tol(converge_tol):
    """None or inf turns the check off; NaN or a negative tolerance is an input error."""
    if converge_tol is not None and not converge_tol >= 0:
        raise ValueError(f"converge_tol must be >= 0, not {converge_tol}")


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

    cert None means plain iteration (no divisor correction, h = 0),
    normalized by d^n: the caller vouches that the map is algebraically
    stable, since nothing here sees its degrees (the command line takes
    plain mode only from an AS verdict of infer_qas).  Returns
    (u, history) where history[n-1] = |γₙ − γ_{n−1}|: floats at 53 bits
    and below, exact Fractions rounded to the precision above.  The
    final iterate is reported as the estimate; when converge_tol is
    given and the last increment exceeds it, NotConverged is raised
    instead of returning a value silently off target; a NaN or negative
    converge_tol, or a map of degree 1, raises ValueError, and a
    certificate whose recurrence has no root above 1 raises
    DegenerateLambda.  lambda_report is unused (the exact degrees carry
    the growth); it is kept only because the signature is pinned.
    """
    del lambda_report
    _check_tol(converge_tol)
    orbit = _OrbitRunner(f, cert, n_iters, precision)
    u, increments = orbit.value(z, converge_tol)
    return orbit.real(u), tuple(map(orbit.real, increments))


def _lambda(orbit: _OrbitRunner, lambda_report):
    """λ from the report of the runner's recurrence, or d in plain mode without a report.

    ValueError for a missing report with a certificate or a report of
    another recurrence.  A float at 53 bits and below, above it the
    report's value as an exact Fraction: an mpf's from the (sign,
    mantissa, exponent, bits) of its _mpf_, any other number's as it is.
    """
    spec, precision = orbit.spec, orbit.precision
    if lambda_report is None and not spec.h:
        lam = spec.d
    elif lambda_report is None or lambda_report.charpoly != spec.charpoly():
        raise ValueError(f"the residuals need the lambda report of {spec}")
    else:
        lam = lambda_report.lambda_
    if precision <= 53:
        return float(lam)
    sign, man, exp, _ = getattr(lam, "_mpf_", (0, lam, 0, None))
    man = -man if sign else man
    return Fraction(man, 1 << -exp) if exp < 0 else Fraction(man << exp)


def _same(v, w):
    """v and w bit for bit (== alone takes −0.0 for 0.0), so that a run from one is a run from the other."""
    return v == w and repr(v) == repr(w)


def functional_eq_residual(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    z: Sequence,
    n_iters: int = 40,
    precision: int = 53,
):
    """|u(F(z)) − λ·u(z) − ((d−λ)/h)·log|H(z)|| at the unit-normalized z.

    The input is scaled to the unit sphere first, giving w.  u(F(z))
    runs its orbit from the quotient F(w)/‖F(w)‖ at height log‖F(w)‖,
    and u(z) from start(w), w normalized once more, as green_eval would
    take it; so F(z) and z carry the one normalization of w, which is
    what makes the identity hold without a floating additive constant.
    When start(w) is w bit for bit, u(z)'s orbit is the first n_iters
    steps of one run of n_iters + 1 points from w, and u(F(z)) folds
    the rest of it; otherwise u(z) takes a run of its own.  In plain
    (h = 0) mode the residual is |u(F(z)) − d·u(z)| and λ defaults to
    the degree; with a certificate lambda_report must be the report of
    its recurrence (ValueError otherwise, see _lambda).  A float at 53
    bits and below, an exact Fraction above, from the rounded values.
    """
    orbit = _OrbitRunner(f, cert, n_iters, precision, memo=True)
    lam = _lambda(orbit, lambda_report)
    w, _ = orbit.start(z)
    w0, gamma0 = orbit.start(w)
    # u(F(z)) folds the run from w past its first point, and u(z) its start when start(w) is w
    nfs, hs, last, lost = run = orbit.step.points(w, n_iters + 1)
    u_z = orbit.estimate(gamma0, run if _same(w0, w) else orbit.step.points(w0, n_iters))
    if nfs[0] < orbit.tol:
        raise OrbitHitIndeterminacy("F vanishes at the input point", step=0)
    u_fz = orbit.estimate(orbit.log(nfs[0]), (nfs[1:], hs[1:], last, lost))
    if cert is None:
        return abs(u_fz - lam * u_z)
    ah = abs(hs[0])
    if ah < orbit.tol:
        raise OrbitHitDivisor("input point lies on the extracted divisor", step=0)
    coef = (f.degree - lam) / cert.h
    return abs(u_fz - lam * u_z - coef * orbit.real(orbit.log(ah)))


def telescope_residual(
    f: ProjMap,
    cert: Optional[QASCertificate],
    lambda_report,
    z: Sequence,
    n: int,
    precision: int = 53,
    n_iters: int = 48,
):
    """Residual of the n-step telescoped identity, scaled by λ^{−n}.

    u(Fⁿ(z)) − λⁿ·u(z) − ((d−λ)/h)·Σ_{j=1..n} λ^{j−1}·log|H(F^{n−j}(z))|
    with Fᵐ the plain m-fold composition of the chosen lifting, which
    is the telescoping that unrolls the one-step equation.  The input
    is unit-normalized first; orbit heights stay in normalized (γ, w)
    form, so nothing overflows even though log‖Fᵐ(z)‖ grows like dᵐ.
    The plain orbit and u(z) fold one run; u(Fⁿ(z)) folds its
    continuation when start(wₙ) is wₙ bit for bit, and a run of its own
    otherwise.  λ comes from lambda_report as in functional_eq_residual.
    A float at 53 bits and below, an exact Fraction above.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    orbit = _OrbitRunner(f, cert, n_iters, precision, memo=True)
    lam = _lambda(orbit, lambda_report)
    digits = precision * math.log10(2)
    if n * math.log10(max(float(lam), 1.0 + 1e-9)) > digits - 6:
        raise AmplificationOverflow(
            f"lambda^{n} exceeds the usable precision ({precision} bits)", step=n
        )
    # plain composition on the runner's own step: heights scale by d^m, no extraction
    plan = _plan(DegreeRecurrence(d=f.degree, h=0, n0=1), n, precision <= 53)
    w, _ = orbit.start(z)
    # u(z) runs its orbit from the same start as the plain orbit, and its run continues the plain one's
    w0, gamma0 = orbit.start(w)
    head = orbit.step.points(w0, n)
    gammas = orbit.heights(gamma0, head, plan)[0]
    _, hs, w_n, _ = head
    v, gamma_n = orbit.start(w_n)
    # when start(w_n) is w_n, u(Fⁿ(z)) folds the tail of u(z)'s run, which then runs n_iters past w_n
    shared = _same(v, w_n)
    tail = orbit.step.points(w_n, n_iters if shared else max(n_iters - n, 0))
    u_z = orbit.estimate(gamma0, (head[0] + tail[0], hs + tail[1]) + tail[2:])
    u_wn = orbit.estimate(gamma_n, tail if shared else orbit.step.points(v, n_iters))
    d, real, lam_n = f.degree, orbit.real, lam**n
    u_fnz = real(d**n * gammas[n]) + u_wn
    if cert is None:
        return abs(u_fnz - lam_n * u_z) / lam_n
    acc = 0 * lam
    for j in range(1, n + 1):
        m = n - j
        ah = abs(hs[m])
        if ah < orbit.tol:
            raise OrbitHitDivisor(f"orbit met the divisor at step {m}", step=m)
        acc += lam ** (j - 1) * real(cert.h * d**m * gammas[m] + orbit.log(ah))
    coef = (d - lam) / cert.h
    return abs(u_fnz - lam_n * u_z - coef * acc) / lam_n


# -- grid sampling ------------------------------------------------------------


class GridSlice(NamedTuple):
    """A 2-plane window base + x·e1 + y·e2 over a real parameter box."""

    base: tuple
    e1: tuple
    e2: tuple
    x_range: tuple = (-1.0, 1.0)
    y_range: tuple = (-1.0, 1.0)


class GreenGrid(NamedTuple):
    """Sampled potential values over a slice; values are None off-status."""

    slice: GridSlice
    resolution: int
    values: tuple
    status: tuple
    meta: dict


def _independent(e1, e2) -> bool:
    # real-linear independence: e2 = i*e1 still spans a 2-plane, so the
    # test flattens to real coordinates and checks the Gram determinant,
    # exactly on the floats' values: no size of vector over- or underflows
    u = [Fraction(p) for x in e1 for p in (_to_complex(x).real, _to_complex(x).imag)]
    v = [Fraction(p) for x in e2 for p in (_to_complex(x).real, _to_complex(x).imag)]
    uu = sum(a * a for a in u)
    vv = sum(a * a for a in v)
    uv = sum(a * b for a, b in zip(u, v))
    return uu * vv - uv * uv > Fraction(1e-24) * uu * vv


def _grid_digest(f: ProjMap, cert: Optional[QASCertificate]) -> str:
    import hashlib
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
    a node outside the float range, or a NaN or negative converge_tol,
    is an input error (ValueError).  One prepared orbit runner serves
    every node, in row-major order on one thread, so the grid is
    deterministic and each node equals green_eval at that point; like
    green_eval, it ignores lambda_report, refuses a map of degree 1 and
    raises DegenerateLambda for a recurrence with no root above 1.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    _check_tol(converge_tol)
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
            return float(orbit.real(orbit.value(z, converge_tol)[0])), STATUS_OK
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


# -- exports ------------------------------------------------------------------


def export_grid_csv(grid: GreenGrid, path) -> None:
    """Rows x,y,u,status; u empty for non-OK nodes; row-major in x then y."""
    xs = list(map(repr, _axis(*grid.slice.x_range, grid.resolution)))
    ys = list(map(repr, _axis(*grid.slice.y_range, grid.resolution)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,u,status\n")
        for x, values, status in zip(xs, grid.values, grid.status):
            for y, v, s in zip(ys, values, status):
                cell = repr(v) if v is not None else ""
                fh.write(f"{x},{y},{cell},{s}\n")


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
