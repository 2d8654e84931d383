"""Exact sparse arithmetic for homogeneous polynomials over the rationals.

A polynomial is stored as a sorted tuple of ``(exponents, coefficient)``
pairs.  Exponent vectors are plain tuples of non-negative ints, one slot
per variable; coefficients are exact (`int` when the denominator is 1,
`fractions.Fraction` otherwise) and never zero.  Inside the multiply,
exact-division and composition kernels each exponent vector is packed
into one int, so a monomial product is an int add.  Terms are kept in
descending graded-lexicographic order, which for a homogeneous
polynomial reduces to descending lexicographic order on the exponent
tuples, so equal polynomials compare equal structurally and printing is
canonical.

The module provides construction, ring arithmetic, composition, formal
partial derivatives, exact evaluation, a strict text grammar with a
canonical printer, exact division, and a multivariate GCD.  The GCD
follows a content/primitive split with primitive-part pseudo-remainder
sequences in a chosen variable; cheap exactly-verified shortcuts (a
divisibility probe and a modular coprimality certificate) run first so
the PRS fallback is only paid when the answer is genuinely nontrivial.

Everything here is immutable and deterministic.  Operations whose
result would exceed a configurable term cap abort with `ResourceLimit`
instead of thrashing.
"""
from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


__all__ = [
    "HomPoly",
    "IntPrimitiveForm",
    "PolyError",
    "ArityMismatch",
    "DegreeMismatch",
    "NonHomogeneous",
    "UnknownVariable",
    "ParseError",
    "NotDivisible",
    "DivisionByZero",
    "ZeroPolynomialDegree",
    "ResourceLimit",
    "parse_poly",
    "poly_to_text",
    "poly_gcd",
    "poly_gcd_many",
    "coprime_certificate",
    "coprime_certificate_many",
    "exact_div",
    "int_primitive",
    "same_up_to_scalar",
    "random_hompoly",
    "set_term_cap",
    "get_term_cap",
]


class PolyError(Exception):
    """Base class for all polynomial-layer failures."""


class ArityMismatch(PolyError):
    """Operands disagree on the number of variables."""


class DegreeMismatch(PolyError):
    """Operands have incompatible degrees (e.g. adding degree 2 to 3)."""


class NonHomogeneous(PolyError):
    """A term set mixes total degrees."""


class UnknownVariable(PolyError):
    """The parser met an identifier outside the declared variables."""


class ParseError(PolyError):
    """The input text does not match the polynomial grammar."""


class NotDivisible(PolyError):
    """Exact division was requested but the divisor does not divide."""


class DivisionByZero(PolyError):
    """Division (or a primitive form) of/by the zero polynomial."""


class ZeroPolynomialDegree(PolyError):
    """The degree of the zero polynomial was queried."""


class ResourceLimit(PolyError):
    """An operation would exceed the configured term cap."""


_term_cap = 2_000_000


def set_term_cap(n: int) -> None:
    """Set the global cap on term counts produced by any single operation."""
    global _term_cap
    if n < 1:
        raise ValueError("term cap must be positive")
    _term_cap = int(n)


def get_term_cap() -> int:
    return _term_cap


def _guard(estimate: int) -> None:
    if estimate > _term_cap:
        raise ResourceLimit(
            f"operation could produce {estimate} terms, cap is {_term_cap}"
        )


def _canon_coeff(c):
    """Normalise an exact coefficient: ints stay ints, integral Fractions drop to int."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _monomial_bound(degree: int, nvars: int) -> int:
    """Number of monomials of the given total degree in nvars variables."""
    if nvars <= 0:
        return 1
    return math.comb(degree + nvars - 1, nvars - 1)


class HomPoly:
    """An immutable homogeneous polynomial with exact rational coefficients.

    >>> z, w = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    >>> p = z * z - 2 * z * w
    >>> poly_to_text(p, ("z", "w"))
    'z^2 - 2*z*w'

    The zero polynomial carries an explicit flag; querying its degree
    raises `ZeroPolynomialDegree` rather than returning a sentinel.
    """

    __slots__ = ("nvars", "terms", "_degree")

    def __init__(self, nvars: int, terms: Iterable[tuple[tuple[int, ...], object]] = ()):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        acc: dict[tuple[int, ...], object] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityMismatch(
                    f"exponent vector {exps} does not have {nvars} entries"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative ints: {exps}")
            c = acc.get(exps, 0) + Fraction(coeff)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        degrees = {sum(e) for e in acc}
        if len(degrees) > 1:
            raise NonHomogeneous(f"mixed total degrees {sorted(degrees)}")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(
            self,
            "terms",
            tuple(
                (e, _canon_coeff(c))
                for e, c in sorted(acc.items(), key=lambda t: t[0], reverse=True)
            ),
        )
        object.__setattr__(self, "_degree", degrees.pop() if degrees else 0)

    # -- trusted fast constructor -------------------------------------------------

    @classmethod
    def _new(cls, nvars: int, mapping: dict, degree: int) -> "HomPoly":
        """Build from a dict produced by internal arithmetic (already homogeneous)."""
        self = object.__new__(cls)
        items = sorted(
            ((e, _canon_coeff(c)) for e, c in mapping.items() if c),
            key=lambda t: t[0],
            reverse=True,
        )
        assert all(sum(e) == degree for e, _ in items), "internal homogeneity drift"
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "_degree", degree if items else 0)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    def __getstate__(self):
        return (self.nvars, self.terms, self._degree)

    def __setstate__(self, state):
        object.__setattr__(self, "nvars", state[0])
        object.__setattr__(self, "terms", state[1])
        object.__setattr__(self, "_degree", state[2])

    # -- builders -----------------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "HomPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "HomPoly":
        return cls(nvars, [((0,) * nvars, value)])

    @classmethod
    def one(cls, nvars: int) -> "HomPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "HomPoly":
        if not 0 <= index < nvars:
            raise ArityMismatch(f"variable index {index} out of range for {nvars} vars")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, [(exps, 1)])

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "HomPoly":
        return cls(nvars, [(tuple(exps), coeff)])

    # -- inspection ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialDegree("the zero polynomial has no degree")
        return self._degree

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def leading(self) -> tuple[tuple[int, ...], object]:
        """Leading (exponents, coefficient) under graded-lex."""
        if not self.terms:
            raise ZeroPolynomialDegree("the zero polynomial has no leading term")
        return self.terms[0]

    def as_dict(self) -> dict[tuple[int, ...], object]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.terms))

    def __repr__(self) -> str:
        return f"HomPoly({self.nvars}, {poly_to_text(self)!r})"

    # -- ring arithmetic ----------------------------------------------------------

    def _check_arity(self, other: "HomPoly") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        self._check_arity(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._degree != other._degree:
            raise DegreeMismatch(
                f"cannot add degree {self._degree} to degree {other._degree}"
            )
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                del acc[e]
        return HomPoly._new(self.nvars, acc, self._degree)

    def __sub__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HomPoly._new(
            self.nvars, {e: -c for e, c in self.terms}, self._degree
        )

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            self._check_arity(other)
            if self.is_zero or other.is_zero:
                return HomPoly.zero(self.nvars)
            return HomPoly._new(
                self.nvars,
                _dmul(dict(self.terms), dict(other.terms)),
                self._degree + other._degree,
            )
        if isinstance(other, (int, Fraction)):
            if not other or self.is_zero:
                return HomPoly.zero(self.nvars)
            return HomPoly._new(
                self.nvars, {e: c * other for e, c in self.terms}, self._degree
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        if n == 0:
            return HomPoly.one(self.nvars)
        if self.is_zero:
            return HomPoly.zero(self.nvars)
        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- composition, derivative, evaluation ---------------------------------------

    def compose(self, comps: Sequence["HomPoly"]) -> "HomPoly":
        """Substitute ``comps[i]`` for variable ``i``.

        All substituted polynomials must share an arity and (when
        nonzero) a common degree, so the result stays homogeneous.
        """
        comps = tuple(comps)
        if len(comps) != self.nvars:
            raise ArityMismatch(
                f"{self.nvars} variables need {self.nvars} substitutes, got {len(comps)}"
            )
        nv2 = comps[0].nvars
        for q in comps:
            if q.nvars != nv2:
                raise ArityMismatch("substituted polynomials disagree on arity")
        degs = {q._degree for q in comps if not q.is_zero}
        if len(degs) > 1:
            raise DegreeMismatch(f"substituted degrees differ: {sorted(degs)}")
        if self.is_zero:
            return HomPoly.zero(nv2)
        if not degs:
            # every substitute is zero: only a constant survives
            const = [c for e, c in self.terms if sum(e) == 0]
            return HomPoly.constant(nv2, const[0]) if const else HomPoly.zero(nv2)
        e_deg = degs.pop()
        if nv2 == self.nvars and all(
            q == HomPoly.variable(nv2, i) for i, q in enumerate(comps)
        ):
            return self
        out_deg = self._degree * e_deg
        _guard(_monomial_bound(out_deg, nv2))
        # every intermediate below is homogeneous of degree <= out_deg
        width = _field_width(out_deg)
        powers = [{0: {0: 1}, 1: _pack_dict(dict(q.terms), width)} for q in comps]
        if len(self.terms) > max(len(q.terms) for q in comps):
            # self is the large side: Horner keeps every product large x small
            acc = _horner(self.terms, 0, len(self.terms), 0, powers)
        else:
            acc = {}
            for exps, coeff in self.terms:
                term = {0: 1}
                for i, e in enumerate(exps):
                    if e:
                        term = _pmul(term, _ppower(powers[i], e))
                _pacc(acc, term, coeff)
        return HomPoly._new(nv2, _unpack_dict(acc, nv2, width), out_deg)

    def partial(self, index: int) -> "HomPoly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ArityMismatch(f"variable index {index} out of range")
        if self.is_zero or self._degree == 0:
            return HomPoly.zero(self.nvars)
        acc: dict = {}
        for exps, coeff in self.terms:
            e = exps[index]
            if e:
                key = tuple(x - 1 if i == index else x for i, x in enumerate(exps))
                acc[key] = acc.get(key, 0) + coeff * e
        return HomPoly._new(self.nvars, acc, self._degree - 1)

    def evaluate(self, point: Sequence):
        """Evaluate at a point.

        Rational input (ints / Fractions) gives an exact Fraction.
        Inexact input (float, complex, mpmath numbers) is carried
        through unchanged, so precision is the caller's choice.
        """
        if len(point) != self.nvars:
            raise ArityMismatch(f"point has {len(point)} entries, need {self.nvars}")
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        total = None
        for exps, coeff in self.terms:
            v = coeff
            for x, e in zip(point, exps):
                if e == 1:
                    v = v * x
                elif e:
                    v = v * x**e
            total = v if total is None else total + v
        if total is None:
            return Fraction(0) if exact else 0.0
        return Fraction(total) if exact else total


# ---------------------------------------------------------------------------
# dict-level kernels shared by composition, division, GCD and the parser
# ---------------------------------------------------------------------------


def _field_width(top: int) -> int:
    """Bits per packed exponent field when no exponent exceeds top.

    The bit above the largest value is a guard: sums of two exponents
    stay inside their field, and a borrow shows in it.
    """
    return top.bit_length() + 1


def _pack_dict(d: dict, width: int) -> dict:
    """Term dict with each exponent tuple packed into one int.

    Variable 0 takes the most significant field, so integer order is the
    lexicographic order of the tuples.
    """
    if not d:
        return {}
    cols = zip(*d)
    packed = next(cols)
    for col in cols:
        packed = [p << width | x for p, x in zip(packed, col)]
    return dict(zip(packed, d.values()))


def _unpack_dict(d: dict, nvars: int, width: int) -> dict:
    """Inverse of _pack_dict."""
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 1), -1, -width)
    return dict(zip(zip(*[[k >> s & mask for k in d] for s in shifts]), d.values()))


def _pmul(a: dict, b: dict) -> dict:
    """Product of packed term dicts, dropping cancelled terms once at the end."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    items = iter(a.items())
    ea, ca = next(items)
    # shifting by one monomial is injective: the first row needs no lookups
    out = {ea + eb: ca * cb for eb, cb in b.items()}
    get = out.get
    row = list(b.items())
    for ea, ca in items:
        for eb, cb in row:
            k = ea + eb
            out[k] = get(k, 0) + ca * cb
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _pacc(acc: dict, d: dict, c=1) -> None:
    """acc += c * d in place, for packed term dicts."""
    get = acc.get
    for k, v in d.items():
        s = get(k, 0) + c * v
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


def _ppower(powers: dict, k: int) -> dict:
    """q^k by repeated squaring, memoised in powers, which holds q^0 and q^1."""
    p = powers.get(k)
    if p is None:
        half = _ppower(powers, k // 2)
        p = _pmul(half, half)
        if k & 1:
            p = _pmul(p, powers[1])
        powers[k] = p
    return p


def _horner(terms, lo: int, hi: int, i: int, powers: list) -> dict:
    """Packed sum of c * prod_{j >= i} q_j^(e_j) over terms[lo:hi].

    The slice is in descending order and its exponents agree before slot
    i, so it splits into runs of equal e_i.  Horner's rule in variable i
    multiplies the running sum by a power of q_i between runs.  In the
    last slot homogeneity leaves a single term, which takes a cached
    power.
    """
    if i == len(powers) - 1:
        e, c = terms[lo]
        return {k: c * v for k, v in _ppower(powers[i], e[i]).items()}
    acc: dict = {}
    prev = 0
    j = lo
    while j < hi:
        k = terms[j][0][i]
        m = j + 1
        while m < hi and terms[m][0][i] == k:
            m += 1
        inner = _horner(terms, j, m, i + 1, powers)
        if j == lo:
            acc = inner
        else:
            acc = _pmul(acc, _ppower(powers[i], prev - k))
            _pacc(acc, inner)
        prev = k
        j = m
    return _pmul(acc, _ppower(powers[i], prev)) if prev else acc


def _dmul(a: dict, b: dict) -> dict:
    """Product of tuple-keyed term dicts (homogeneous or not)."""
    if not a or not b:
        return {}
    nv = len(next(iter(a)))
    top = max(map(sum, a)) + max(map(sum, b))
    pairs = len(a) * len(b)
    if pairs > _term_cap:
        # the output has at most as many terms as there are monomials of
        # total degree lo..top
        lo = min(map(sum, a)) + min(map(sum, b))
        _guard(min(pairs, math.comb(top + nv, nv) - math.comb(lo - 1 + nv, nv)))
    width = _field_width(top)
    return _unpack_dict(_pmul(_pack_dict(a, width), _pack_dict(b, width)), nv, width)


def _dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _dexact_div(num: dict, den: dict):
    """Exact division of tuple-keyed term dicts; None when den does not divide num.

    Cancels leading terms in lexicographic order, which is integer order
    on packed keys; that decides divisibility because leading terms are
    multiplicative in an integral domain under a monomial order.  With
    every guard bit set, one subtraction gives k - lt field by field,
    and a field with k_i < lt_i clears its guard bit.
    """
    if not den:
        raise DivisionByZero("division by the zero polynomial")
    if not num:
        return {}
    nvars = len(next(iter(den)))
    width = _field_width(max(max(map(sum, num)), max(map(sum, den))))
    guard = 0
    for _ in range(nvars):
        guard = guard << width | 1 << (width - 1)
    den = _pack_dict(den, width)
    lt = max(den)
    lc = den[lt]
    rest = [(e, c) for e, c in den.items() if e != lt]
    rem = _pack_dict(num, width)
    quo: dict = {}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue
        qe = (k | guard) - lt
        if (qe & guard) != guard:
            return None
        qe ^= guard
        if type(c) is int and type(lc) is int and not c % lc:
            qc = c // lc
        else:
            qc = _canon_coeff(Fraction(c) / lc)
        quo[qe] = qc
        for e2, c2 in rest:
            t = qe + e2
            if t & guard:
                # an exponent outgrew the dividend's degree, which no
                # term of an exact quotient times den can reach
                return None
            s = rem.get(t, 0) - qc * c2
            if s:
                if t not in rem:
                    heapq.heappush(heap, -t)
                rem[t] = s
            elif t in rem:
                del rem[t]
    return None if rem else _unpack_dict(quo, nvars, width)


def _dint_normalize(d: dict) -> tuple[Fraction, dict]:
    """Return (content, integer dict) with content * dict == input.

    The integer dict has coprime coefficients; the content carries the
    sign of the graded-lex leading coefficient so the leading
    coefficient of the returned dict is positive.
    """
    if not d:
        raise DivisionByZero("zero polynomial has no primitive form")
    denom_lcm = 1
    for c in d.values():
        if isinstance(c, Fraction):
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for c in d.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator) if isinstance(c, Fraction) else abs(c))
    lead = d[max(d)]
    sign = 1 if (lead > 0) else -1
    content = Fraction(sign * num_gcd, denom_lcm)
    div = sign * num_gcd
    out = {}
    for e, c in d.items():
        if isinstance(c, Fraction):
            out[e] = c.numerator * (denom_lcm // c.denominator) // div
        else:
            out[e] = int(c) * denom_lcm // div
    return content, out


# -- multivariate GCD: primitive pseudo-remainder sequences --------------------


def _deg_in(d: dict, x: int) -> int:
    return max((e[x] for e in d), default=-1)


def _lc_in(d: dict, x: int) -> dict:
    """Leading coefficient of d viewed as univariate in x (x-slot zeroed)."""
    m = _deg_in(d, x)
    out = {}
    for e, c in d.items():
        if e[x] == m:
            out[tuple(0 if i == x else v for i, v in enumerate(e))] = c
    return out


def _shift_in(d: dict, x: int, k: int) -> dict:
    if k == 0:
        return d
    return {tuple(v + k if i == x else v for i, v in enumerate(e)): c for e, c in d.items()}


def _prem(a: dict, b: dict, x: int) -> dict:
    """Pseudo-remainder of a by b in variable x (scalar multiples tolerated)."""
    db = _deg_in(b, x)
    lb = _lc_in(b, x)
    b_rest = {e: c for e, c in b.items() if e[x] != db}
    r = a
    while r:
        dr = _deg_in(r, x)
        if dr < db:
            break
        lr = _lc_in(r, x)
        r_rest = {e: c for e, c in r.items() if e[x] != dr}
        r = _dadd(
            _dmul(lb, r_rest),
            _dmul({e: -c for e, c in lr.items()}, _shift_in(b_rest, x, dr - db)),
        )
    return r


def _int_content(d: dict) -> int:
    g = 0
    for c in d.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _gcd_mv(a: dict, b: dict, nvars: int) -> dict:
    """GCD of integer term dicts, unique up to sign.

    Content/primitive split in the highest variable present, primitive
    PRS on the primitive parts, recursion on the coefficient ring.
    """
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    x = -1
    for i in range(nvars - 1, -1, -1):
        if _deg_in(a, i) > 0 or _deg_in(b, i) > 0:
            x = i
            break
    if x < 0:
        return {(0,) * nvars: math.gcd(_int_content(a), _int_content(b))}
    da, db = _deg_in(a, x), _deg_in(b, x)
    if da == 0 or db == 0:
        flat = a if da == 0 else b
        other = b if da == 0 else a
        coeffs = _x_coefficients(other, x)
        g = flat
        for c in coeffs.values():
            g = _gcd_mv(g, c, nvars)
            if _is_unit_dict(g, nvars):
                return g
        return g
    cont_a, pp_a = _x_content_split(a, x, nvars)
    cont_b, pp_b = _x_content_split(b, x, nvars)
    c = _gcd_mv(cont_a, cont_b, nvars)
    g, s = (pp_a, pp_b) if _deg_in(pp_a, x) >= _deg_in(pp_b, x) else (pp_b, pp_a)
    while True:
        r = _prem(g, s, x)
        if not r:
            result = s
            break
        if _deg_in(r, x) == 0:
            result = {(0,) * nvars: 1}
            break
        _, r = _x_content_split(r, x, nvars)
        g, s = s, r
    out = _dmul(c, result)
    cont = _int_content(out)
    if cont > 1:
        out = {e: v // cont for e, v in out.items()}
    return out


def _x_coefficients(d: dict, x: int) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for e, c in d.items():
        k = e[x]
        out.setdefault(k, {})[tuple(0 if i == x else v for i, v in enumerate(e))] = c
    return out


def _x_content_split(d: dict, x: int, nvars: int) -> tuple[dict, dict]:
    """Split d into (content, primitive part) w.r.t. variable x."""
    coeffs = _x_coefficients(d, x)
    it = iter(coeffs.values())
    g = dict(next(it))
    for c in it:
        g = _gcd_mv(g, c, nvars)
        if _is_unit_dict(g, nvars):
            break
    if _is_unit_dict(g, nvars):
        return {(0,) * nvars: 1}, dict(d)
    pp = _dexact_div(d, g)
    assert pp is not None, "content must divide"
    return g, pp


def _is_unit_dict(d: dict, nvars: int) -> bool:
    if len(d) != 1:
        return False
    ((e, c),) = d.items()
    return not any(e) and abs(c) == 1


# -- modular coprimality certificate -------------------------------------------

_CERT_PRIME = (1 << 61) - 1  # Mersenne prime, comfortably above any degree here


def _specialize_univar(d: dict, x: int, vals: dict[int, int]) -> list[int]:
    """Exact integer coefficients of d with every variable but x fixed."""
    coeffs = [0] * (_deg_in(d, x) + 1)
    for e, c in d.items():
        v = c
        for i, ei in enumerate(e):
            if i != x and ei:
                v *= vals[i] ** ei
        coeffs[e[x]] += v
    return coeffs


def _modp_gcd(A: list[int], B: list[int], p: int) -> list[int]:
    """Monic gcd of two univariate polynomials over GF(p), low-to-high coefficients."""
    a = [c % p for c in A]
    b = [c % p for c in B]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - f * bc) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


class _CertRng:
    """Deterministic small-integer stream for certificate specializations."""

    def __init__(self, salt: int):
        self.state = (0x9E3779B97F4A7C15 * (salt + 1)) & ((1 << 64) - 1)

    def next_int(self, lo: int, hi: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & (
            (1 << 64) - 1
        )
        return lo + (self.state >> 33) % (hi - lo + 1)


def _coprime_cert_many(ds: Sequence[dict], nvars: int, attempts: int = 6) -> bool:
    """Try to *prove* the family's common gcd is constant.

    Sound but incomplete: any common divisor g has its x-leading
    coefficient dividing each input's, so a specialisation that keeps
    every input's x-leading coefficient nonzero mod p keeps the degree
    of g's image equal to deg_x g, and a constant fold-gcd mod p then
    forces deg_x g = 0.  True certifies; False just means fall back.
    """
    for x in range(nvars):
        if any(_deg_in(d, x) <= 0 for d in ds):
            continue  # the common gcd already has degree 0 in x
        rng = _CertRng(x * 1000003 + len(ds))
        certified = False
        for _ in range(attempts):
            vals = {i: rng.next_int(-49, 49) for i in range(nvars) if i != x}
            images = []
            for d in ds:
                U = _specialize_univar(d, x, vals)
                if not U or U[-1] == 0 or U[-1] % _CERT_PRIME == 0:
                    images = None
                    break
                images.append(U)
            if images is None:
                continue
            g = [c % _CERT_PRIME for c in images[0]]
            for U in images[1:]:
                g = _modp_gcd(g, U, _CERT_PRIME)
                if len(g) == 1:
                    break
            if len(g) == 1:
                certified = True
                break
        if not certified:
            return False
    return True


def _coprime_cert(a: dict, b: dict, nvars: int, attempts: int = 6) -> bool:
    """Try to *prove* gcd(a, b) is constant (see _coprime_cert_many)."""
    return _coprime_cert_many((a, b), nvars, attempts)


def coprime_certificate(a: "HomPoly", b: "HomPoly") -> bool:
    """Public wrapper: True proves gcd(a, b) is constant."""
    return coprime_certificate_many((a, b))


def coprime_certificate_many(polys: Sequence["HomPoly"]) -> bool:
    """True proves the nonzero members share no nonconstant factor.

    Zero polynomials are ignored (they divide everything); an all-zero
    family is never certified.  False is not a disproof, only a miss.
    """
    live = [p for p in polys if not p.is_zero]
    if not live:
        return False
    nv = live[0].nvars
    for p in live[1:]:
        live[0]._check_arity(p)
    if any(p._degree == 0 for p in live):
        return True
    ds = [_dint_normalize(dict(p.terms))[1] for p in live]
    # a variable dividing every member kills coprimality outright
    for x in range(nv):
        if all(min(e[x] for e in d) > 0 for d in ds):
            return False
    return _coprime_cert_many(ds, nv)


# -- heuristic evaluate-and-reconstruct GCD ------------------------------------

_HEU_BIT_BUDGET = 1_500_000  # cap on evaluated coefficient size, bits


def _dnorm_inf(d: dict) -> int:
    return max(abs(c) for c in d.values())


def _heval(d: dict, x: int, xi: int) -> dict:
    """Image of d under x -> xi, keyed with slot x zeroed out.

    With xi larger than twice the coefficient norm the monomial images
    act as balanced base-xi digits, so no surviving key can cancel to
    zero; smaller xi can lose terms, which the retry loop absorbs.
    """
    powers: dict[int, int] = {0: 1}
    out: dict = {}
    for e, c in d.items():
        k = e[x]
        pw = powers.get(k)
        if pw is None:
            pw = xi**k
            powers[k] = pw
        key = tuple(0 if i == x else v for i, v in enumerate(e))
        s = out.get(key, 0) + c * pw
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _hreconstruct(d: dict, x: int, xi: int) -> dict:
    """Invert _heval by balanced base-xi digit extraction per coefficient."""
    half = xi // 2
    out: dict = {}
    for e, c in d.items():
        i = 0
        v = c
        while v:
            r = v % xi
            if r > half:
                r -= xi
            if r:
                out[e[:x] + (i,) + e[x + 1 :]] = r
            v = (v - r) // xi
            i += 1
    return out


def _heugcd_core(a: dict, b: dict, nvars: int):
    """Heuristic gcd of integer term dicts; None on a miss.

    Evaluates the trailing active variable at a large integer,
    recurses, and lifts the result back by digit extraction.  A
    candidate is returned only after exact division into both inputs,
    so any non-None result is a genuine common divisor; it may still
    be a proper factor of the gcd, which the caller has to rule out.
    """
    xs = [x for x in range(nvars) if _deg_in(a, x) > 0 or _deg_in(b, x) > 0]
    if not xs:
        ((_, ca),) = a.items()
        ((_, cb),) = b.items()
        return {(0,) * nvars: math.gcd(ca, cb)}
    x = xs[-1]
    dx = max(_deg_in(a, x), _deg_in(b, x))
    # factors of already-eliminated variables live in the shared integer
    # content; split it off, run the heuristic on primitive parts where
    # any leftover content is junk to strip, and reattach at the end
    ca, pa = _dint_normalize(a)
    cb, pb = _dint_normalize(b)
    ground = math.gcd(ca.numerator, cb.numerator)
    na, nb = _dnorm_inf(pa), _dnorm_inf(pb)
    big = 2 * min(na, nb) + 29
    xi = max(
        min(big, 99 * math.isqrt(big)),
        2 * min(na // abs(pa[max(pa)]), nb // abs(pb[max(pb)])) + 4,
    )
    for _ in range(6):
        if dx * xi.bit_length() > _HEU_BIT_BUDGET:
            return None
        A = _heval(pa, x, xi)
        B = _heval(pb, x, xi)
        if A and B:
            g = _heugcd_core(A, B, nvars)
            if g is not None:
                g = _hreconstruct(g, x, xi)
                if g:
                    _, g = _dint_normalize(g)
                    if _dexact_div(pa, g) is not None and _dexact_div(pb, g) is not None:
                        if ground != 1:
                            g = {e: c * ground for e, c in g.items()}
                        return g
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heugcd_try(a: dict, b: dict, nvars: int):
    """Verified common-divisor candidate for homogeneous integer dicts.

    Expects inputs with their per-input monomial content already
    stripped, so the last variable divides neither and dehomogenising
    it preserves the gcd.  The lifted candidate is checked by exact
    division against the original inputs; returns (g, a // g, b // g)
    or None.
    """
    x = nvars - 1
    ah = {e[:x] + (0,): c for e, c in a.items()}
    bh = {e[:x] + (0,): c for e, c in b.items()}
    g = _heugcd_core(ah, bh, nvars)
    if g is None:
        return None
    _, g = _dint_normalize(g)
    dg = max(sum(e) for e in g)
    G = {e[:x] + (dg - sum(e),): c for e, c in g.items()}
    qa = _dexact_div(a, G)
    if qa is None:
        return None
    qb = _dexact_div(b, G)
    if qb is None:
        return None
    return G, qa, qb


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPrimitiveForm:
    """Canonical scaling of a nonzero polynomial.

    ``content * primitive`` reproduces the input exactly.  The
    primitive part has coprime integer coefficients and a positive
    graded-lex leading coefficient; the content is a nonzero rational
    whose sign matches the input's leading coefficient (a negative
    input cannot have both a positive content and a positive primitive
    leading coefficient, so the sign lives in the content).
    """

    content: Fraction
    primitive: HomPoly

    def __post_init__(self):
        assert not self.primitive.is_zero


def int_primitive(p: HomPoly) -> IntPrimitiveForm:
    """Split p into content times integer-primitive part (canonical up-to-scalar form)."""
    if p.is_zero:
        raise DivisionByZero("the zero polynomial has no primitive form")
    content, d = _dint_normalize(dict(p.terms))
    return IntPrimitiveForm(Fraction(content), HomPoly._new(p.nvars, d, p._degree))


def same_up_to_scalar(a: HomPoly, b: HomPoly) -> bool:
    """True when a and b differ by a nonzero rational scalar."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    if a.nvars != b.nvars or a._degree != b._degree:
        return False
    return int_primitive(a).primitive == int_primitive(b).primitive


def exact_div(a: HomPoly, b: HomPoly) -> HomPoly:
    """Exact quotient a / b; raises NotDivisible when b does not divide a."""
    if not isinstance(a, HomPoly) or not isinstance(b, HomPoly):
        raise TypeError("exact_div expects HomPoly operands")
    a._check_arity(b)
    if b.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if a.is_zero:
        return HomPoly.zero(a.nvars)
    if a._degree < b._degree:
        raise NotDivisible(f"degree {a._degree} not divisible by degree {b._degree}")
    q = _dexact_div(dict(a.terms), dict(b.terms))
    if q is None:
        raise NotDivisible("remainder is nonzero")
    return HomPoly._new(a.nvars, q, a._degree - b._degree)


def poly_gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """GCD in canonical primitive form (unit content, positive leading coefficient).

    Strategy: strip the shared monomial factor, try a quick mutual
    divisibility probe and the modular coprimality certificate, and
    only then run the primitive-PRS engine.  Every shortcut's answer
    is exact; nothing unverified is ever returned.
    """
    a._check_arity(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return int_primitive(b).primitive
    if b.is_zero:
        return int_primitive(a).primitive
    nv = a.nvars
    da, db = dict(a.terms), dict(b.terms)
    min_a = [min(e[i] for e in da) for i in range(nv)]
    min_b = [min(e[i] for e in db) for i in range(nv)]
    shared = tuple(min(x, y) for x, y in zip(min_a, min_b))
    da = {tuple(v - m for v, m in zip(e, min_a)): c for e, c in da.items()}
    db = {tuple(v - m for v, m in zip(e, min_b)): c for e, c in db.items()}
    _, da = _dint_normalize(da)
    _, db = _dint_normalize(db)
    mono = HomPoly.monomial(nv, shared)

    def finish(g: dict) -> HomPoly:
        _, g = _dint_normalize(g)
        deg = max(sum(e) for e in g)
        gp = HomPoly._new(nv, g, deg)
        if any(shared):
            gp = gp * mono
        return int_primitive(gp).primitive

    unit = {(0,) * nv: 1}
    if len(da) == 1 and not any(next(iter(da))):
        return finish(unit)
    if len(db) == 1 and not any(next(iter(db))):
        return finish(unit)
    if da == db:
        return finish(da)
    deg_a = max(sum(e) for e in da)
    deg_b = max(sum(e) for e in db)
    if deg_a >= deg_b and _dexact_div(da, db) is not None:
        return finish(db)
    if deg_b > deg_a and _dexact_div(db, da) is not None:
        return finish(da)
    if _coprime_cert(da, db, nv):
        return finish(unit)
    res = _heugcd_try(da, db, nv)
    if res is not None:
        g, qa, qb = res
        if not _is_unit_dict(g, nv):
            if _coprime_cert_many((qa, qb), nv):
                return finish(g)
            # verified divisor, maximality open: peel it and recurse
            rest = poly_gcd(
                HomPoly._new(nv, qa, max(sum(e) for e in qa)),
                HomPoly._new(nv, qb, max(sum(e) for e in qb)),
            )
            return finish(_dmul(g, dict(rest.terms)))
    return finish(_gcd_mv(da, db, nv))


def poly_gcd_many(polys: Sequence[HomPoly]) -> HomPoly:
    """GCD of a family, smallest operands first, with an early unit exit."""
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd of an all-zero family is undefined")
    nv = nonzero[0].nvars
    for p in nonzero[1:]:
        nonzero[0]._check_arity(p)
    if any(p._degree == 0 for p in nonzero):
        return HomPoly.one(nv)
    if len(nonzero) > 2:
        # certify gcd == shared monomial factor without pairwise work
        ds = [_dint_normalize(dict(p.terms))[1] for p in nonzero]
        shared = tuple(min(min(e[x] for e in d) for d in ds) for x in range(nv))
        stripped = [
            {tuple(v - m for v, m in zip(e, shared)): c for e, c in d.items()}
            for d in ds
        ]
        if _coprime_cert_many(stripped, nv):
            return HomPoly.monomial(nv, shared)
    nonzero.sort(key=lambda p: (p.term_count, p._degree))
    g = int_primitive(nonzero[0]).primitive
    for p in nonzero[1:]:
        if g._degree == 0:
            break
        g = poly_gcd(g, p)
    return g


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r} at offset {m.start()}")
        if num is not None:
            out.append(("int", num))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("op", op))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive-descent parser for the textual grammar.

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var ['^' uint] | '(' expr ')'
    rational := uint ['/' uint]
    """

    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = list(names)
        self.nvars = len(self.names)
        self.index = {n: i for i, n in enumerate(self.names)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse(self) -> dict:
        d = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {val!r}")
        return d

    def expr(self) -> dict:
        kind, val = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.take()
        d = self.term()
        if negate:
            d = {e: -c for e, c in d.items()}
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                if val == "-":
                    t = {e: -c for e, c in t.items()}
                d = _dadd(d, t)
            else:
                return d

    def term(self) -> dict:
        d = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                d = _dmul(d, self.factor())
            else:
                return d

    def factor(self) -> dict:
        kind, val = self.take()
        if kind == "int":
            num = int(val)
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3 = self.take()
                if k3 != "int":
                    raise ParseError(f"expected denominator digits, found {v3!r}")
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator")
                c = Fraction(num, den)
            else:
                c = num
            return {(0,) * self.nvars: c} if c else {}
        if kind == "name":
            if val not in self.index:
                raise UnknownVariable(f"unknown variable {val!r}; have {self.names}")
            i = self.index[val]
            e = 1
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                k3, v3 = self.take()
                if k3 != "int":
                    raise ParseError(f"expected exponent digits, found {v3!r}")
                e = int(v3)
            exps = tuple(e if j == i else 0 for j in range(self.nvars))
            return {exps: 1}
        if kind == "op" and val == "(":
            d = self.expr()
            self.expect_op(")")
            return d
        raise ParseError(f"unexpected token {val!r}")


def parse_poly(text: str, names: Sequence[str]) -> HomPoly:
    """Parse the strict grammar into a HomPoly over the named variables.

    The final collected form must be homogeneous; intermediate
    subexpressions are unconstrained so products of parenthesised sums
    work naturally.
    """
    if len(set(names)) != len(tuple(names)):
        raise ParseError(f"duplicate variable names in {list(names)}")
    d = _Parser(text, names).parse()
    degrees = {sum(e) for e in d}
    if len(degrees) > 1:
        raise NonHomogeneous(
            f"{text!r} collects terms of degrees {sorted(degrees)}"
        )
    nv = len(tuple(names))
    return HomPoly._new(nv, d, degrees.pop() if degrees else 0)


def poly_to_text(p: HomPoly, names: Sequence[str] | None = None) -> str:
    """Canonical printer; parse_poly(poly_to_text(p), names) == p."""
    if names is None:
        names = [f"x{i}" for i in range(p.nvars)]
    if len(names) != p.nvars:
        raise ArityMismatch(f"{p.nvars} variables need {p.nvars} names")
    if p.is_zero:
        return "0"
    pieces = []
    for k, (exps, coeff) in enumerate(p.terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        vars_part = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(exps)
            if e
        )
        if not vars_part:
            body = _coeff_text(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{_coeff_text(mag)}*{vars_part}"
        if k == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


def _coeff_text(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


# ---------------------------------------------------------------------------
# randomised construction (deterministic given the rng)
# ---------------------------------------------------------------------------


def random_hompoly(rng, nvars: int, degree: int, max_terms: int, coeff_bound: int) -> HomPoly:
    """A random nonzero homogeneous polynomial driven by the given rng."""
    if degree < 0 or max_terms < 1 or coeff_bound < 1:
        raise ValueError("degree >= 0, max_terms >= 1, coeff_bound >= 1 required")
    acc: dict = {}
    while not acc:
        for _ in range(max_terms):
            cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
            exps = []
            prev = 0
            for c in cuts:
                exps.append(c - prev)
                prev = c
            exps.append(degree - prev)
            coeff = rng.randint(1, coeff_bound) * rng.choice((1, -1))
            key = tuple(exps)
            s = acc.get(key, 0) + coeff
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
    return HomPoly._new(nvars, acc, degree)
