"""Exact sparse arithmetic for homogeneous polynomials over the rationals.

A polynomial is stored as a sorted tuple of ``(exponents, coefficient)``
pairs.  Exponent vectors are plain tuples of non-negative ints, one slot
per variable; coefficients are exact (`int` when the denominator is 1,
`fractions.Fraction` otherwise) and never zero.  Inside the kernels each
exponent vector is packed into one int, so a monomial product is an int
add.  Homogeneous int forms in two or more variables are raised to
powers, composed and divided on rows, the one big-int layout (Kronecker
substitution): a row holds the coefficients that share the exponents of
x_0 .. x_{n-3} in one int, so the inner loops are big-int arithmetic.
Powers and compositions always run on rows: Fraction data is first
scaled to int forms, and one-variable data is one term, so it is
evaluated exactly.  A product of two forms takes the term loop over
packed dicts; a division first scales both forms to primitive int
forms, and when the quotient outgrows the slots sized from the dividend
it is divided once more in slots sized from Mahler's bound on any
factor of the dividend.  One routine composes, and divides each
composition on its own rows when given a divisor (`compose_all` is its
case with none), and one proof checks every quotient decoded from rows.
Terms are kept in descending graded-lexicographic order, which for a
homogeneous polynomial reduces to descending lexicographic order on the
exponent tuples, so equal polynomials compare equal structurally and
printing is canonical.

The module provides construction, ring arithmetic, composition, formal
partial derivatives, exact evaluation, a strict text grammar with a
canonical printer, exact division, and a multivariate GCD of any
number of members.  The GCD strips each member's monomial content,
proves a constant gcd from univariate images mod p, one when a member
has a pure power prime to p and else one per variable but the last, and
otherwise makes one run of a dense modular engine over every member
(Brown's algorithm over GF(p) in a chart chosen from the first member's
leading coefficients, combined by CRT), whose answer divides each
member exactly and is proved maximal from leading monomials; a member
that divides the others is found the same way.  Coprimality is decided by the same GCD.

Everything here is immutable and deterministic.  Operations whose
result would exceed a configurable term cap abort with `ResourceLimit`
instead of thrashing.
"""
from __future__ import annotations

import functools
import heapq
import math
import random
import re
from fractions import Fraction
from itertools import chain, count, groupby, permutations, takewhile
from operator import add, itemgetter, mul, sub
from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["polycore"])


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


def _quo(c, d):
    """c / d exactly: an int when the quotient is integral, else a Fraction."""
    if type(c) is int and type(d) is int and not c % d:
        return c // d
    return _canon_coeff(Fraction(c) / d)


def _monomial_bound(degree: int, nvars: int) -> int:
    """Number of monomials of the given total degree in nvars variables."""
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
            if any(not isinstance(e, int) or e < 0 for e in exps):
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
        # unique keys: the pairs sort by exponents, and `_row_decode`'s order in one pass
        pairs = [(e, c if type(c) is int else _canon_coeff(c)) for e, c in mapping.items() if c]
        items = sorted(pairs, reverse=True)
        assert set(map(sum, mapping)) <= {degree}, "internal homogeneity drift"
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
        return HomPoly._new(self.nvars, _dadd(dict(self.terms), dict(other.terms)), self._degree)

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
        nv, top = self.nvars, self._degree * n
        if nv == 1:
            [(_, c)] = self.terms
            return HomPoly._new(1, {(top,): c**n}, top)
        # no power on the way has more terms than there are monomials of
        # degree top or multisets of n terms of self
        _guard(min(_monomial_bound(top, nv), math.comb(n + len(self.terms) - 1, n)))
        # (F/den)^n = F^n/den^n for the int form F
        den, (terms,) = _int_terms(self.terms)
        width = _field_width(top)
        d = _pack_dict(dict(terms), width)
        # the 1-norm is submultiplicative, so it bounds every coefficient of F^n
        s = _slot_bytes(sum(map(abs, d.values())) ** n)
        rows = _ppower({0: {0: 1}, 1: _row_ints(d, width, s)}, n)
        return HomPoly._new(nv, _unscale(_row_decode(rows, width, nv, top, s), den**n), top)

    # -- composition, derivative, evaluation ---------------------------------------

    def compose(self, comps: Sequence["HomPoly"]) -> "HomPoly":
        """Substitute ``comps[i]`` for variable ``i``: the one-form case of `compose_all`."""
        return compose_all((self,), comps)[0]

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


def compose_all(forms: Sequence[HomPoly], substitutes: Sequence[HomPoly]) -> tuple:
    """``tuple(f.compose(substitutes) for f in forms)``, composed in one pass: `_compose_divide` with no divisor."""
    return _compose_divide(forms, substitutes)[0]


def _compose_divide(forms: Sequence[HomPoly], substitutes: Sequence[HomPoly], den: HomPoly | None = None) -> tuple:
    """(the f(q) / den for f in forms, True) when den divides every f(q), else (the f(q), False).

    ``substitutes[i]`` replaces variable ``i`` of every form; they must
    share an arity and (when nonzero) a degree.  With den None nothing is
    divided.  One-variable substitutes are c_i x^d, so f(q) = f(c)
    x^(d deg f) by exact `evaluate`, divided by `exact_div`.  Otherwise a
    form f = F/den_f over q_i = Q_i/D, with F and the Q_i int forms
    (`_int_terms`; int data passes as it is), gives
    f(q) = F(Q) / (den_f D^(deg f)), and every F(Q) is formed by Horner's
    rule on rows in one pass, which shares its slot width, powers and
    products across the forms (`_row_compose`).  By Gauss's lemma the
    primitive part of den divides f(q) iff it divides F(Q) over Z, so
    F(Q) is divided on its own rows and only the quotient is decoded
    (`_row_quotient`, with the bound B of f, at least every coefficient
    of F(Q), as its norm).  A row remainder proves that den does not
    divide; a quotient that does not decode or is not proved hands the
    decoded F(Q) to `_dexact_div`: nothing is composed twice.
    """
    forms, comps = tuple(forms), tuple(substitutes)
    for f in forms:
        if f.nvars != len(comps):
            raise ArityMismatch(f"{f.nvars} variables need {f.nvars} substitutes, got {len(comps)}")
    nv = comps[0].nvars
    if any(q.nvars != nv for q in comps):
        raise ArityMismatch("substituted polynomials disagree on arity")
    degs = {q._degree for q in comps if not q.is_zero}
    if len(degs) > 1:
        raise DegreeMismatch(f"substituted degrees differ: {sorted(degs)}")
    # with every substitute zero, every sum but a constant form's is empty
    tops = [f._degree * max(degs, default=0) for f in forms]
    if den is not None:
        den._check_arity(comps[0])
    if nv == 1:
        c = [q.terms[0][1] if q.terms else 0 for q in comps]
        outs = tuple(HomPoly._new(1, {(top,): f.evaluate(c)}, top) for f, top in zip(forms, tops))
        try:
            return (outs, False) if den is None else (tuple(exact_div(p, den) for p in outs), True)
        except NotDivisible:
            return outs, False
    _guard(_monomial_bound(max(tops, default=0), nv))
    # every intermediate below is homogeneous of degree <= max(tops)
    width = _field_width(max(tops, default=0))
    D, qs = _int_terms(*(q.terms for q in comps))
    scaled = [_int_terms(f.terms) for f in forms]
    subs = [_pack_dict(dict(q), width) for q in qs]
    sums, bounds, s = _row_compose([(t, top) for (_, (t,)), top in zip(scaled, tops)], subs, width)
    scales = [fden * D**f._degree for (fden, _), f in zip(scaled, forms)]
    if den is not None:
        cd, dd = _dint_normalize(dict(den.terms))
        pden, quots = _pack_dict(dd, width), []
        for rows, bound, top, k in zip(sums, bounds, tops, scales):
            q = _row_quotient(rows, pden, bound, width, nv, top - den._degree, s)
            if q is False:
                q = _dexact_div(_row_decode(rows, width, nv, top, s), dd)
            if q is None:
                break
            quots.append(HomPoly._new(nv, _unscale(q, k * cd), top - den._degree))
        else:
            return tuple(quots), True
    outs = [_row_decode(rows, width, nv, top, s) for rows, top in zip(sums, tops)]
    assert None not in outs, "composition outgrew its slot bound"
    return tuple(HomPoly._new(nv, _unscale(out, k), top) for out, k, top in zip(outs, scales, tops)), False


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


def _slot_bytes(bound: int) -> int:
    """The fewest bytes s per slot with 2^(8s-1) > bound."""
    return bound.bit_length() // 8 + 1


def _slot_int(cells, size: int, s: int) -> int:
    """The int sum of c * 2^(8*s*i) over the (i, c) in cells: distinct i < size, |c| < 2^(8s)."""
    pos = bytearray(size * s)
    neg = bytearray(len(pos))
    for i, c in cells:
        if c > 0:
            pos[i * s : i * s + s] = c.to_bytes(s, "little")
        else:
            neg[i * s : i * s + s] = (-c).to_bytes(s, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _slot_bias(size: int, s: int) -> tuple[int, int]:
    """(half, bias): adding bias makes each of size slots of s bytes hold c + half >= 0."""
    half = 1 << 8 * s - 1
    return half, int.from_bytes(half.to_bytes(s, "little") * size, "little")


def _pmul(a: dict, b: dict) -> dict:
    """Product of packed term dicts by the term loop, dropping cancelled terms once at the end.

    It multiplies each pair of terms and sums by key.  Only `_dmul`
    calls it, for every product of two forms with more than one term
    each; powers and compositions run on rows.
    """
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


def _pacc(acc: dict, d: dict) -> None:
    """acc += d in place, for term dicts with packed or tuple keys."""
    get = acc.get
    for k, v in d.items():
        s = get(k, 0) + v
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


def _ppower(powers: dict, k: int) -> dict:
    """q^k by repeated squaring of rows, memoised in powers, which holds q^0 and q^1."""
    p = powers.get(k)
    if p is None:
        half = _ppower(powers, k // 2)
        p = _row_mul(half, half)
        if k & 1:
            p = _row_mul(p, powers[1])
        powers[k] = p
    return p


def _int_terms(*terms) -> tuple:
    """(D, (D t for t in terms)) for tuples t of (key, coefficient) pairs, D the lcm of every denominator.

    With every coefficient an int, D is 1 and each tuple is passed as it is.
    """
    den = math.lcm(*(c.denominator for t in terms for _, c in t if type(c) is not int))
    if den == 1:
        return 1, terms
    return den, tuple(tuple((e, (c * den).numerator) for e, c in t) for t in terms)


def _unscale(d: dict, den) -> dict:
    """d / den for a rational den, d itself when den is 1."""
    return d if den == 1 else {e: Fraction(c, den) for e, c in d.items()}


# -- rows: a homogeneous int polynomial as Kronecker images of binary forms ---
#
# A row holds the terms that share the exponents of x_0 .. x_{n-3}.  Its
# key is the packed key of the term without the last two fields, and its
# value is the int sum of c * 2^(8*s*j) over its terms, where j is the
# exponent of x_{n-2} and s is the slot width in bytes; homogeneity fixes
# the exponent of x_{n-1}.  Substituting x_{n-2} = 2^(8s), x_{n-1} = 1 is a
# ring homomorphism, so sums and products of rows are exact int sums and
# products whatever their slots hold on the way; a row decodes back to
# its coefficients when each lies in (-2^(8s-1), 2^(8s-1)).  Every quotient
# of rows is decoded and proved by `_row_quotient` from a norm of the
# dividend: its sup norm in `_dexact_div`, and in `_compose_divide` the
# composition's slot bound B, which is at least each of its coefficients.


def _row_ints(d: dict, width: int, s: int) -> dict:
    """The rows, with slots of s bytes, of a packed homogeneous int dict."""
    mask, head = (1 << width) - 1, 2 * width
    cells: dict = {}
    for k, c in d.items():
        cells.setdefault(k >> head, []).append((k >> width & mask, c))
    return {
        key: _slot_int(cs, max(j for j, _ in cs) + 1, s) for key, cs in cells.items()
    }


def _row_mul(a: dict, b: dict) -> dict:
    """Product of rows: each pair of rows multiplies as two ints, and keys add.

    Each row is multiplied without its empty low slots, which are shifted
    back onto the product, so a row with few terms, such as a row of a
    sparse substitute, costs about as much as its terms times an int.
    A square takes each unordered pair of rows once.
    """
    def strip(d):
        # v = u << t with u odd; zero rows add nothing
        return [(k, v >> (t := (v & -v).bit_length() - 1), t) for k, v in d.items() if v]

    out: dict = {}
    get = out.get
    if a is b:
        rows = strip(a)
        for i, (ka, ua, ta) in enumerate(rows):
            out[ka + ka] = get(ka + ka, 0) + (ua * ua << 2 * ta)
            ua <<= 1
            for kb, ub, tb in rows[i + 1 :]:
                out[ka + kb] = get(ka + kb, 0) + (ua * ub << ta + tb)
        return out
    row = strip(b)
    for ka, ua, ta in strip(a):
        for kb, ub, tb in row:
            out[ka + kb] = get(ka + kb, 0) + (ua * ub << ta + tb)
    return out


def _row_decode(rows: dict, width: int, nvars: int, top: int, s: int) -> dict | None:
    """Tuple-keyed terms of degree top from rows, in descending order; None when a row does not decode.

    A row whose leading exponents sum above top, or whose int does not
    fit its slots with every coefficient in (-2^(8s-1), 2^(8s-1)), is
    not the image of a form of degree top.  Reading the rows by descending
    key, each from its top slot, gives the order of `HomPoly.terms`.
    """
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 3), -1, -width)
    out = {}
    for key in sorted(rows, reverse=True):
        head = tuple(key >> sh & mask for sh in shifts)
        m = top - sum(head)
        if m < 0:
            return None
        half, bias = _slot_bias(m + 1, s)
        v = rows[key] + bias
        if v < 0 or v >> 8 * s * (m + 1):
            return None
        buf = v.to_bytes(s * (m + 1), "big")
        for j, i in zip(range(m, -1, -1), range(0, len(buf), s)):
            if c := int.from_bytes(buf[i : i + s], "big") - half:
                out[head + (j, m - j)] = c
    return out


def _row_compose(forms, subs: list, width: int) -> tuple:
    """(rows, bounds, s): the sums of c * prod_i q_i^(e_i) over each form's terms as rows, by Horner's rule.

    forms holds (terms, top) pairs; subs[i] is q_i as a packed dict;
    every coefficient is an int and each sum has degree top in two or
    more variables.  Each of its coefficients is at most the form's
    bound B = sum |c| prod_i max(1, ||q_i||_1)^(e_i), as the 1-norm is
    submultiplicative, so slots of s bytes with 2^(8s-1) above every
    form's B, and above each ||q_i||_1 for the rows of q_i, decode each
    sum once at the end (`_row_decode` at degree top).

    A form's terms are in descending order, so those that agree before
    slot i split into runs of equal e_i.  Horner's rule in variable i
    multiplies the running sum by a power of q_i between runs, a product
    of rows, with the powers of each q_i as rows memoised across the
    forms.  A single term c x_i^(e_i) .. x_{n-1}^(e_{n-1}), which
    homogeneity leaves in the last slot, is c times
    P(e_i, ..., e_{n-1}) = prod_{j >= i} q_j^(e_j), formed once across
    the forms as P(e_{i+1}, ...) q_i^(e_i) from P() = 1.
    """
    norms = [max(1, sum(map(abs, q.values()))) for q in subs]
    bounds = [sum(abs(c) * math.prod(map(pow, norms, e)) for e, c in t) for t, _ in forms]
    # the slots hold each q_i too, though a q_i that no form involves adds nothing to B
    s = _slot_bytes(max(chain(norms, bounds)))
    powers = [{0: {0: 1}, 1: _row_ints(q, width, s)} for q in subs]
    products = {(): {0: 1}}

    def product(e, i):
        p = products.get(e[i:])
        if p is None:
            p = product(e, i + 1)
            if e[i]:
                p = _row_mul(p, _ppower(powers[i], e[i]))
            products[e[i:]] = p
        return p

    def horner(terms, i):
        # the sum over terms, whose exponents agree before slot i
        if len(terms) == 1:
            [(e, c)] = terms
            return {key: c * v for key, v in product(e, i).items()}
        acc, prev = None, 0
        for k, run in groupby(terms, lambda t: t[0][i]):
            inner = horner(tuple(run), i + 1)
            if acc is None:
                acc = inner
            else:
                acc = _row_mul(acc, _ppower(powers[i], prev - k))
                _pacc(acc, inner)
            prev = k
        return _row_mul(acc, _ppower(powers[i], prev)) if prev else acc

    return [horner(t, 0) if t else {} for t, _ in forms], bounds, s


def _dmul(a: dict, b: dict) -> dict:
    """Product of tuple-keyed term dicts (homogeneous or not).

    A one-term operand shifts the other's keys; every other product is
    the term loop of `_pmul` on packed keys.
    """
    if not a or not b:
        return {}
    nv = len(next(iter(a)))
    degs_a, degs_b = set(map(sum, a)), set(map(sum, b))
    top = max(degs_a) + max(degs_b)
    pairs = len(a) * len(b)
    if pairs > _term_cap:
        # the output has at most as many terms as there are monomials of
        # total degree lo..top
        lo = min(degs_a) + min(degs_b)
        _guard(min(pairs, math.comb(top + nv, nv) - math.comb(lo - 1 + nv, nv)))
    if len(a) == 1 or len(b) == 1:
        # one term shifts the other operand's keys, with no packing
        [(e, c)], other = (a.items(), b) if len(a) == 1 else (b.items(), a)
        return {tuple(map(add, k, e)): p for k, v in other.items() if (p := c * v)}
    width = _field_width(top)
    return _unpack_dict(_pmul(_pack_dict(a, width), _pack_dict(b, width)), nv, width)


def _dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    _pacc(out, b)
    return out


def _guard_bits(width: int, fields: int) -> int:
    """The guard bit (see `_field_width`) of each of fields packed fields."""
    return sum(1 << width * i + width - 1 for i in range(fields))


def _row_div(num: dict, den: dict, width: int, nvars: int, s: int) -> dict | None:
    """Long division of the rows num by a packed homogeneous int dict den; None when den does not divide num.

    The rows are images under x_{n-2} = 2^(8s), x_{n-1} = 1, a ring
    homomorphism onto polynomials in x_0 .. x_{n-3} over Z.  If den
    divides num, the quotient has int coefficients by Gauss's lemma
    (den is primitive), so the images divide too, and long division by
    the leading row cancels each leading row of the remainder by one
    exact divmod, with no borrow in the packed key and no field above
    the dividend's degree.  A nonzero remainder or such a key therefore
    proves that den does not divide num, whatever s is; otherwise the
    quotient rows are returned, for the caller to decode and check.
    Each term of den outside its leading row takes its multiple of a
    quotient row off the remainder as one shifted product by a small
    int, which costs less than a product of rows when den's coefficients
    are narrower than the slots.
    """
    guard = _guard_bits(width, nvars - 2)
    mask, head = (1 << width) - 1, 2 * width
    # (row key, shift of the slot in bits, coefficient) of each term of den
    terms = [(k >> head, 8 * s * (k >> width & mask), c) for k, c in den.items()]
    lt = max(key for key, _, _ in terms)
    lv = sum(c << sh for key, sh, c in terms if key == lt)
    rest = [t for t in terms if t[0] != lt]
    rem = dict(num)
    quo: dict = {}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        v = rem.pop(k, 0)
        if not v:
            continue
        qk = (k | guard) - lt
        if (qk & guard) != guard:
            return None
        qk ^= guard
        qv, r = divmod(v, lv)
        if r:
            return None
        quo[qk] = qv
        for k2, sh, c in rest:
            t = qk + k2
            if t & guard:
                return None
            if t not in rem:
                heapq.heappush(heap, -t)
                rem[t] = -(qv * c << sh)
            else:
                rem[t] -= qv * c << sh
    return quo


def _row_quotient(rows: dict, den: dict, norm: int, width: int, nvars: int, top: int, s: int):
    """The quotient q of the rows of N by a packed primitive int dict den, decoded at degree top and proved.

    None when `_row_div` leaves a remainder, which proves that den does
    not divide N; False when q does not decode or is not proved, as the
    slots may be too narrow for it.  With norm at least every coefficient
    of N, N - den*q maps to zero row by row and has coefficients at most
    norm + min(|q|, |den|) ||den|| ||q|| (sup norms: at most min(|q|, |den|)
    term pairs meet in one monomial), so when that is below 2^(8s-1) each
    of its rows is a zero image of coefficients inside the slots, hence
    zero, and N = den*q with no check product.
    """
    quo = _row_div(rows, den, width, nvars, s)
    if quo is None:
        return None
    q = _row_decode(quo, width, nvars, top, s)
    if q is None or (
        norm + min(len(q), len(den)) * max(map(abs, den.values())) * max(map(abs, q.values()), default=0)
    ) >> 8 * s - 1:
        return False
    return q


def _dexact_div(num: dict, den: dict):
    """Exact division of homogeneous tuple-keyed term dicts; None when den does not divide num.

    With num = cn*N and den = cd*D for primitive int dicts N and D
    (`_dint_normalize`), den divides num iff D divides N over Z, by
    Gauss's lemma, and then num / den = (cn/cd) * N/D.  One-variable
    forms are monomials and divide directly.  Otherwise N / D is long
    division over rows, decoded and proved by `_row_quotient` with
    norm ||N||.

    The first pass sizes the slots for a quotient no larger than N.  If
    its rows do not decode or fail that bound, the second sizes them for
    B = 2^((n-1)*top) ||N||_2, with top the degree of the quotient.  A
    factor q of N has Mahler measure M(q) <= M(N) <= ||N||_2, since a
    nonzero int polynomial has measure at least 1; setting x_{n-1} = 1
    keeps q's coefficients and leaves each of its n - 1 partial degrees
    at most top, so each coefficient is at most 2^((n-1)*top) M(q)
    (Mahler 1962; Mignotte).  A true quotient therefore decodes in the
    second slots and passes the bound, and a second failure proves that
    den does not divide num.  An inhomogeneous dict raises
    `NonHomogeneous`; `_modular_gcd` rehomogenizes its candidate before
    its trial divisions.
    """
    if not den:
        raise DivisionByZero("division by the zero polynomial")
    if not num:
        return {}
    num_degs, den_degs = set(map(sum, num)), set(map(sum, den))
    if len(num_degs) > 1 or len(den_degs) > 1:
        raise NonHomogeneous("exact division needs homogeneous dicts")
    degree = num_degs.pop()
    top = degree - den_degs.pop()
    if top < 0:
        return None
    nvars = len(next(iter(den)))
    if nvars == 1:
        [c], [lc] = num.values(), den.values()
        return {(top,): _quo(c, lc)}
    cn, num = _dint_normalize(num)
    cd, den = _dint_normalize(den)
    width = _field_width(degree)
    pnum, pden = _pack_dict(num, width), _pack_dict(den, width)
    norm, den_norm = max(map(abs, num.values())), max(map(abs, den.values()))
    pairs = min(len(den), _monomial_bound(top, nvars))
    # slots for a quotient no larger than N, then for any factor of N (B above)
    for qnorm in (norm, None):
        if qnorm is None:
            qnorm = math.isqrt(sum(c * c for c in num.values())) + 1 << (nvars - 1) * top
        s = _slot_bytes(norm + pairs * den_norm * qnorm)
        q = _row_quotient(_row_ints(pnum, width, s), pden, norm, width, nvars, top, s)
        if q is None:
            return None
        if q is not False:
            n, d = (cn / cd).as_integer_ratio()
            return q if n == d == 1 else {e: _quo(c * n, d) for e, c in q.items()}
    return None


def _dint_normalize(d: dict) -> tuple[Fraction, dict]:
    """Return (content, integer dict) with content * dict == input.

    The integer dict has coprime coefficients; the content carries the
    sign of the coefficient at the largest key (the graded-lex leading
    term of a homogeneous dict), so that coefficient of the returned
    dict is positive.  An int dict that is already that integer dict is
    returned itself, not copied.
    """
    if not d:
        raise DivisionByZero("zero polynomial has no primitive form")
    div, denom_lcm = _content(d.values(), d[max(d)])
    if div == denom_lcm == 1:
        return Fraction(1), d
    return Fraction(div, denom_lcm), _primitive_terms(d.items(), div, denom_lcm)


def _content(coeffs: Iterable, lead) -> tuple[int, int]:
    """(g, l): the gcd of the coefficients' numerators, signed as lead, and the lcm of their denominators."""
    # one pass: type() first, since isinstance on the Fraction ABC is slow for ints
    gcd = math.gcd
    denom_lcm = 1
    num_gcd = 0
    for c in coeffs:
        if type(c) is int:
            num_gcd = gcd(num_gcd, c)
        else:
            q = c.denominator
            denom_lcm = denom_lcm * q // gcd(denom_lcm, q)
            num_gcd = gcd(num_gcd, c.numerator)
    return (num_gcd if lead > 0 else -num_gcd), denom_lcm


def _primitive_terms(items: Iterable, div: int, denom_lcm: int) -> dict:
    """The int dict {e: c * denom_lcm / div} of (e, c) pairs whose content is div / denom_lcm."""
    if denom_lcm == 1:
        return {e: c // div for e, c in items}
    return {
        e: (c * denom_lcm if type(c) is int else c.numerator * (denom_lcm // c.denominator)) // div
        for e, c in items
    }


# -- modular GCD (Brown, JACM 18, 1971) ----------------------------------------

# The engine's first modulus, the largest prime below 2^30: a residue is one
# 30-bit CPython digit (sys.int_info.bits_per_digit) and a product of two fits
# two, so the GF(p) loops stay on CPython's small-int paths.  Any prime is
# correct, as every use is a proof; at 15-bit digits this one is only slower.
_TOP_PRIME = 1073741789


def _deg_in(d: dict, x: int) -> int:
    return max((e[x] for e in d), default=-1)


def _utrim(u: list) -> list:
    """Drop the zero top coefficients of a low-to-high coefficient list, in place."""
    while u and u[-1] == 0:
        u.pop()
    return u


def _specialize_univar(d: dict, x: int, vals: dict[int, int], p: int) -> list[int]:
    """Coefficients over GF(p) of d in x, each variable in vals fixed at its value, any other at 1."""
    powers = []
    for i, v in vals.items():
        pw = [1] * (_deg_in(d, i) + 1)
        for j in range(1, len(pw)):
            pw[j] = pw[j - 1] * v % p
        powers.append((i, pw))
    coeffs = [0] * (_deg_in(d, x) + 1)
    for e, c in d.items():
        for i, pw in powers:
            c *= pw[e[i]]
        coeffs[e[x]] += c
    return [c % p for c in coeffs]


def _modp_gcd(A: list[int], B: list[int], p: int) -> list[int]:
    """Monic gcd of two univariate polynomials over GF(p), low-to-high coefficients.

    The divisors of the Euclid steps are not made monic: the inverse of
    each one's leading coefficient scales its subtraction factor.
    """
    a = _utrim([c % p for c in A])
    b = _utrim([c % p for c in B])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            # subtract (a[-1] / b[-1]) * x^off * b; the top coefficient cancels
            f, off = a[-1] * inv % p, len(a) - len(b)
            a[off:] = [(x - f * y) % p for x, y in zip(a[off:-1], b)]
            _utrim(a)
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2..37, which is exact below 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for q in bases:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modp_eval(u: list[int], pw: list[int], p: int) -> int:
    """u at x over GF(p), given the powers of x up to len(u) - 1."""
    return sum(map(mul, u, pw)) % p


def _modp_quo(u: list[int], d: list[int], p: int) -> list[int]:
    """u / d over GF(p) for a monic d that divides u."""
    u = list(u)
    q = [0] * (len(u) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = u[i + len(d) - 1]
        for j, dc in enumerate(d):
            u[i + j] = (u[i + j] - c * dc) % p
    return q


def _modp_content(polys: Iterable[list[int]], p: int) -> list[int]:
    """Monic gcd over GF(p) of one or more univariate polynomials, folded from the first."""
    it = iter(polys)
    g = _modp_gcd(next(it), next(it, []), p)
    for u in it:
        if len(g) == 1:
            break
        g = _modp_gcd(g, u, p)
    return g


def _split_last(d: dict) -> dict:
    """d as a dict from the other exponents to coefficient lists in the last variable."""
    out: dict = {}
    for e, c in d.items():
        u = out.setdefault(e[:-1], [])
        if len(u) <= e[-1]:
            u.extend([0] * (e[-1] + 1 - len(u)))
        u[e[-1]] = c
    return out


@functools.lru_cache(maxsize=32)
def _point_rng(p: int) -> random.Random:
    """`_modp_gcd_mv`'s point generator mod p, kept across calls, as seeding costs about 20 draws.

    The points depend on earlier calls; the gcd, canonical and proved, does not.
    """
    return random.Random(p)


def _modp_gcd_mv(polys: Sequence[dict], p: int) -> dict:
    """Monic gcd over GF(p) of two or more nonzero dicts keyed by k-tuples, k >= 1.

    Brown's dense recursion: view every member in GF(p)[x_k][x_1..x_{k-1}],
    evaluate x_k at drawn points, recurse, scale each image by lam, the
    gcd of the x_k-coefficients of the members' lex-leading monomials, and
    Newton-interpolate.  The gcd g divides every image and keeps its
    lex-leading monomial where lam does not vanish, so an image has the
    monomial of g or a larger one.  A larger one is unlucky and dropped,
    a smaller one restarts the interpolation.  Images with the monomial
    of g are values of lam * g / lc(g), whose degree in x_k is at most
    deg lam + deg_k g; one point more determines it.  Its primitive
    part in x_k times the gcd of the x_k-contents is g.  So the result
    is g, or, when every point was unlucky, a polynomial with a larger
    lex-leading monomial than g.  A constant image has the smallest
    monomial, so it puts g in GF(p)[x_k], where g is the content gcd.
    """
    k = len(next(iter(polys[0])))
    us = [_split_last(d) for d in polys]
    if k == 1:
        g = _modp_content([u[()] for u in us], p)
        return {(j,): c for j, c in enumerate(g) if c}
    lam = _modp_content([u[max(u)] for u in us], p)
    # drawn, not counted: a fixed point can be unlucky at every prime
    rng = _point_rng(p)
    # deg_k g is at most the degree of the members' gcd in x_k at any
    # point of the other variables where the x_k-leading coefficient of
    # the first member stays nonzero, since that of g divides it
    last = k - 1
    while True:
        vals = {i: rng.randrange(p) for i in range(last)}
        at = _specialize_univar(polys[0], last, vals, p)
        if at[-1]:
            break
    rest = (_specialize_univar(d, last, vals, p) for d in polys[1:])
    points = len(lam) + len(_modp_content(chain([at], rest), p)) - 1
    top = max(len(v) for u in us for v in u.values())
    content = _modp_content(chain.from_iterable(u.values() for u in us), p)
    best, interp, mod = None, {}, [1]
    while len(mod) <= points:
        x = rng.randrange(p)
        pw = [1] * max(top, points + 1)
        for i in range(1, len(pw)):
            pw[i] = pw[i - 1] * x % p
        s = _modp_eval(lam, pw, p)
        if not s or not _modp_eval(mod, pw, p):
            continue
        images = [{m: v for m, cu in u.items() if (v := _modp_eval(cu, pw, p))} for u in us]
        if not all(images):
            continue
        img = _modp_gcd_mv(images, p)
        lm = max(img)
        if not any(lm):
            return {(0,) * last + (j,): c for j, c in enumerate(content) if c}
        if best is None or lm < best:
            best, interp, mod = lm, {}, [1]
        elif lm > best:
            continue
        w = pow(_modp_eval(mod, pw, p), -1, p)
        zero = [0] * (len(mod) - 1)
        for m in interp.keys() | img.keys():
            u = interp.get(m, zero)
            c = (s * img.get(m, 0) - _modp_eval(u, pw, p)) * w % p
            interp[m] = [(v + c * t) % p for v, t in zip(u + [0], mod)]
        mod = [(v - x * t) % p for v, t in zip([0] + mod, mod + [0])]
    h = _modp_content(interp.values(), p)
    pp = {
        m + (j,): c for m, u in interp.items() for j, c in enumerate(_modp_quo(u, h, p)) if c
    }
    out = _dmul(pp, {(0,) * last + (j,): c for j, c in enumerate(content) if c})
    inv = pow(out[max(out)], -1, p)
    return {e: v for e, c in out.items() if (v := c * inv % p)}


def _coprime_image(members: Sequence[dict]) -> bool:
    """True when univariate images mod p = `_TOP_PRIME` prove the homogeneous members coprime.

    Any prime works here, as an image that keeps A's degree proves what
    it shows; p sits below 2^30 so that each residue is one CPython
    digit.

    The members' gcd G divides each member A, so A's leading coefficient
    in x_j is G's times that of A / G.  At a point of the other
    variables where A's is prime to p, so is G's: G's image over GF(p)
    keeps its degree in x_j and divides every member's image, and a
    constant gcd of the images gives deg_j G = 0.  The members are
    forms, so x_{n-1}, unless it is x_j, is fixed at 1 and only the
    rest are drawn.  When a member of degree D has an x_j^D coefficient
    prime to p, that leading coefficient is a constant, so G's is one
    too and deg_j G is G's whole degree: one image, with that member as
    A, decides.  Otherwise one image is taken in each of x_0 .. x_{n-2},
    with the first member as A; G is then a power of x_{n-1}, which
    divides no member, as their monomial content is stripped, so G is
    constant.  False, and nothing proved, at the first image whose gcd
    is not constant or whose point drops A's degree.
    """
    p, nv = _TOP_PRIME, len(next(iter(members[0])))
    tops = [sum(next(iter(d))) for d in members]
    pure = [
        (j, d) for j in range(nv) for d, D in zip(members, tops)
        if d.get((0,) * j + (D,) + (0,) * (nv - j - 1), 0) % p
    ]
    rng = _point_rng(p)
    for j, ref in pure[:1] or [(j, members[0]) for j in range(nv - 1)]:
        vals = {i: rng.randrange(p) for i in range(nv - 1) if i != j}
        head = _specialize_univar(ref, j, vals, p)
        rest = (_specialize_univar(d, j, vals, p) for d in members if d is not ref)
        if not head[-1] or len(_modp_content(chain([head], rest), p)) > 1:
            return False
    return True


def _chart(d: dict) -> tuple:
    """The variable order of `_modular_gcd` for its first member d: the
    inner variable x_i, the others in their order, then the evaluated
    x_v and the chart x_c.

    (i, v) is the first pair whose leading coefficient of d in x_i has
    the lowest degree in x_v.  That degree bounds the degree of lam in
    `_modp_gcd_mv`, and so the number of points beyond deg_v G it takes.
    """
    nv = len(next(iter(d)))
    if nv < 3:
        return tuple(range(nv))
    tops = map(max, zip(*d))
    leads = [list(map(max, zip(*(e for e in d if e[i] == top)))) for i, top in enumerate(tops)]
    i, v = min(permutations(range(nv), 2), key=lambda iv: leads[iv[0]][iv[1]])
    *mid, c = (x for x in range(nv) if x != i and x != v)
    return (i, *mid, v, c)


def _modular_gcd(polys: Sequence[dict]) -> tuple[dict, list]:
    """(G, quotients): the primitive gcd G of two or more homogeneous
    primitive integer dicts that no variable divides, and each dict / G.

    The variables are reordered by `_chart`, and dehomogenizing the
    chart variable, the last, preserves the gcd, because it divides no
    member.  Let gamma be the gcd of the members' lex-leading
    coefficients in that order.  Primes p run down from `_TOP_PRIME`,
    the largest prime below 2^30, so that a residue is one CPython digit
    and a product two, skipping those that divide a lex-leading
    coefficient; gamma times the monic image mod p is combined by CRT in
    the symmetric range with earlier images of the same lex-leading
    monomial.  An image with a larger monomial is dropped and a smaller
    one restarts.  Once the CRT result has coefficients below the square
    root of the modulus, already after the first prime when they are
    below 2^15, or stops changing, its primitive part G, rehomogenized
    at the chart variable, put back in the original order and signed by
    its graded-lex leading term, is tried against every member by exact
    division, whose quotients it returns; a candidate that fails, a
    wrong one or one from an unlucky prime, costs only that division.

    Maximality, after any number of primes, one included, and in any
    order whose chart variable divides no member.  Let g be the gcd over
    Z.  At a prime p that divides no lex-leading coefficient, p does not
    divide lc(g), so g mod p keeps the lex-leading monomial LM(g), and
    it divides the gcd mod p; `_modp_gcd_mv` returns that gcd or a
    polynomial with a larger monomial.  So LM(g) <= L, the monomial of
    the images behind G, even with one image, and LM(G) = L because the
    CRT coefficient there is gamma, which no prime used divides.  G
    divides every member, hence g, so g / G has lex-leading monomial
    LM(g) / L = 1 and is a constant.  For the same reason a constant
    image proves the gcd constant.  `_gcd_cofactors` calls the engine
    only when `_coprime_image` declines, which needs no interpolation:
    a univariate image keeps the gcd's degree in its variable wherever a
    member's leading coefficient in it does not vanish mod p.
    """
    order = _chart(polys[0])
    k, perm = len(order) - 1, itemgetter(*order)
    back = itemgetter(*map(order.index, range(k + 1)))
    ds = [{perm(e)[:k]: c for e, c in d.items()} for d in polys]
    lcs = [d[max(d)] for d in ds]
    gamma = math.gcd(*lcs)
    best, acc, mod = None, {}, 1
    # the first modulus is known prime; only the odd numbers below it are tested
    for p in chain((_TOP_PRIME,), filter(_is_prime, count(_TOP_PRIME - 2, -2))):
        if any(c % p == 0 for c in lcs):
            continue
        img = _modp_gcd_mv([{e: v for e, c in d.items() if (v := c % p)} for d in ds], p)
        lm = max(img)
        if not any(lm):
            return {(0,) * (k + 1): 1}, polys
        if best is None or lm < best:
            best, acc, mod = lm, {}, 1
        elif lm > best:
            continue
        step = pow(mod, -1, p)
        new = {}
        for e in acc.keys() | img.keys():
            c = acc.get(e, 0)
            c += mod * ((gamma * img.get(e, 0) - c) * step % p)
            if c:
                new[e] = c - mod * p if 2 * c > mod * p else c
        mod *= p
        if new == acc or max(map(abs, new.values())) ** 2 < mod:
            _, g = _dint_normalize(new)
            top = max(map(sum, g))
            g = {back(e + (top - sum(e),)): c for e, c in g.items()}
            if g[max(g)] < 0:
                g = {e: -c for e, c in g.items()}
            quots = list(takewhile(lambda q: q is not None, (_dexact_div(d, g) for d in polys)))
            if len(quots) == len(polys):
                return g, quots
        acc = new


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


class _IntPrimitiveFields(NamedTuple):
    content: Fraction
    primitive: HomPoly


class IntPrimitiveForm(_IntPrimitiveFields):
    """Canonical scaling of a nonzero polynomial.

    ``content * primitive`` reproduces the input exactly.  The
    primitive part has coprime integer coefficients and a positive
    graded-lex leading coefficient; the content is a nonzero rational
    whose sign matches the input's leading coefficient (a negative
    input cannot have both a positive content and a positive primitive
    leading coefficient, so the sign lives in the content).
    """

    __slots__ = ()

    def __new__(cls, content, primitive):
        assert not primitive.is_zero
        return super().__new__(cls, content, primitive)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*fields)


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
    q = _dexact_div(dict(a.terms), dict(b.terms))
    if q is None:
        raise NotDivisible("remainder is nonzero")
    return HomPoly._new(a.nvars, q, a._degree - b._degree)


def poly_gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """GCD of two polynomials by `poly_gcd_many`; gcd(0, 0) is undefined."""
    a._check_arity(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return poly_gcd_many((a, b))


def poly_gcd_many(polys: Sequence[HomPoly]) -> HomPoly:
    """GCD in canonical primitive form (unit content, positive leading
    coefficient): the first element of `_gcd_cofactors`."""
    return _gcd_cofactors(polys)[0]


def _gcd_cofactors(polys: Sequence[HomPoly]) -> tuple:
    """(G, cofactors): the gcd G of `poly_gcd_many`, and each member divided by G.

    Zero members are dropped, since they divide everything; their
    cofactors are zero.  Each other member loses its monomial content
    and is normalized once.  A member that is then constant leaves only
    the shared monomial.  So do constant gcds of the members' univariate
    images over GF(p), p = `_TOP_PRIME` (the largest prime below 2^30,
    one CPython digit), the other variables fixed at points where
    a member keeps its degree: one image in x_j when some member of
    degree D has an x_j^D coefficient prime to p, else one in
    each variable but the last (`_coprime_image`).  Otherwise one run
    of the modular engine `_modular_gcd` gives the rest: it proves its
    answer by exact division of each member, whose quotients are the
    cofactors, and also proves a constant gcd.  Other cofactors are the
    normalized members times their content and unshared monomial: no
    cofactor costs a division.
    """
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd of an all-zero family is undefined")
    nv = nonzero[0].nvars
    for p in nonzero[1:]:
        nonzero[0]._check_arity(p)
    lows = [tuple(map(min, zip(*(e for e, _ in p.terms)))) for p in nonzero]
    shared = tuple(map(min, zip(*lows)))
    norms = [
        _dint_normalize({tuple(map(sub, e, low)): c for e, c in p.terms} if any(low) else dict(p.terms))
        for p, low in zip(nonzero, lows)
    ]
    members, one = [m for _, m in norms], (0,) * nv
    if len(members) == 1:
        g, quots = members[0], [{one: 1}]
    elif any(len(d) == 1 for d in members) or _coprime_image(members):
        g, quots = {one: 1}, members
    else:
        g, quots = _modular_gcd(members)
    # the engine's answer is primitive with a positive leading
    # coefficient, and a monomial factor keeps both
    gp = HomPoly._new(nv, g, sum(next(iter(g))))
    G = gp * HomPoly.monomial(nv, shared) if any(shared) else gp
    if one in g and not any(shared):  # a constant gcd: each member is its own cofactor
        cofactors = iter(nonzero)
    else:  # p = c * x^low * m and m = g * q, so p / G = c * x^(low - shared) * q
        cofactors = (
            HomPoly._new(nv, q if c == 1 and low == shared else {
                tuple(map(add, e, map(sub, low, shared))): _canon_coeff(c) * v for e, v in q.items()
            }, p._degree - G._degree)
            for p, (c, _), low, q in zip(nonzero, norms, lows, quots)
        )
    return G, tuple(next(cofactors) if p else p for p in polys)


def coprime_certificate(a: HomPoly, b: HomPoly) -> bool:
    """True iff a and b are not both zero and share no nonconstant factor."""
    return coprime_certificate_many((a, b))


def coprime_certificate_many(polys: Sequence[HomPoly]) -> bool:
    """True iff the nonzero members exist and share no nonconstant factor.

    Exact: the answer is whether `poly_gcd_many`, one engine run over
    the nonzero members, has degree 0.  Zero members are ignored (they
    divide everything), so an all-zero family gives False.
    """
    return any(not p.is_zero for p in polys) and poly_gcd_many(polys)._degree == 0


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str]]:
    """(kind, text) tokens, the kind named by the group of `_TOKEN` that matched."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = ("int", "name", "op", "bad")[m.lastindex - 1]
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at offset {m.start()}")
        out.append((kind, m.group()))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive-descent parser for the textual grammar.

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var ['^' uint] | '(' expr ')'
    rational := uint ['/' uint]

    A term's rationals and variable powers collect into one coefficient
    and one exponent vector, and `expr` adds each term into one dict in
    place, so a parse is linear in its terms.  Only parenthesised
    factors multiply dicts; the monomial multiplies their product last.
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

    def expr(self) -> dict:
        acc: dict = {}
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        while True:
            self.term(acc, sign)
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                return acc
            self.take()
            sign = 1 if val == "+" else -1

    def term(self, acc: dict, sign: int) -> None:
        """Add sign times the next term into acc, in place."""
        c, e, d = sign, [0] * self.nvars, None
        while True:
            kind, val = self.take()
            if kind == "int":
                den = self.digits("/", "denominator")
                if den == 0:
                    raise ParseError("zero denominator")
                c *= int(val) if den is None else Fraction(int(val), den)
            elif kind == "name":
                if val not in self.index:
                    raise UnknownVariable(f"unknown variable {val!r}; have {self.names}")
                k = self.digits("^", "exponent")
                e[self.index[val]] += 1 if k is None else k
            else:
                sub = self.factor(kind, val)
                d = sub if d is None else _dmul(d, sub)
            if self.peek() != ("op", "*"):
                break
            self.take()
        if d is None:
            d = {tuple(e): c}
        elif c != 1 or any(e):
            d = _dmul(d, {tuple(e): c})
        _pacc(acc, d)

    def digits(self, op: str, what: str) -> int | None:
        """The uint after an optional op, None without the op."""
        if self.peek() != ("op", op):
            return None
        self.take()
        kind, val = self.take()
        if kind != "int":
            raise ParseError(f"expected {what} digits, found {val!r}")
        return int(val)

    def factor(self, kind: str, val: str) -> dict:
        """The parenthesised factor that the token (kind, val) opens."""
        if kind != "op" or val != "(":
            raise ParseError(f"unexpected token {val!r}")
        d = self.expr()
        kind, val = self.take()
        if kind != "op" or val != ")":
            raise ParseError(f"expected ')', found {val!r}")
        return d


def parse_poly(text: str, names: Sequence[str]) -> HomPoly:
    """Parse the strict grammar into a HomPoly over the named variables.

    The final collected form must be homogeneous; intermediate
    subexpressions are unconstrained so products of parenthesised sums
    work naturally.
    """
    if len(set(names)) != len(tuple(names)):
        raise ParseError(f"duplicate variable names in {list(names)}")
    parser = _Parser(text, names)
    d = parser.expr()
    kind, val = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {val!r}")
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
    return _poly_text(p.terms, names, {})


def _poly_text(terms: tuple, names: Sequence[str], monomials: dict) -> str:
    """`poly_to_text` of the terms; monomials memoises exponents -> "z^2*w" across calls."""
    if not terms:
        return "0"
    pieces = []
    for exps, coeff in terms:
        mono = monomials.get(exps)
        if mono is None:
            mono = monomials[exps] = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e
            )
        # a canonical coefficient prints as "3" or "3/2"
        sign, mag = (" - ", -coeff) if coeff < 0 else (" + ", coeff)
        if mag == 1 and mono:
            pieces.append(sign + mono)
        else:
            pieces.append(f"{sign}{mag}*{mono}" if mono else f"{sign}{mag}")
    text = "".join(pieces)
    # the first term takes a bare sign
    return text[3:] if text[1] == "+" else "-" + text[3:]


# ---------------------------------------------------------------------------
# randomised construction (deterministic given the rng)
# ---------------------------------------------------------------------------


def random_hompoly(rng, nvars: int, degree: int, max_terms: int, coeff_bound: int) -> HomPoly:
    """A random nonzero homogeneous polynomial driven by the given rng."""
    if nvars < 1 or degree < 0 or max_terms < 1 or coeff_bound < 1:
        raise ValueError("nvars >= 1, degree >= 0, max_terms >= 1, coeff_bound >= 1 required")
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
