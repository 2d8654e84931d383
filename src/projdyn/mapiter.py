"""Projective self-maps and exact iteration with common-factor extraction.

A dominant rational self-map of P^k is handled through an integer
primitive lifting F = (G_0, ..., G_k).  Iteration tracks the sequence
of primitive liftings F_n together with the extracted factors E_n,
where F(F_{n-1}) = E_n * F_n component-wise and exactly.  The degree
sequence, stability inference (algebraically stable, quasi
algebraically stable, or neither) and the power-divisor cross-check
all live here, as does `_echelon`, the one exact elimination behind
the dominance test and the family preflight.
"""

import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import _EXPORTS
from .polycore import (
    ArityMismatch,
    DegreeMismatch,
    HomPoly,
    IntPrimitiveForm,
    ParseError,
    _compose_divide,
    _content,
    _gcd_cofactors,
    _poly_text,
    _primitive_terms,
    exact_div,
    int_primitive,
    parse_poly,
    poly_to_text,
    same_up_to_scalar,
)

__all__ = list(_EXPORTS["mapiter"])


class MapError(Exception):
    """Base class for projective-map failures."""


class NotDominant(MapError):
    """The lifting's jacobian determinant vanishes identically."""


class AllZero(MapError):
    """Every component of the proposed lifting is zero."""


class ZeroVector(MapError):
    """A projective point must have at least one nonzero coordinate."""


class IndexOutOfRange(MapError):
    """Requested step lies outside the verified range of a trace."""


def _default_names(nvars: int) -> tuple:
    if nvars == 3:
        return ("z", "w", "t")
    return tuple(f"x{i}" for i in range(nvars))


def _tuple_primitive(comps: Sequence[HomPoly]) -> tuple:
    """Normalize a lifting tuple: (common rational content, primitive tuple).

    One pass over every coefficient gives the content, so the returned
    components have integer coefficients with gcd 1 across the tuple,
    and the leading term of the first nonzero component is positive.
    content * tuple == input; with content 1 the input is returned.
    """
    lead = next((c.terms[0][1] for c in comps if c.terms), None)
    if lead is None:
        raise AllZero("all components are zero")
    div, den = _content((v for c in comps for _, v in c.terms), lead)
    if div == den == 1:
        return Fraction(1), comps
    return Fraction(div, den), tuple(
        HomPoly._new(c.nvars, _primitive_terms(c.terms, div, den), c._degree) for c in comps
    )


def _extract(comps: tuple, factor: HomPoly) -> tuple:
    """Divide out the gcd of comps and normalize the tuple.

    `factor` is what the caller has already divided out of comps.
    Returns (E, primitive tuple) with E.primitive = factor * gcd, so
    E.content * E.primitive * tuple == factor * comps.  The quotients
    by the gcd are the cofactors `_gcd_cofactors` returns with it.
    """
    rest, comps = _gcd_cofactors(comps)
    if rest.degree > 0:
        factor = factor * rest
    content, comps = _tuple_primitive(comps)
    return IntPrimitiveForm(content, factor), comps


class ProjMap(NamedTuple):
    """A dominant rational self-map of P^k via its primitive lifting."""

    k: int
    components: tuple
    degree: int
    normalization: IntPrimitiveForm
    names: tuple

    @property
    def nvars(self) -> int:
        return self.k + 1

    def __repr__(self):
        comps = ", ".join(poly_to_text(c, self.names) for c in self.components)
        return f"ProjMap(P^{self.k}, degree {self.degree}: [{comps}])"


class IterationTrace(NamedTuple):
    """Liftings F_0..F_N, degrees, and extracted factors E_1..E_N.

    extracted[n-1] holds E_n as an IntPrimitiveForm; the exact
    reconstruction F(F_{n-1}) = E_n.content * E_n.primitive * F_n
    holds component-wise for every n >= 1.
    """

    map: ProjMap
    liftings: tuple
    degrees: tuple
    extracted: tuple

    @property
    def depth(self) -> int:
        return len(self.degrees) - 1

    def E(self, n: int) -> IntPrimitiveForm:
        if not 1 <= n <= self.depth:
            raise IndexOutOfRange(f"E_{n} not in trace of depth {self.depth}")
        return self.extracted[n - 1]

    def lifting(self, n: int) -> tuple:
        if not 0 <= n <= self.depth:
            raise IndexOutOfRange(f"F_{n} not in trace of depth {self.depth}")
        return self.liftings[n]


class QASCertificate(NamedTuple):
    """Witnessed quasi-stability data: lag n0, divisor H of degree h."""

    n0: int
    H: HomPoly
    h: int
    d: int
    verified_to: int
    degrees: tuple


class InferResult(NamedTuple):
    """Stability verdict drawn from a finite trace.

    verdict is one of "AS", "QAS", "NotQAS", "Inconclusive".  A QAS
    verdict carries the certificate; NotQAS carries the first failing
    step as witness plus the candidate (n0, H) that failed; an
    Inconclusive verdict saw a single extraction with no later step to
    test it against.
    """

    verdict: str
    certificate: Optional[QASCertificate] = None
    witness: Optional[int] = None
    n0: Optional[int] = None
    H: Optional[HomPoly] = None


class PointClass(NamedTuple):
    """Image of a rational point, or its membership in the indeterminacy set."""

    indeterminate: bool
    image: Optional[tuple] = None


# -- construction ---------------------------------------------------------------


def jacobian_det(comps: Sequence[HomPoly]) -> HomPoly:
    """Determinant of the jacobian matrix of a polynomial tuple."""
    rows, _, sign = _echelon(_jacobian(comps), exact_div)
    return rows[-1][-1] * sign


def _jacobian(comps: Sequence[HomPoly]) -> list:
    """Rows of partial derivatives, one row per component."""
    return [[c.partial(j) for j in range(len(comps))] for c in comps]


def _jacobian_at(rows, point) -> list:
    """The exact Fraction values of a matrix of polynomials at a rational point."""
    return [[entry.evaluate(point) for entry in row] for row in rows]


def _echelon(rows, div=operator.truediv, mul=operator.mul, sub=operator.sub):
    """Fraction-free row echelon form by Bareiss elimination (Math. Comp. 22, 1968).

    The ring's operations are passed in, those of Fraction by default;
    `div` is only asked for exact quotients.  The pivot of each row is
    the first nonzero entry at or below it in the next column that has
    one, so the pivot columns are the first independent columns.  Every
    entry is a minor of the input; the last entry of a square matrix,
    times the sign of the row swaps, is its determinant.  Returns
    (rows, pivot columns, sign).
    """
    m = [list(r) for r in rows]
    pivots, sign, prev = [], 1, None
    for c in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv], sign = m[piv], m[r], -sign
        top = m[r]
        for row in m[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(row)):
                x = sub(mul(top[c], row[j]), mul(f, top[j]))
                row[j] = div(x, prev) if prev is not None and x else x
            row[c] = sub(f, f)
        prev = top[c]
        pivots.append(c)
    return m, pivots, sign


_PROBE_POINTS = ((2, 3, 5, 7, 11, 13), (-7, 11, -13, 17, 19, -23), (5, -2, 9, -4, 3, 8))


def _is_dominant(comps: Sequence[HomPoly]) -> bool:
    n = len(comps)
    rows = _jacobian(comps)
    # a full-rank jacobian at any rational point settles it; maps of P^6
    # and up take nonzero coordinates past the sixth by a fixed rule
    for k, pt in enumerate(_PROBE_POINTS):
        pt = pt[:n] + tuple((-1) ** (i + k) * (i * i + k) for i in range(len(pt), n))
        if len(_echelon(_jacobian_at(rows, pt))[1]) == n:
            return True
    return len(_echelon(rows, exact_div)[1]) == n


def make_map(components: Sequence[HomPoly], names: Optional[Sequence[str]] = None) -> ProjMap:
    """Build a dominant projective map from a lifting, primitivizing it.

    The common polynomial factor and common rational content are
    divided out by `_extract`, the helper of every iteration step, and
    recorded as the normalization; dominance is certified by the jacobian
    determinant of the primitive lifting being nonzero (checked at
    exact rational probe points first, symbolically on a miss).
    """
    comps = tuple(components)
    if not comps:
        raise AllZero("empty component list")
    nv = comps[0].nvars
    for c in comps[1:]:
        if c.nvars != nv:
            raise ArityMismatch("components disagree on the number of variables")
    if len(comps) != nv:
        raise ArityMismatch(f"P^{nv - 1} needs {nv} components, got {len(comps)}")
    live = [c for c in comps if not c.is_zero]
    if not live:
        raise AllZero("all components are zero")
    deg = live[0].degree
    if any(c.degree != deg for c in live[1:]):
        raise DegreeMismatch("components must share a single degree")
    if len(live) < len(comps):
        # a vanishing component confines the image to a hyperplane
        raise NotDominant("a zero component forces a degenerate image")
    record, comps = _extract(comps, HomPoly.one(nv))
    if not _is_dominant(comps):
        raise NotDominant("jacobian determinant of the lifting vanishes identically")
    nm = tuple(names) if names is not None else _default_names(nv)
    if len(nm) != nv:
        raise ArityMismatch(f"{nv} variable names required, got {len(nm)}")
    return ProjMap(nv - 1, comps, comps[0].degree, record, nm)


# -- one iteration step ---------------------------------------------------------


def compose_extract(f: ProjMap, lifting: Sequence[HomPoly], hint: Optional[HomPoly] = None):
    """One composition step: full common factor out, primitive result.

    Returns (E, next_lifting) with E an IntPrimitiveForm such that
    E.content * E.primitive * next_lifting reproduces the composed
    components exactly; `_extract` takes out the gcd and normalizes,
    as in `make_map`.  `hint` is an optional divisor candidate: if it
    divides every composed component, E.primitive is its primitive part
    times the gcd of the quotients, canonical by Gauss's lemma; a hint
    that does not divide is dropped and only costs time.  The components
    are composed, and divided by the hint on their own rows, in one call
    of `_compose_divide`, for int and Fraction liftings alike.
    """
    lifting = tuple(lifting)
    if lifting[0].nvars != f.nvars:
        raise ArityMismatch("lifting arity does not match the map")
    h = None
    if hint is not None and not hint.is_zero and hint.degree > 0:
        h = int_primitive(hint).primitive
    quot, divided = _compose_divide(f.components, lifting, h)
    return _extract(quot, h if divided else HomPoly.one(f.nvars))


def iterate_degrees(f: ProjMap, N: int) -> IterationTrace:
    """Exact degree sequence and liftings to depth N.

    Each step removes the full common factor of the composed
    components; once a nontrivial extraction has appeared, the
    quasi-stability pattern E_n = H(F_{n-n0-1}) is passed to
    `compose_extract` as a divisor hint, so only the quotients by it
    need a GCD.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    nv = f.nvars
    identity = tuple(HomPoly.variable(nv, i) for i in range(nv))
    liftings = [identity]
    degrees = [1]
    extracted = []
    first_nontrivial = None
    H = None
    cur = identity
    for n in range(1, N + 1):
        hint = None
        if first_nontrivial is not None and n > first_nontrivial:
            # n - n0 - 1 lies in 1..n-1, so the lifting is already known
            hint = H.compose(liftings[n - first_nontrivial])
        E, cur = compose_extract(f, cur, hint=hint)
        if first_nontrivial is None and E.primitive.degree > 0:
            first_nontrivial = n
            H = E.primitive
        liftings.append(cur)
        extracted.append(E)
        degrees.append(cur[0].degree)
    trace = IterationTrace(f, tuple(liftings), tuple(degrees), tuple(extracted))
    _check_trace(trace)
    return trace


def _check_trace(trace: IterationTrace) -> None:
    d = trace.map.degree
    for n in range(1, trace.depth + 1):
        e = trace.extracted[n - 1]
        assert trace.degrees[n] == d * trace.degrees[n - 1] - e.primitive.degree, (
            "degree bookkeeping violated at step %d" % n
        )


# -- stability inference --------------------------------------------------------


def infer_qas(trace: IterationTrace) -> InferResult:
    """Classify a trace as AS, QAS (with certificate), NotQAS, or Inconclusive.

    AS means every extracted factor is trivial.  Otherwise the first
    nontrivial extraction at step n0+1 proposes the divisor H; the
    verdict is QAS only if every later extraction matches
    H(F_{n-n0-1}) up to the canonical scalar, NotQAS with the first
    failing step as witness, and Inconclusive when the trace ends
    before any later step exists.
    """
    N = trace.depth
    if N < 2:
        raise ValueError("stability inference needs a trace of depth at least 2")
    nontrivial = [n for n in range(1, N + 1) if trace.E(n).primitive.degree > 0]
    if not nontrivial:
        return InferResult(verdict="AS")
    first = nontrivial[0]
    n0 = first - 1
    H = trace.E(first).primitive
    if N <= n0 + 1:
        return InferResult(verdict="Inconclusive", n0=n0, H=H)
    for n in range(first + 1, N + 1):
        expected = H.compose(trace.lifting(n - n0 - 1))
        if not same_up_to_scalar(trace.E(n).primitive, expected):
            return InferResult(verdict="NotQAS", witness=n, n0=n0, H=H)
    cert = QASCertificate(
        n0=n0,
        H=H,
        h=H.degree,
        d=trace.map.degree,
        verified_to=N,
        degrees=trace.degrees,
    )
    return InferResult(verdict="QAS", certificate=cert, n0=n0, H=H)


def verify_lifting_recurrence(
    f: ProjMap, cert: QASCertificate, trace: IterationTrace, n: int
) -> bool:
    """Cross-check the power-divisor recurrence at step n.

    Tests that F_{n-1} composed after F equals H^{d(f^{n-n0-1})} times
    F_n, component-wise, up to one common rational scalar: the
    quotients, put in the canonical tuple form of `_tuple_primitive`,
    must equal the stored F_n, which is already in that form.  Each is
    divided on its composition's rows (`_compose_divide`).
    """
    if not cert.n0 < n <= min(cert.verified_to, trace.depth):
        raise IndexOutOfRange(
            f"step {n} outside the verified range ({cert.n0}, {cert.verified_to}]"
        )
    divisor = cert.H ** cert.degrees[n - cert.n0 - 1]
    quot, divided = _compose_divide(trace.lifting(n - 1), f.components, divisor)
    try:
        return divided and _tuple_primitive(quot)[1] == trace.lifting(n)
    except AllZero:
        return False


# -- point evaluation -----------------------------------------------------------


def point_class(f: ProjMap, point: Sequence) -> PointClass:
    """Indeterminacy membership or the image of an exact rational point."""
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != f.nvars:
        raise ArityMismatch(f"point has {len(pt)} coordinates, need {f.nvars}")
    if all(x == 0 for x in pt):
        raise ZeroVector("projective points need a nonzero coordinate")
    values = tuple(c.evaluate(pt) for c in f.components)
    if all(v == 0 for v in values):
        return PointClass(indeterminate=True)
    lead = next(v for v in values if v != 0)
    return PointClass(indeterminate=False, image=tuple(v / lead for v in values))


# -- map files ------------------------------------------------------------------


def _directives(text: str):
    """(line number, head, body) of each line that is not blank once '#' comments go.

    The head is the line's first whitespace-separated token and the
    body the rest, so a directive is matched whole, never by prefix.
    """
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        words = rawline.split("#", 1)[0].split(None, 1)
        if words:
            yield lineno, words[0], words[1] if len(words) > 1 else ""


def parse_map_text(text: str) -> ProjMap:
    """Parse the line-oriented map format.

    One `vars` line naming the coordinates, then one `map` line per
    component in the polynomial grammar; '#' starts a comment.
    """
    names = None
    comps = []
    for lineno, head, body in _directives(text):
        if head == "vars":
            if names is not None:
                raise ParseError(f"line {lineno}: duplicate vars line")
            names = tuple(body.split())
            if len(names) < 2:
                raise ParseError(f"line {lineno}: need at least two variables")
        elif head == "map":
            if names is None:
                raise ParseError(f"line {lineno}: vars line must come first")
            comps.append(parse_poly(body, names))
        else:
            raise ParseError(f"line {lineno}: expected 'vars' or 'map', got {head!r}")
    if names is None:
        raise ParseError("missing vars line")
    if len(comps) != len(names):
        raise ParseError(f"{len(names)} variables need {len(names)} map lines, got {len(comps)}")
    return make_map(comps, names)


def map_to_text(f: ProjMap) -> str:
    lines = ["vars " + " ".join(f.names)]
    lines += ["map " + poly_to_text(c, f.names) for c in f.components]
    return "\n".join(lines) + "\n"


def load_map(path) -> ProjMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map_text(fh.read())


def save_map(f: ProjMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(map_to_text(f))


# -- certification digest -------------------------------------------------------


def certificate_digest(trace: IterationTrace, H: Optional[HomPoly] = None) -> str:
    """Stable hex digest of the canonically printed liftings plus H.

    Canonical printing makes the digest depend only on the
    mathematical content of the trace, so reruns reproduce it
    byte-for-byte.
    """
    import hashlib
    names = trace.map.names
    # one exponents -> monomial text memo for the whole trace
    hasher, monomials = hashlib.sha256(), {}
    for lifting in trace.liftings:
        for comp in lifting:
            hasher.update(_poly_text(comp.terms, names, monomials).encode())
            hasher.update(b"|")
        hasher.update(b";")
    hasher.update(b"H=")
    hasher.update(_poly_text(H.terms, names, monomials).encode() if H is not None else b"1")
    return hasher.hexdigest()
