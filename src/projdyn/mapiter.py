"""Projective self-maps and exact iteration with common-factor extraction.

A dominant rational self-map of P^k is handled through an integer
primitive lifting F = (G_0, ..., G_k).  Iteration tracks the sequence
of primitive liftings F_n together with the extracted factors E_n,
where F(F_{n-1}) = E_n * F_n component-wise and exactly.  The degree
sequence, stability inference (algebraically stable, quasi
algebraically stable, or neither) and the power-divisor cross-check
all live here.
"""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .polycore import (
    ArityMismatch,
    DegreeMismatch,
    HomPoly,
    IntPrimitiveForm,
    NotDivisible,
    ParseError,
    coprime_certificate_many,
    exact_div,
    int_primitive,
    parse_poly,
    poly_gcd_many,
    poly_to_text,
    same_up_to_scalar,
)

__all__ = [
    "MapError",
    "NotDominant",
    "AllZero",
    "ZeroVector",
    "IndexOutOfRange",
    "ProjMap",
    "IterationTrace",
    "QASCertificate",
    "InferResult",
    "PointClass",
    "make_map",
    "compose_extract",
    "iterate_degrees",
    "infer_qas",
    "verify_lifting_recurrence",
    "point_class",
    "jacobian_det",
    "parse_map_text",
    "map_to_text",
    "load_map",
    "save_map",
    "certificate_digest",
]


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

    The returned components have integer coefficients with no common
    rational content across the tuple, and the first nonzero component
    has a positive leading coefficient.  content * tuple == input.
    """
    import math

    forms = [None if c.is_zero else int_primitive(c) for c in comps]
    live = [f for f in forms if f is not None]
    if not live:
        raise AllZero("all components are zero")
    num = 0
    den = 1
    for f in live:
        num = math.gcd(num, abs(f.content.numerator))
        den = den * f.content.denominator // math.gcd(den, f.content.denominator)
    content = Fraction(num, den)
    if live[0].content < 0:
        content = -content
    inv = 1 / content
    out = tuple(c * inv for c in comps)
    return content, out


@dataclass(frozen=True)
class ProjMap:
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


@dataclass(frozen=True)
class IterationTrace:
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


@dataclass(frozen=True)
class QASCertificate:
    """Witnessed quasi-stability data: lag n0, divisor H of degree h."""

    n0: int
    H: HomPoly
    h: int
    d: int
    verified_to: int
    degrees: tuple


@dataclass(frozen=True)
class InferResult:
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


@dataclass(frozen=True)
class PointClass:
    """Image of a rational point, or its membership in the indeterminacy set."""

    indeterminate: bool
    image: Optional[tuple] = None


# -- construction ---------------------------------------------------------------


def jacobian_det(comps: Sequence[HomPoly]) -> HomPoly:
    """Determinant of the jacobian matrix of a polynomial tuple."""
    n = len(comps)
    rows = [[c.partial(j) for j in range(n)] for c in comps]
    return _det(rows, list(range(n)), comps[0].nvars)


def _det(rows, cols, nvars: int) -> HomPoly:
    if len(cols) == 1:
        return rows[0][cols[0]]
    total = HomPoly.zero(nvars)
    for i, c in enumerate(cols):
        minor = _det(rows[1:], cols[:i] + cols[i + 1 :], nvars)
        if minor.is_zero or rows[0][c].is_zero:
            continue
        term = rows[0][c] * minor
        total = total + term if i % 2 == 0 else total - term
    return total


_PROBE_POINTS = ((2, 3, 5, 7, 11, 13), (-7, 11, -13, 17, 19, -23), (5, -2, 9, -4, 3, 8))


def _is_dominant(comps: Sequence[HomPoly]) -> bool:
    n = len(comps)
    nv = comps[0].nvars
    rows = [[c.partial(j) for j in range(n)] for c in comps]
    # a nonzero numeric determinant at any rational point settles it
    for pt in _PROBE_POINTS:
        point = pt[:nv]
        mat = [[Fraction(entry.evaluate(point)) for entry in row] for row in rows]
        if _num_det(mat) != 0:
            return True
    return not _det(rows, list(range(n)), nv).is_zero


def _num_det(mat) -> Fraction:
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return det


def make_map(components: Sequence[HomPoly], names: Optional[Sequence[str]] = None) -> ProjMap:
    """Build a dominant projective map from a lifting, primitivizing it.

    The common polynomial factor and common rational content are
    divided out and recorded; dominance is certified by the jacobian
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
    g = poly_gcd_many(comps)
    if g.degree > 0:
        comps = tuple(exact_div(c, g) for c in comps)
    content, comps = _tuple_primitive(comps)
    if not _is_dominant(comps):
        raise NotDominant("jacobian determinant of the lifting vanishes identically")
    record = IntPrimitiveForm(content, g)
    nm = tuple(names) if names is not None else _default_names(nv)
    if len(nm) != nv:
        raise ArityMismatch(f"{nv} variable names required, got {len(nm)}")
    return ProjMap(nv - 1, comps, comps[0].degree, record, nm)


# -- one iteration step ---------------------------------------------------------


def compose_extract(f: ProjMap, lifting: Sequence[HomPoly], hint: Optional[HomPoly] = None):
    """One composition step: full common factor out, primitive result.

    Returns (E, next_lifting) with E an IntPrimitiveForm such that
    E.content * E.primitive * next_lifting reproduces the composed
    components exactly.  `hint` is an optional divisor candidate that
    is verified before use (exact division plus a coprimality
    certificate of the quotients); a wrong hint only costs time.
    """
    lifting = tuple(lifting)
    if lifting[0].nvars != f.nvars:
        raise ArityMismatch("lifting arity does not match the map")
    raw = tuple(c.compose(lifting) for c in f.components)
    g = None
    if hint is not None and not hint.is_zero and hint.degree > 0:
        g = _try_divisor(raw, int_primitive(hint).primitive)
    if g is None:
        g = poly_gcd_many(raw)
    quot = tuple(exact_div(r, g) for r in raw)
    content, nxt = _tuple_primitive(quot)
    return IntPrimitiveForm(content, g), nxt


def _try_divisor(raw, cand: HomPoly):
    """cand if it provably equals the full gcd of raw, else None."""
    quots = []
    for r in raw:
        try:
            quots.append(exact_div(r, cand))
        except NotDivisible:
            return None
    if coprime_certificate_many(quots):
        return cand
    return None


def iterate_degrees(f: ProjMap, N: int) -> IterationTrace:
    """Exact degree sequence and liftings to depth N.

    Each step removes the full common factor of the composed
    components; once a nontrivial extraction has appeared, the
    quasi-stability pattern E_n = H(F_{n-n0-1}) is tried as a verified
    divisor hint before falling back to a full GCD.
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
            m = n - first_nontrivial  # = n - n0 - 1
            if 0 <= m < len(liftings):
                hint = H.compose(liftings[m])
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
        edeg = 0 if e.primitive.degree == 0 else e.primitive.degree
        assert trace.degrees[n] == d * trace.degrees[n - 1] - edeg, (
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
    F_n, component-wise, up to one common rational scalar (the
    liftings are pinned to primitive form, so the scalar freedom of
    the recurrence collapses to a single constant).
    """
    if not cert.n0 < n <= min(cert.verified_to, trace.depth):
        raise IndexOutOfRange(
            f"step {n} outside the verified range ({cert.n0}, {cert.verified_to}]"
        )
    lhs = tuple(c.compose(f.components) for c in trace.lifting(n - 1))
    power = cert.degrees[n - cert.n0 - 1]
    divisor = cert.H**power
    fn = trace.lifting(n)
    scalar = None
    for left, comp in zip(lhs, fn):
        try:
            q = exact_div(left, divisor)
        except NotDivisible:
            return False
        if q.is_zero != comp.is_zero:
            return False
        if q.is_zero:
            continue
        qi, ci = int_primitive(q), int_primitive(comp)
        if qi.primitive != ci.primitive:
            return False
        ratio = qi.content / ci.content
        if scalar is None:
            scalar = ratio
        elif ratio != scalar:
            return False
    return scalar is not None


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


def parse_map_text(text: str) -> ProjMap:
    """Parse the line-oriented map format.

    One `vars` line naming the coordinates, then one `map` line per
    component in the polynomial grammar; '#' starts a comment.
    """
    names = None
    comps = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            if names is not None:
                raise ParseError(f"line {lineno}: duplicate vars line")
            names = tuple(line.split()[1:])
            if len(names) < 2:
                raise ParseError(f"line {lineno}: need at least two variables")
        elif line.startswith("map"):
            if names is None:
                raise ParseError(f"line {lineno}: vars line must come first")
            comps.append(parse_poly(line[3:], names))
        else:
            raise ParseError(f"line {lineno}: expected 'vars' or 'map', got {line!r}")
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
    names = trace.map.names
    hasher = hashlib.sha256()
    for lifting in trace.liftings:
        for comp in lifting:
            hasher.update(poly_to_text(comp, names).encode())
            hasher.update(b"|")
        hasher.update(b";")
    hasher.update(b"H=")
    hasher.update(poly_to_text(H, names).encode() if H is not None else b"1")
    return hasher.hexdigest()
