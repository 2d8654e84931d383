"""Exact plane geometry over Q: common zeros of forms in P^2.

Univariate polynomials are dense lists, low degree first, over Z and Q:
coefficients are ints or Fractions, and every quotient is an int when it
is integral (`_quo`), so polynomials over Z stay in Z; the gcd is the
modular engine's, through `poly_gcd` on binary forms.  The GF(p) lists
are `polycore`'s, which the gcd engine runs on.

The solver works on the integer primitive parts of its forms, so the
chart rows, the resultants and the squarefree parts stay in Z, and every
univariate gcd is `poly_gcd` on binary forms.  A resultant is one
integer determinant: Kronecker substitution packs its polynomial
entries into ints, which the fraction-free `mapiter._echelon`
eliminates with exact integer division.  The Euclid over
Q[z]/(h) takes pseudo-remainders, so it inverts nothing mod h; Fractions
enter only in its reductions mod h, in the rational roots and in the
fibres over them.  The rational points come from lines through [0:1:0],
read off the forms' coefficients and solved as binary forms by one gcd
solver (`_line_zeros`): first t = 0, then the rational fibres z = z0 t.
The Euclid decides the rest (`_chart_points`).
"""

import itertools
import math
import operator
from fractions import Fraction

from .mapiter import _echelon
from .polycore import HomPoly, _is_prime, _modp_gcd, _quo, _utrim, poly_gcd, poly_gcd_many


def _uadd(a, b):
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _uscale(a, c):
    return _utrim([x * c for x in a]) if c else []


def _umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _utrim(out)


def _udivmod(a, b):
    """Quotient and remainder of a by b."""
    assert b, "division by the zero polynomial"
    a = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = _quo(a[-1], b[-1])
        k = len(a) - len(b)
        out[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _utrim(a)
    return _utrim(out), a


def _ugcd(a, b):
    """The primitive integer gcd of a and b ([] when both are zero), by `poly_gcd`."""
    if not (a or b):
        return []
    forms = (HomPoly(2, (((i, len(u) - 1 - i), c) for i, c in enumerate(u) if c)) for u in (a, b))
    return _dehom_binary(poly_gcd(*forms))[0]


def _uderiv(a):
    return _utrim([a[i] * i for i in range(1, len(a))])


def _usquarefree(a):
    g = _ugcd(a, _uderiv(a)) if len(a) > 1 else []
    return _udivmod(a, g)[0] if len(g) > 1 else list(a)


def _urational_roots(a):
    """Rational roots of a in ascending order, found by p-adic lifting.

    f is the squarefree part of a with integer coefficients and leading
    coefficient lc.  A root u/v in lowest terms has v | lc, so lc*u/v is
    an integer of absolute value at most B = |lc| + max|c_i| (Cauchy).
    p is the least prime not dividing lc modulo which f stays
    squarefree; the search ends because f is squarefree, so its
    discriminant is a nonzero integer.  Each root mod p is then simple
    and Newton-lifts to one p-adic root; once p^k > 2B, the symmetric
    residue of lc times the lift is lc*u/v if the root is u/v.  Distinct
    roots mod p give distinct candidates, each checked exactly: c is a
    root iff z - c leaves no remainder.
    """
    f = _usquarefree(a)
    if len(f) < 2:
        return []
    den = math.lcm(*(c.denominator for c in f))
    f = [int(c * den) for c in f]
    df, lc = _uderiv(f), f[-1]
    p = 2
    while lc % p == 0 or len(_modp_gcd(f, df, p)) > 1:
        p = next(q for q in itertools.count(p + 1) if _is_prime(q))
    bound = 2 * (abs(lc) + max(map(abs, f)))

    def at(u, x, q):
        return sum(c * pow(x, i, q) for i, c in enumerate(u)) % q

    def lift(r):
        q = p
        while q <= bound:
            q *= q
            r = (r - at(f, r, q) * pow(at(df, r, q), -1, q)) % q
        m = lc * r % q
        return Fraction(m - q if 2 * m > q else m, lc)

    cands = (lift(r) for r in range(p) if at(f, r, p) == 0)
    return sorted(c for c in cands if not _udivmod(f, [-c, 1])[1])


# -- bivariate charts and resultants -------------------------------------------------


def _rows(f: HomPoly):
    """f at t = 1 as coefficient lists in z, one per power of w."""
    rows = [[0] * (f.degree + 1) for _ in range(max((e[1] for e, _ in f.terms), default=-1) + 1)]
    for (i, j, _), c in f.terms:
        rows[j][i] = c
    return [_utrim(r) for r in rows]


def _sylvester_resultant(A, B):
    """Resultant in w of two polys given as rows (`_rows`), as a poly in z.

    One integer determinant by Kronecker substitution (von zur Gathen
    and Gerhard, Modern Computer Algebra, 8.4).  Rows over Q are first
    scaled to Z by the lcms a and b of their denominators, and
    Res(aA, bB) = a^db b^da Res(A, B) undoes it.  Every entry of the
    Sylvester matrix is then evaluated at z = 2^k and the integer
    determinant is Res(2^k), read off as balanced base-2^k digits.  The
    digits are the coefficients c_m of Res(z) once each |c_m| < 2^(k-1).
    By Cauchy's formula c_m is the mean of Res(z) z^-m over |z| = 1, so
    |c_m| <= max |Res(z)| there, and at |z| = 1 each entry A_j(z) has
    modulus at most ||A_j||_1, so Hadamard's inequality bounds that
    determinant by the product of the row norms,
    sqrt(sum_j ||A_j||_1^2)^db sqrt(sum_j ||B_j||_1^2)^da; k is chosen
    with 2^(k-1) above it.  A rank-deficient matrix has resultant 0 ([]).
    """
    da, db = len(A) - 1, len(B) - 1
    if da < 0 or db < 0:
        return []
    if da == 0 and db == 0:
        return [1]
    scale = bound2 = 1  # bound2 is the square of the Hadamard bound
    blocks = []
    for rows, power in ((A, db), (B, da)):
        den = math.lcm(*(c.denominator for row in rows for c in row))
        rows = [[int(c * den) for c in row] for row in rows]
        scale *= den**power
        bound2 *= sum(sum(map(abs, row)) ** 2 for row in rows) ** power
        blocks.append(rows)
    k = (bound2.bit_length() + 1) // 2 + 1  # so 4^(k-1) >= 2^bit_length > bound2

    def at(row):
        v = 0
        for c in reversed(row):
            v = (v << k) + c
        return v

    size = da + db
    mat = [[0] * size for _ in range(size)]
    for rows, first, count in ((blocks[0], 0, db), (blocks[1], db, da)):
        vals = [at(row) for row in reversed(rows)]
        for s in range(count):
            mat[first + s][s : s + len(vals)] = vals
    ech, pivots, sign = _echelon(mat, operator.floordiv)
    if len(pivots) < size:
        return []
    v, out = sign * ech[-1][-1], []
    while v:
        c = v & ((1 << k) - 1)
        if c >> (k - 1):
            c -= 1 << k
        out.append(_quo(c, scale))
        v = (v - c) >> k
    return out


# -- common zeros on a line and in the chart t = 1 -------------------------------------


def _on_line(f: HomPoly, x: int, b) -> HomPoly:
    """The binary form f(s e_x + u b) in (s, u), where b[x] = 0.

    A term c y^e adds c prod_{i != x} b_i^e_i to the coefficient of s^e_x u^(d - e_x).
    """
    d = f.degree
    out = [0] * (d + 1)
    b = [1 if i == x else bi for i, bi in enumerate(b)]
    for e, c in f.terms:
        out[e[x]] += c * math.prod(map(pow, b, e))
    return HomPoly._new(2, {(j, d - j): v for j, v in enumerate(out)}, d)


def _dehom_binary(g: HomPoly):
    """Binary form -> (poly in s with u = 1, multiplicity of the root [1:0])."""
    u_order = min(e[1] for e, _ in g.terms)
    out = [0] * (g.degree + 1)
    for (i, _), c in g.terms:
        out[i] += c
    return _utrim(out), u_order


def _line_zeros(binary):
    """Rational zeros and failures of binary forms on a line, as points [s:u].

    The first two forms are coprime.  The failing zeros are those of the
    gcd of all the forms, which divides the gcd of the first two, so
    each failing rational zero is one of theirs, found by division.
    Returns the rational zeros of the first two, the failing ones among
    them, and the squarefree part of the gcd at u = 1 with their
    s-coordinates divided out: its roots are the s-coordinates of the
    failing points [s:1] not listed.
    """
    g = poly_gcd_many(binary[:2])
    spoly, u_order = _dehom_binary(g)
    gpoly, u_fail = _dehom_binary(poly_gcd_many((g, *binary[2:])))
    corner = (Fraction(1), Fraction(0))
    points = [corner] if u_order else []
    failing = [corner] if u_fail else []
    bad = _usquarefree(gpoly)
    for s0 in _urational_roots(spoly):
        points.append((s0, Fraction(1)))
        quo, rem = _udivmod(bad, [-s0, 1])
        if not rem:
            failing.append((s0, Fraction(1)))
            bad = quo
    return points, failing, bad


def _chart_points(p, r, *ds):
    """Rational points and failures in the chart t = 1, coordinates (z, w).

    Every common zero of p and r has its z-coordinate among the roots of
    h, the squarefree part of their resultant in w; every failing one, a
    zero of every form, is also a root of each resultant of a d in ds
    with p or r.  A Euclid in w over Q[z]/(h) then decides the gcd of
    all the forms: once the leading coefficient u of b is a unit mod h,
    the pseudo-remainder a <- u a - c w^k b keeps that gcd on every
    factor of h, and h splits whenever u is a zero divisor (dynamic
    evaluation).  `_line_zeros` solves each rational fibre z = z0 t,
    less its zero [1:0], which is [0:1:0] on the line t = 0.  Returns
    the rational zeros of p and r, the failing ones among them, and the
    product of the factors of h over which the gcd has positive degree
    in w, with each z-coordinate whose failing points are all listed
    divided out.
    """
    forms = (p, r, *ds)
    p, r, *ds = (_rows(f) for f in forms)
    res = _sylvester_resultant(p, r)
    assert res, "coprime forms have a nonzero resultant"
    h = fibres = _usquarefree(res)
    for d in ds:
        for e in (p, r):
            # the resultant of two w-free polys is 1 by convention, not in the ideal
            cut = _sylvester_resultant(e, d) if max(len(e), len(d)) > 1 else []
            if cut:
                h = _ugcd(h, cut)
                break
    bad = [1]
    # (h, a, b, rest): a is the gcd so far over Q[z]/(h), with a unit leading coefficient,
    # b the next form, rest the forms still to fold in; coefficients are polys in z
    work = [(h, [], p, [r, *ds])]
    while work:
        h, a, b, rest = work.pop()
        if len(h) < 2 or len(a) == 1:
            continue  # no z left, or the gcd is already 1
        b = [_udivmod(c, h)[1] for c in b]
        while b and not b[-1]:
            b.pop()
        if not b:
            if rest:
                work.append((h, a, rest[0], rest[1:]))
            else:
                bad = _umul(bad, h)
            continue
        g = _ugcd(b[-1], h)
        if len(g) > 1:
            work += [(g, a, b, rest), (_udivmod(h, g)[0], a, b, rest)]
            continue
        a = [_udivmod(c, h)[1] for c in a]
        while len(a) >= len(b):
            cb = [[]] * (len(a) - len(b)) + [_umul(a[-1], y) for y in b]
            a = [_udivmod(_uadd(_umul(b[-1], x), _uscale(y, -1)), h)[1] for x, y in zip(a, cb)]
            while a and not a[-1]:
                a.pop()
        work.append((h, b, a, rest))
    points, failing = [], []
    for z0 in _urational_roots(fibres):
        zeros, fails, fibre_bad = _line_zeros([_on_line(f, 1, (z0, 0, 1)) for f in forms])
        points += [(z0, w0, Fraction(1)) for w0, u in zeros if u]
        fails = [(z0, w0, Fraction(1)) for w0, u in fails if u]
        failing += fails
        if fails and len(fibre_bad) < 2:
            bad = _udivmod(bad, [-z0, 1])[0]  # every failing point over z0 is listed
    return points, failing, bad
