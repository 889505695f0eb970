"""Plane arrangements in P^3 over Z[mu].

An element a + b*mu, mu = (1 + sqrt(3) i)/2 so that mu^2 = mu - 1, is the
pair (a, b) throughout; :func:`_signed_sum` is its one product.  A form
is the 4-tuple of its X, Y, Z, W coefficients, each such a pair.  An
arrangement is the plain tuple of the 2d forms cutting out the
degenerating pencil, the L forms first, then the M forms; ("L", i) and
("M", l), 1-based, select them (:func:`form`).  The module certifies
general position exactly by minor expansions over Z[mu], and computes the
triple intersection points and, with :func:`sweep_vertices`, the chart
coordinates of the period triangle in the order the membrane integral
sweeps them.  A point stays a homogeneous quadruple of Z[mu] integers,
unnormalised.  A chart point (:func:`chart_xy`) is (X/Z, Y/Z) kept as
integers too: the Z[mu] numerators X conj(Z) and Y conj(Z) over the
positive integer N(Z), so that it is exact without a Fraction, and
``exactlin.cyclo_embed(x, n)`` makes the one division, correctly
rounded, when it embeds a coordinate.  The distinguished d = 4
arrangement is built by :func:`tempered_arrangement`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

FormSelector = tuple[str, int]  # ("L", i) or ("M", l), 1-based
ZMu = tuple[int, int]  # a + b*mu in Z[mu], with mu^2 = mu - 1
Form = tuple[ZMu, ZMu, ZMu, ZMu]  # the coefficients of X, Y, Z, W
ZMuPoint = tuple[ZMu, ZMu, ZMu, ZMu]  # homogeneous [X : Y : Z : W]
ChartPoint = tuple[ZMu, ZMu, int]  # (X conj(Z), Y conj(Z), N(Z)): (X/Z, Y/Z) over N(Z)


class DegenerateIntersectionError(ValueError):
    """The selected forms do not meet in a single point."""


class ChartError(ValueError):
    """A requested point has Z = 0 and misses the (X/Z, Y/Z) chart."""


def selectors(a: Sequence[Form]) -> list[FormSelector]:
    """("L", 1) .. ("L", d), then ("M", 1) .. ("M", d): the forms of the
    arrangement a in order, d = len(a) // 2."""
    if len(a) % 2 or len(a) < 4:
        raise ValueError("need equally many L and M forms, at least 2 each")
    d = len(a) // 2
    return [("L", i) for i in range(1, d + 1)] + [("M", l) for l in range(1, d + 1)]


def form(a: Sequence[Form], sel: FormSelector) -> Form:
    """The form of the arrangement a that the selector names.  The index
    is an int: a bool or a float would pass for the int it equals."""
    sels = selectors(a)
    if sel not in sels or type(sel[1]) is not int:
        raise ValueError(f"bad form selector {sel}")
    return a[sels.index(sel)]


def _signed_sum(terms) -> ZMu:
    """sum of sign * x * y over the (sign, x, y) terms, exactly in Z[mu]."""
    acc_a = acc_b = 0
    for sign, (a, b), (c, d) in terms:
        # (a + b mu)(c + d mu) = (ac - bd) + (ad + bc + bd) mu
        acc_a += sign * (a * c - b * d)
        acc_b += sign * (a * d + b * c + b * d)
    return (acc_a, acc_b)


# the column pairs of a form, in lex order; a pair's 2x2 minors are
# listed in this order
_COLUMN_PAIRS = tuple(combinations(range(4), 2))
_PAIR = {p: k for k, p in enumerate(_COLUMN_PAIRS)}

# The 3x3 minors of rows (r, s, u), one per column triple in lex order,
# each expanded along r against the 2x2 minors m of (s, u):
# r[c0] m(c1 c2) - r[c1] m(c0 c2) + r[c2] m(c0 c1).
_EXPAND_3 = tuple(
    ((1, c0, _PAIR[c1, c2]), (-1, c1, _PAIR[c0, c2]), (1, c2, _PAIR[c0, c1]))
    for c0, c1, c2 in combinations(range(4), 3)
)
# The 4x4 determinant of rows (r, s, u, v) by Laplace along r and s: each
# minor of (r, s) on a column pair (a, b) times the minor of (u, v) on the
# complementary pair, with sign (-1)^(a + b + 1).
_EXPAND_4 = tuple(
    ((-1) ** (a + b + 1), k, _PAIR[tuple(c for c in range(4) if c not in (a, b))])
    for k, (a, b) in enumerate(_COLUMN_PAIRS)
)


def _minors2(r: Sequence[ZMu], s: Sequence[ZMu]) -> list[ZMu]:
    """The six 2x2 minors of the rows r, s, in ``_COLUMN_PAIRS`` order."""
    return [_signed_sum(((1, r[a], s[b]), (-1, r[b], s[a]))) for a, b in _COLUMN_PAIRS]


def _minors3(r: Sequence[ZMu], m: Sequence[ZMu]) -> list[ZMu]:
    """The four 3x3 minors of rows (r, s, u), column triples in lex order,
    from r and the 2x2 minors m of (s, u)."""
    return [_signed_sum((sign, r[c], m[k]) for sign, c, k in terms) for terms in _EXPAND_3]


def _det4(m: Sequence[ZMu], n: Sequence[ZMu]) -> ZMu:
    """The determinant of rows (r, s, u, v) from the 2x2 minors m of (r, s)
    and n of (u, v)."""
    return _signed_sum((sign, m[k], n[j]) for sign, k, j in _EXPAND_4)


def general_position_failure(a: Sequence[Form]) -> str | None:
    """The failed clause of the exact general-position certificate of the
    arrangement a and the forms that fail it, or None when it holds.

    "three forms share a line": 3 forms whose coefficient matrix has rank
    below 3.  "four forms share a point": 4 forms with a zero determinant.
    Both come from the 2x2 minors of each pair of forms, computed once; the
    first failing subset is named: "three forms share a line: L2, L3, M2".
    """
    names = [f"{kind}{idx}" for kind, idx in selectors(a)]
    minors = {(i, j): _minors2(a[i], a[j]) for i, j in combinations(range(len(a)), 2)}
    for i, j, k in combinations(range(len(a)), 3):
        if all(m == (0, 0) for m in _minors3(a[i], minors[j, k])):
            return f"three forms share a line: {names[i]}, {names[j]}, {names[k]}"
    for i, j, k, l in combinations(range(len(a)), 4):
        if _det4(minors[i, j], minors[k, l]) == (0, 0):
            return f"four forms share a point: {names[i]}, {names[j]}, {names[k]}, {names[l]}"
    return None


def intersection_point(a: Sequence[Form], f1: FormSelector, f2: FormSelector, f3: FormSelector) -> ZMuPoint:
    """Exact common point of three independent forms, as homogeneous Z[mu]
    integers: coordinate k is (-1)^k times the 3x3 minor of the forms'
    coefficients without column k.  Unnormalised."""
    sels = (f1, f2, f3)
    rows = [form(a, sel) for sel in sels]
    if len(set(sels)) != 3:
        raise DegenerateIntersectionError(f"degenerate form triple: {sels}")
    r, s, u = rows
    # the minors come for the column triples in lex order, which omit
    # columns 3, 2, 1, 0 in turn
    point = tuple(
        (sign * m_a, sign * m_b) for sign, (m_a, m_b) in zip((1, -1, 1, -1), reversed(_minors3(r, _minors2(s, u))))
    )
    if all(c == (0, 0) for c in point):
        raise DegenerateIntersectionError(f"degenerate form triple: {sels}")
    for row in rows:
        if _signed_sum((1, c, x) for c, x in zip(row, point)) != (0, 0):
            raise AssertionError("intersection point fails exact substitution")
    return point


def chart_xy(point: ZMuPoint) -> ChartPoint:
    """(X/Z, Y/Z) of a homogeneous Z[mu] point as (X conj(Z), Y conj(Z),
    N(Z)): two Z[mu] numerators over one positive integer, with
    conj(a + b mu) = (a + b) - b mu and N(a + b mu) = Z conj(Z) =
    a^2 + a b + b^2, positive unless Z = 0, which misses the chart.  The
    quotients are not reduced; ``cyclo_embed(x, n)`` embeds x / n."""
    x, y, (a, b), _ = point
    n = a * a + a * b + b * b
    if n == 0:
        raise ChartError(f"point {point} has Z = 0")
    conj = (a + b, -b)
    return (_signed_sum(((1, x, conj),)), _signed_sum(((1, y, conj),)), n)


def tempered_arrangement() -> tuple[Form, ...]:
    """The distinguished d = 4 arrangement over Z[mu].

    L forms are the coordinate planes; each M has unit and mu coefficients
    so that all triple points have root-of-unity chart coordinates.  Its
    general position is certified by :func:`general_position_failure`,
    which the ``aj`` report runs as a check of its own.
    """
    o, i, m, n = (0, 0), (1, 0), (0, 1), (-1, 0)
    return (
        (i, o, o, o),
        (o, i, o, o),
        (o, o, i, o),
        (o, o, o, i),
        (i, m, n, i),
        (m, n, i, i),
        (n, i, m, i),
        (i, i, i, (0, -1)),
    )


def sweep_vertices(a: Sequence[Form], i: int, l: int, m: int, n: int):
    """Chart coordinates of the triangle cut on the i-th L-plane by M_l,
    M_m, M_n, in the order of the iterated period integral.

    Returns the chart points (:func:`chart_xy`) of the pairs (l,n), (l,m),
    (m,n) in that order: the common inner-bound edge is the M_n line,
    running through the first and last vertices.  Each vertex must lie in
    the Z != 0 chart.  A bad index
    (one that is not an int, say) raises ValueError from :func:`form`,
    and a repeated M index DegenerateIntersectionError from
    :func:`intersection_point`, before any vertex meets the chart.
    """
    points = [intersection_point(a, ("L", i), ("M", p), ("M", q)) for p, q in ((l, n), (l, m), (m, n))]
    return [chart_xy(p) for p in points]
