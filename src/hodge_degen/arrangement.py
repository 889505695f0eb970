"""Plane arrangements in P^3 over Z[mu].

An element a + b*mu, mu = (1 + sqrt(3) i)/2 so that mu^2 = mu - 1, is the
pair (a, b) throughout; :func:`_signed_sum` is its one product.  Holds
the 2d linear forms cutting out the degenerating pencil, each with Z[mu]
integer coefficients, certifies general position exactly by minor
expansions over Z[mu], and computes the triple intersection points and,
with :func:`sweep_vertices`, the chart coordinates of the period triangle
in the order the membrane integral sweeps them.  A point stays a
homogeneous quadruple of Z[mu] integers, unnormalised; :func:`chart_xy`
is the one division, X conj(Z) / N(Z) and Y conj(Z) / N(Z) by the
positive integer N(Z).  The distinguished d = 4 arrangement with
sixth-root-of-unity coefficients is built by :func:`tempered_arrangement`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .exactlin import _Frozen, _ratio

FormSelector = tuple[str, int]  # ("L", i) or ("M", l), 1-based
ZMu = tuple[int, int]  # a + b*mu in Z[mu], with mu^2 = mu - 1
ZMuPoint = tuple[ZMu, ZMu, ZMu, ZMu]  # homogeneous [X : Y : Z : W]
QMu = tuple  # a + b*mu in Q(mu) as (a, b), each an exact scalar int | Fraction


class DegenerateIntersectionError(ValueError):
    """The selected forms do not meet in a single point."""

    def __init__(self, selectors):
        self.selectors = tuple(selectors)
        super().__init__(f"degenerate form triple: {self.selectors}")


class ChartError(ValueError):
    """A requested point has Z = 0 and misses the (X/Z, Y/Z) chart."""


class LinearForm(_Frozen):
    """Coefficients of X, Y, Z, W, as Z[mu] integer pairs (a, b); an int n
    reads as (n, 0)."""

    __slots__ = ("coeffs",)
    coeffs: ZMuPoint

    def __init__(self, coeffs: Sequence):
        cs = tuple((c, 0) if isinstance(c, int) else c for c in coeffs)
        if not all(type(c) is tuple and len(c) == 2 and all(isinstance(x, int) for x in c) for c in cs):
            raise TypeError(f"not Z[mu] integers (a, b): {coeffs!r}")
        if len(cs) != 4:
            raise ValueError("a linear form on P^3 has 4 coefficients")
        if all(c == (0, 0) for c in cs):
            raise ValueError("zero form")
        object.__setattr__(self, "coeffs", tuple((int(a), int(b)) for a, b in cs))


class Arrangement(_Frozen):
    __slots__ = ("d", "L", "M")
    d: int
    L: tuple[LinearForm, ...]
    M: tuple[LinearForm, ...]

    def __init__(self, L: Sequence[LinearForm], M: Sequence[LinearForm]):
        if len(L) != len(M) or len(L) < 2:
            raise ValueError("need equally many L and M forms, at least 2 each")
        object.__setattr__(self, "d", len(L))
        object.__setattr__(self, "L", tuple(L))
        object.__setattr__(self, "M", tuple(M))

    def form(self, sel: FormSelector) -> LinearForm:
        kind, idx = sel
        family = {"L": self.L, "M": self.M}.get(kind)
        if family is None or not 1 <= idx <= self.d:
            raise ValueError(f"bad form selector {sel}")
        return family[idx - 1]

    def all_selectors(self) -> list[FormSelector]:
        return [("L", i) for i in range(1, self.d + 1)] + [("M", l) for l in range(1, self.d + 1)]


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


class GeneralPositionReport(_Frozen):
    __slots__ = ("ok", "violation", "reason")
    ok: bool
    violation: tuple[FormSelector, ...] | None
    reason: str | None

    def __init__(self, ok: bool, violation: tuple[FormSelector, ...] | None = None, reason: str | None = None):
        super().__init__(ok, violation, reason)


def validate_general_position(a: Arrangement) -> GeneralPositionReport:
    """Exact general-position certificate.

    Every 3-subset of the 2d forms must have a rank-3 coefficient matrix
    (the planes meet in exactly one point) and every 4-subset must have a
    nonzero 4x4 determinant (no common point).  Both come from the 2x2
    minors of each pair of forms, computed once.  The first violating
    selector subset is reported.
    """
    sels = a.all_selectors()
    rows = [a.form(s).coeffs for s in sels]
    minors = {(i, j): _minors2(rows[i], rows[j]) for i, j in combinations(range(len(rows)), 2)}
    for i, j, k in combinations(range(len(rows)), 3):
        if all(m == (0, 0) for m in _minors3(rows[i], minors[j, k])):
            return GeneralPositionReport(False, (sels[i], sels[j], sels[k]), "three forms share a line")
    for i, j, k, l in combinations(range(len(rows)), 4):
        if _det4(minors[i, j], minors[k, l]) == (0, 0):
            return GeneralPositionReport(False, (sels[i], sels[j], sels[k], sels[l]), "four forms share a point")
    return GeneralPositionReport(True)


def intersection_point(a: Arrangement, f1: FormSelector, f2: FormSelector, f3: FormSelector) -> ZMuPoint:
    """Exact common point of three independent forms, as homogeneous Z[mu]
    integers: coordinate k is (-1)^k times the 3x3 minor of the forms'
    coefficients without column k.  Unnormalised."""
    sels = (f1, f2, f3)
    if len(set(sels)) != 3:
        raise DegenerateIntersectionError(sels)
    rows = [a.form(sel).coeffs for sel in sels]
    r, s, u = rows
    # the minors come for the column triples in lex order, which omit
    # columns 3, 2, 1, 0 in turn
    point = tuple(
        (sign * m_a, sign * m_b) for sign, (m_a, m_b) in zip((1, -1, 1, -1), reversed(_minors3(r, _minors2(s, u))))
    )
    if all(c == (0, 0) for c in point):
        raise DegenerateIntersectionError(sels)
    for row in rows:
        if _signed_sum((1, c, x) for c, x in zip(row, point)) != (0, 0):
            raise AssertionError("intersection point fails exact substitution")
    return point


def chart_xy(point: ZMuPoint) -> tuple[QMu, QMu]:
    """(X/Z, Y/Z) of a homogeneous Z[mu] point, as X conj(Z) / N(Z) and
    Y conj(Z) / N(Z): conj(a + b mu) = (a + b) - b mu and
    N(a + b mu) = Z conj(Z) = a^2 + a b + b^2, a positive integer unless
    Z = 0, which misses the chart.  Each coordinate is a pair of exact
    scalars, an int when integral and a Fraction otherwise."""
    x, y, (a, b), _ = point
    n = a * a + a * b + b * b
    if n == 0:
        raise ChartError(f"point {point} has Z = 0")
    conj = (a + b, -b)
    return tuple(tuple(_ratio(v, n) for v in _signed_sum(((1, c, conj),))) for c in (x, y))


def tempered_arrangement() -> Arrangement:
    """The distinguished d = 4 arrangement over Z[mu].

    L forms are the coordinate planes; each M has unit and mu coefficients
    so that all triple points have root-of-unity chart coordinates.  Its
    general position is certified by :func:`validate_general_position`,
    which the ``aj`` report runs as a check of its own.
    """
    mu = (0, 1)
    L = [
        LinearForm([1, 0, 0, 0]),
        LinearForm([0, 1, 0, 0]),
        LinearForm([0, 0, 1, 0]),
        LinearForm([0, 0, 0, 1]),
    ]
    M = [
        LinearForm([1, mu, -1, 1]),
        LinearForm([mu, -1, 1, 1]),
        LinearForm([-1, 1, mu, 1]),
        LinearForm([1, 1, 1, (0, -1)]),
    ]
    return Arrangement(L, M)


def sweep_vertices(a: Arrangement, i: int, l: int, m: int, n: int):
    """Chart coordinates of the triangle cut on the i-th L-plane by M_l,
    M_m, M_n, in the order of the iterated period integral.

    Returns [(x, y)] for the pairs (l,n), (l,m), (m,n) in that order: the
    common inner-bound edge is the M_n line, running through the first and
    last vertices.  Each vertex must lie in the Z != 0 chart.
    """
    if len({l, m, n}) != 3:
        raise DegenerateIntersectionError((("M", l), ("M", m), ("M", n)))
    return [chart_xy(intersection_point(a, ("L", i), ("M", p), ("M", q))) for p, q in ((l, n), (l, m), (m, n))]
