"""Plane arrangements in P^3 over Q(mu).

Holds the 2d linear forms cutting out the degenerating pencil, certifies
general position exactly by minor expansions over Z[mu] (each form scaled
to integer coefficients), and computes the triple intersection points and,
with :func:`sweep_vertices`, the chart coordinates of the period triangle
in the order the membrane integral sweeps them.  The distinguished d = 4
arrangement with sixth-root-of-unity coefficients is built by
:func:`tempered_arrangement`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import lcm

from .exactlin import CYCLO_ONE, MU, CycloNumber, _Frozen

FormSelector = tuple[str, int]  # ("L", i) or ("M", l), 1-based


class DegenerateIntersectionError(ValueError):
    """The selected forms do not meet in a single point."""

    def __init__(self, selectors):
        self.selectors = tuple(selectors)
        super().__init__(f"degenerate form triple: {self.selectors}")


class ChartError(ValueError):
    """A requested point has Z = 0 and misses the (X/Z, Y/Z) chart."""


class LinearForm(_Frozen):
    """Coefficients of X, Y, Z, W."""

    __slots__ = ("coeffs",)
    coeffs: tuple[CycloNumber, CycloNumber, CycloNumber, CycloNumber]

    def __init__(self, coeffs: Sequence):
        cs = tuple(CycloNumber.coerce(c) for c in coeffs)
        if len(cs) != 4:
            raise ValueError("a linear form on P^3 has 4 coefficients")
        if all(c.is_zero() for c in cs):
            raise ValueError("zero form")
        object.__setattr__(self, "coeffs", cs)

    def evaluate(self, point: "P3Point") -> CycloNumber:
        acc = CycloNumber(0)
        for c, x in zip(self.coeffs, point.coords):
            acc = acc + c * x
        return acc


class P3Point(_Frozen):
    """Homogeneous coordinates, normalized so the last nonzero entry is 1."""

    __slots__ = ("coords",)
    coords: tuple[CycloNumber, CycloNumber, CycloNumber, CycloNumber]

    def __init__(self, coords: Sequence):
        cs = [CycloNumber.coerce(c) for c in coords]
        if len(cs) != 4:
            raise ValueError("P^3 point has 4 coordinates")
        last = None
        for k in range(3, -1, -1):
            if not cs[k].is_zero():
                last = k
                break
        if last is None:
            raise ValueError("all coordinates zero")
        inv = cs[last].inverse()
        cs = [c * inv for c in cs]
        object.__setattr__(self, "coords", tuple(cs))

    def chart_xy(self) -> tuple[CycloNumber, CycloNumber]:
        """(X/Z, Y/Z); requires Z != 0."""
        x, y, z, _ = self.coords
        if z.is_zero():
            raise ChartError(f"point {self} has Z = 0")
        zi = z.inverse()
        return (x * zi, y * zi)

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coords) + "]"


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


ZMu = tuple[int, int]  # a + b*mu in Z[mu], with mu^2 = mu - 1


def _integer_coeffs(form: LinearForm) -> list[ZMu]:
    """The form's coefficients scaled by the lcm of their denominators.

    A positive rational multiple of a form cuts the same plane, so general
    position and the normalised intersection points do not change.
    """
    m = lcm(*(q.denominator for c in form.coeffs for q in (c.a, c.b)))
    return [(int(c.a * m), int(c.b * m)) for c in form.coeffs]


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
    rows = [_integer_coeffs(a.form(s)) for s in sels]
    minors = {(i, j): _minors2(rows[i], rows[j]) for i, j in combinations(range(len(rows)), 2)}
    for i, j, k in combinations(range(len(rows)), 3):
        if all(m == (0, 0) for m in _minors3(rows[i], minors[j, k])):
            return GeneralPositionReport(False, (sels[i], sels[j], sels[k]), "three forms share a line")
    for i, j, k, l in combinations(range(len(rows)), 4):
        if _det4(minors[i, j], minors[k, l]) == (0, 0):
            return GeneralPositionReport(False, (sels[i], sels[j], sels[k], sels[l]), "four forms share a point")
    return GeneralPositionReport(True)


def intersection_point(a: Arrangement, f1: FormSelector, f2: FormSelector, f3: FormSelector) -> P3Point:
    """Exact common point of three independent forms: coordinate k is
    (-1)^k times the 3x3 minor without column k."""
    sels = (f1, f2, f3)
    if len(set(sels)) != 3:
        raise DegenerateIntersectionError(sels)
    r, s, u = (_integer_coeffs(a.form(sel)) for sel in sels)
    # the minors come for the column triples in lex order, which omit
    # columns 3, 2, 1, 0 in turn
    coords = [
        CycloNumber(sign * m_a, sign * m_b)
        for sign, (m_a, m_b) in zip((1, -1, 1, -1), reversed(_minors3(r, _minors2(s, u))))
    ]
    if all(c.is_zero() for c in coords):
        raise DegenerateIntersectionError(sels)
    p = P3Point(coords)
    for sel in sels:
        if not a.form(sel).evaluate(p).is_zero():
            raise AssertionError("intersection point fails exact substitution")
    return p


def tempered_arrangement() -> Arrangement:
    """The distinguished d = 4 arrangement over Q(mu).

    L forms are the coordinate planes; each M has unit and mu coefficients
    so that all triple points have root-of-unity chart coordinates.  Its
    general position is certified by :func:`validate_general_position`,
    which the ``aj`` report runs as a check of its own.
    """
    one = CYCLO_ONE
    L = [
        LinearForm([1, 0, 0, 0]),
        LinearForm([0, 1, 0, 0]),
        LinearForm([0, 0, 1, 0]),
        LinearForm([0, 0, 0, 1]),
    ]
    M = [
        LinearForm([one, MU, -one, one]),
        LinearForm([MU, -one, one, one]),
        LinearForm([-one, one, MU, one]),
        LinearForm([one, one, one, -MU]),
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
    return [intersection_point(a, ("L", i), ("M", p), ("M", q)).chart_xy() for p, q in ((l, n), (l, m), (m, n))]
