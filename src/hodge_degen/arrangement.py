"""Plane arrangements in P^3 over Q(mu).

Holds the 2d linear forms cutting out the degenerating pencil, certifies
general position exactly, and computes the triple intersection points and
the chart coordinates of the period triangle.  The distinguished d = 4
arrangement with sixth-root-of-unity coefficients is built by
:func:`tempered_arrangement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .exactlin import CYCLO_ONE, MU, CycloNumber

FormSelector = tuple[str, int]  # ("L", i) or ("M", l), 1-based


class DegenerateIntersectionError(ValueError):
    """The selected forms do not meet in a single point."""

    def __init__(self, selectors):
        self.selectors = tuple(selectors)
        super().__init__(f"degenerate form triple: {self.selectors}")


class ChartError(ValueError):
    """A requested point has Z = 0 and misses the (X/Z, Y/Z) chart."""


@dataclass(frozen=True)
class LinearForm:
    """Coefficients of X, Y, Z, W."""

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


@dataclass(frozen=True)
class P3Point:
    """Homogeneous coordinates, normalized so the last nonzero entry is 1."""

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


@dataclass(frozen=True)
class Arrangement:
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


def _det(rows: list[list[CycloNumber]]) -> CycloNumber:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = CycloNumber(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


@dataclass(frozen=True)
class GeneralPositionReport:
    ok: bool
    violation: tuple[FormSelector, ...] | None = None
    reason: str | None = None


def validate_general_position(a: Arrangement) -> GeneralPositionReport:
    """Exact general-position certificate.

    Every 3-subset of the 2d forms must have a rank-3 coefficient matrix
    (the planes meet in exactly one point) and every 4-subset must have a
    nonzero 4x4 determinant (no common point).  The first violating
    selector subset is reported.
    """
    sels = a.all_selectors()
    mats = {s: [c for c in a.form(s).coeffs] for s in sels}
    for tri in combinations(sels, 3):
        rows = [mats[s] for s in tri]
        if not any(
            not _det([[rows[r][c] for c in cset] for r in range(3)]).is_zero()
            for cset in combinations(range(4), 3)
        ):
            return GeneralPositionReport(False, tri, "three forms share a line")
    for quad in combinations(sels, 4):
        if _det([mats[s] for s in quad]).is_zero():
            return GeneralPositionReport(False, quad, "four forms share a point")
    return GeneralPositionReport(True)


def intersection_point(a: Arrangement, f1: FormSelector, f2: FormSelector, f3: FormSelector) -> P3Point:
    """Exact common point of three independent forms."""
    sels = (f1, f2, f3)
    if len(set(sels)) != 3:
        raise DegenerateIntersectionError(sels)
    rows = [list(a.form(s).coeffs) for s in sels]
    coords = []
    sign = 1
    for k in range(4):
        minor = [[row[c] for c in range(4) if c != k] for row in rows]
        m = _det(minor)
        coords.append(m if sign > 0 else -m)
        sign = -sign
    if all(c.is_zero() for c in coords):
        raise DegenerateIntersectionError(sels)
    p = P3Point(coords)
    for s in sels:
        if not a.form(s).evaluate(p).is_zero():
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


def triangle_vertices(a: Arrangement, i: int, l: int, m: int, n: int):
    """Chart coordinates of the three pairwise intersections of the lines
    cut on the i-th L-plane by M_l, M_m, M_n.

    Returns [(x, y)] for the pairs (l,m), (l,n), (m,n) in that order; each
    vertex must lie in the Z != 0 chart.
    """
    if len({l, m, n}) != 3:
        raise DegenerateIntersectionError((("M", l), ("M", m), ("M", n)))
    out = []
    for p, q in [(l, m), (l, n), (m, n)]:
        pt = intersection_point(a, ("L", i), ("M", p), ("M", q))
        out.append(pt.chart_xy())
    return out


def sweep_vertices(a: Arrangement, i: int, l: int, m: int, n: int):
    """Triangle vertices reordered for the iterated period integral.

    Order [(l,n), (l,m), (m,n)]: the common inner-bound edge is the M_n
    line, running through the first and last vertices.
    """
    v_lm, v_ln, v_mn = triangle_vertices(a, i, l, m, n)
    return [v_ln, v_lm, v_mn]
