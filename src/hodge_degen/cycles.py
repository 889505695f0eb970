"""Higher cycles supported on the base-locus lines and their invariants.

Three families live here, indexed combinatorially:

* ``gamma(i<j<k; l)``: three terms on the lines (L_a, M_l), a in {i,j,k},
  each carrying the ratio of the next two L-forms under the cyclic
  permutation (i j k).
* ``lambda(i; l)``: the line (L_i, M_l) paired with the pencil parameter.
* ``delta(i; l<m<n)``: the L/M-swapped analogue of gamma.

The singularity invariant at the degenerate fiber is derived from the
local blow-up rules: on the line (L_a, M_l) the equation L_b = 0 cuts the
exceptional class e^{ab}_l plus a vertical line marker when a < b, and
only the marker when a > b.  Markers must cancel exactly across a cycle;
their failure to cancel falsifies the construction and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, Mapping

from . import degeneration
from .degeneration import H2Class, reduce_raw
from .exactlin import QMatrix, in_span, rank

FormSel = tuple[str, int]


class MarkerCancellationError(RuntimeError):
    """Vertical line markers failed to cancel in a boundary computation."""


@dataclass(frozen=True)
class Precycle:
    """(rational function, line) pair.

    ``support`` is (a, b): the line cut by the a-th L-form and b-th M-form.
    ``func_zero`` / ``func_pole`` select the numerator and denominator
    forms; both are None for the pencil-parameter function of lambda.
    """

    support: tuple[int, int]
    func_zero: FormSel | None
    func_pole: FormSel | None
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class HigherCycle:
    kind: Literal["gamma", "lambda", "delta"]
    indices: tuple[int, ...]
    terms: tuple[Precycle, ...]

    def to_json_dict(self):
        return {"kind": self.kind, "indices": list(self.indices)}


@dataclass(frozen=True)
class DivisorOnLines:
    """Formal Q-combination of triple points; exact cancellation decidable.

    Point symbols: ("p", i, j, l) for the node of L_i, L_j, M_l (i < j) and
    ("q", i, l, m) for L_i with M_l, M_m (l < m).
    """

    points: tuple[tuple[tuple, Fraction], ...]

    def __init__(self, points: Mapping[tuple, Fraction] | None = None):
        items = sorted((k, Fraction(v)) for k, v in (points or {}).items() if v != 0)
        object.__setattr__(self, "points", tuple(items))

    def is_zero(self) -> bool:
        return not self.points


def _ordered_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def build_cycle(kind: str, indices: tuple[int, ...]) -> HigherCycle:
    """Assemble a cycle of the given kind from strictly ordered indices.

    gamma: indices (i, j, k, l) with i < j < k; delta: (i, l, m, n) with
    l < m < n; lambda: (i, l).
    """
    if kind == "gamma":
        i, j, k, l = indices
        if not i < j < k:
            raise ValueError(f"gamma needs i < j < k, got {indices}")
        if min(i, l) < 1:
            raise ValueError(f"indices must be >= 1: {indices}")
        cyc = {i: j, j: k, k: i}
        terms = [
            Precycle((a, l), ("L", cyc[a]), ("L", cyc[cyc[a]]))
            for a in (i, j, k)
        ]
        return HigherCycle("gamma", tuple(indices), tuple(terms))
    if kind == "delta":
        i, l, m, n = indices
        if not l < m < n:
            raise ValueError(f"delta needs l < m < n, got {indices}")
        if min(i, l) < 1:
            raise ValueError(f"indices must be >= 1: {indices}")
        cyc = {l: m, m: n, n: l}
        terms = [
            Precycle((i, b), ("M", cyc[b]), ("M", cyc[cyc[b]]))
            for b in (l, m, n)
        ]
        return HigherCycle("delta", tuple(indices), tuple(terms))
    if kind == "lambda":
        i, l = indices
        if min(i, l) < 1:
            raise ValueError(f"indices must be >= 1: {indices}")
        return HigherCycle("lambda", tuple(indices), (Precycle((i, l), None, None),))
    raise ValueError(f"unknown cycle kind {kind!r}")


def _term_boundary_points(t: Precycle):
    """Zero and pole point symbols of one ratio term."""
    a, b = t.support
    out = []
    for sel, sign in ((t.func_zero, 1), (t.func_pole, -1)):
        kind, idx = sel
        if kind == "L":
            i, j = _ordered_pair(a, idx)
            out.append((("p", i, j, b), sign))
        else:
            l, m = _ordered_pair(b, idx)
            out.append((("q", a, l, m), sign))
    return out


def boundary_divisor(c: HigherCycle) -> DivisorOnLines:
    """Formal sum of zeros minus poles over all terms; lambda terms use the
    pencil parameter, invertible away from the degenerate fibers, so they
    contribute nothing."""
    acc: dict[tuple, Fraction] = {}
    for t in c.terms:
        if t.func_zero is None:
            continue
        for sym, sign in _term_boundary_points(t):
            acc[sym] = acc.get(sym, Fraction(0)) + sign * t.weight
    return DivisorOnLines(acc)


def singularity_at_zero(c: HigherCycle, d: int) -> H2Class:
    """Class of the cycle's residue on the degenerate fiber, canonical form.

    Ratio terms follow the blow-up rules (exceptional class + marker for
    ascending index pairs, marker only for descending); the pencil-
    parameter terms of lambda contribute the full degeneration of their
    line: the strict transform l_i - sum_{a<i} e^{ai}_l plus the
    exceptional curves e^{ia}_l for a > i.  Markers must cancel exactly.
    """
    for idx in c.indices:
        if not 1 <= idx <= d:
            raise ValueError(f"index {idx} out of range for d={d}")
    raw: dict[tuple, Fraction] = {}
    markers: dict[tuple, Fraction] = {}

    def add_raw(g, w):
        raw[g] = raw.get(g, Fraction(0)) + w

    for t in c.terms:
        if t.func_zero is None:
            i, l = t.support
            add_raw(("l", i), t.weight)
            for a in range(1, i):
                add_raw(("e", a, i, l), -t.weight)
            for a in range(i + 1, d + 1):
                add_raw(("e", i, a, l), t.weight)
            continue
        a, l = t.support
        for sel, sign in ((t.func_zero, 1), (t.func_pole, -1)):
            kind, b = sel
            w = sign * t.weight
            if kind == "L":
                lo, hi = _ordered_pair(a, b)
                if a < b:
                    add_raw(("e", lo, hi, l), w)
                markers[("p", lo, hi, l)] = markers.get(("p", lo, hi, l), Fraction(0)) + w
            else:
                # M-form zero/pole on an (L, M) line: a smooth point of the
                # degenerate fiber, marker only.
                lo, hi = _ordered_pair(l, b)
                markers[("q", a, lo, hi)] = markers.get(("q", a, lo, hi), Fraction(0)) + w

    leftover = {k: v for k, v in markers.items() if v != 0}
    if leftover:
        raise MarkerCancellationError(f"markers do not cancel: {leftover}")
    return reduce_raw(d, raw)


def _swap_cycle(c: HigherCycle) -> HigherCycle:
    """Relabel L <-> M, mapping each kind to its mirror."""
    if c.kind == "gamma":
        i, j, k, l = c.indices
        return build_cycle("delta", (l, i, j, k))
    if c.kind == "delta":
        i, l, m, n = c.indices
        return build_cycle("gamma", (l, m, n, i))
    i, l = c.indices
    return build_cycle("lambda", (l, i))


def singularity_at_infinity(c: HigherCycle, d: int) -> H2Class:
    """Residue class at the opposite degenerate fiber.

    Obtained by the relabeling symmetry: swap the roles of the two form
    families and compute at zero.  The returned class lives in the swapped
    model, whose generators index the M-planes.  This literal relabeling
    is a convention, not a derivation.
    """
    return singularity_at_zero(_swap_cycle(c), d)


def pair_kernel_class(d: int, i: int, j: int, l: int) -> H2Class:
    """sum_{l'} (e^{ij}_l - e^{ij}_{l'}) in canonical form, any 1 <= l <= d."""
    raw: dict[tuple, Fraction] = {("e", i, j, l): Fraction(d)}
    for lp in range(1, d + 1):
        raw[("e", i, j, lp)] = raw.get(("e", i, j, lp), Fraction(0)) - 1
    return reduce_raw(d, raw)


@dataclass(frozen=True)
class SpanExpression:
    in_span: bool
    coeffs: tuple[Fraction, ...] | None
    residual: H2Class


def express_in_B(x: H2Class, d: int) -> SpanExpression:
    """Exact coordinates of x over the distinguished kernel basis.

    Basis order matches hodge_kernel_basis: the total-line class first,
    then the pair classes by (i, j) lex and 1 <= l <= d-1.  On the kernel
    the coordinates have a closed form, since only the pair class (i,j,l)
    carries e^{ij}_l (with coefficient d) and every pair class with j = d
    puts -1 on l_d:

        c_{ijl} = x[e^{ij}_l] / d,   c_total = x[l_d] + sum_{i<d, l<d} c_{idl};

    the combination is then checked against x exactly.  When x lies off
    the kernel, the returned residual is the canonical off-kernel part:
    the unique combination of l_1..l_{d-1} with the same image under the
    component pairing, and coeffs is None.
    """
    basis = degeneration.hodge_kernel_basis(d)
    phi = degeneration.phi_matrix(d)
    obstruction = phi.mul_vector(x.vector())
    if any(v != 0 for v in obstruction):
        unit_cols = []
        for i in range(1, d):
            cls = H2Class(d, {("l", i): Fraction(1)})
            unit_cols.append(phi.mul_vector(cls.vector()))
        ok, coeffs = in_span(unit_cols, obstruction)
        if not ok:
            raise AssertionError("component pairing image not spanned by line classes")
        residual = H2Class(d, {("l", i + 1): c for i, c in enumerate(coeffs) if c != 0})
        return SpanExpression(False, None, residual)
    zero = Fraction(0)
    cx = dict(x.coords)
    pair = {
        (i, j, l): cx.get(("e", i, j, l), zero) / d
        for i, j in combinations(range(1, d + 1), 2)
        for l in range(1, d)
    }
    total = cx.get(("l", d), zero) + sum((pair[i, d, l] for i in range(1, d) for l in range(1, d)), zero)
    coeffs = (total, *pair.values())
    acc: dict[tuple, Fraction] = {}
    for c, b in zip(coeffs, basis):
        if c:
            for g, v in b.coords:
                acc[g] = acc.get(g, zero) + c * v
    if H2Class(d, acc) != x:
        raise AssertionError("kernel class not expressible in the kernel basis")
    return SpanExpression(True, coeffs, H2Class(d, {}))


def family_cycles(d: int, family: str) -> list[HigherCycle]:
    """All cycles of the selected family: gamma, lambda, delta, or both
    (= gamma + lambda, the families with singularities at zero)."""
    out: list[HigherCycle] = []
    if family in ("gamma", "both"):
        if d < 3:
            raise ValueError("gamma cycles need d >= 3")
        for i, j, k in combinations(range(1, d + 1), 3):
            for l in range(1, d + 1):
                out.append(build_cycle("gamma", (i, j, k, l)))
    if family in ("lambda", "both"):
        for i in range(1, d + 1):
            for l in range(1, d + 1):
                out.append(build_cycle("lambda", (i, l)))
    if family == "delta":
        for i in range(1, d + 1):
            for l, m, n in combinations(range(1, d + 1), 3):
                out.append(build_cycle("delta", (i, l, m, n)))
    if not out:
        raise ValueError(f"unknown family {family!r}")
    return out


@dataclass(frozen=True)
class SpanRankResult:
    d: int
    family: str
    rank: int
    expected: int
    spanning: bool
    combination_verified: bool


def span_rank(d: int, family: str = "both") -> SpanRankResult:
    """Rank of the singularity classes of a family against the kernel dim.

    For family "both" this also replays the explicit spanning combination:
    for every pair i < j and every l,

        sing0( lambda_il - lambda_jl
               + sum_{k<i} gamma_{kij,l}
               - sum_{i<k<j} gamma_{ikj,l}
               + sum_{j<k} gamma_{ijk,l} )
          = sum_{l'} (e^{ij}_l - e^{ij}_{l'}).

    (The source derivation carries a global sign slip in this display;
    the signs above are the ones its own intersection numbers force.)
    """
    cycles = family_cycles(d, family)
    classes = [singularity_at_zero(c, d) for c in cycles]
    nonzero = [cl.vector() for cl in classes if not cl.is_zero()]
    sing = {(c.kind, c.indices): cl for c, cl in zip(cycles, classes)}
    rk = rank(QMatrix(nonzero)) if nonzero else 0
    expected = degeneration.kernel_dim(d)
    verified = True
    if family == "both":
        for i, j in combinations(range(1, d + 1), 2):
            for l in range(1, d + 1):
                acc = sing["lambda", (i, l)] - sing["lambda", (j, l)]
                for k in range(1, i):
                    acc = acc + sing["gamma", (k, i, j, l)]
                for k in range(i + 1, j):
                    acc = acc - sing["gamma", (i, k, j, l)]
                for k in range(j + 1, d + 1):
                    acc = acc + sing["gamma", (i, j, k, l)]
                if acc != pair_kernel_class(d, i, j, l):
                    verified = False
    return SpanRankResult(d, family, rk, expected, rk == expected, verified)


@dataclass(frozen=True)
class ThreefoldBoundary:
    """Formal combination of exceptional lines in the threefold fiber.

    Each symbol records the blow-up center: the pair of plane indices the
    line sits over and the index of the third form through the node.
    ``side`` is "L" when the pair indexes L-planes (gamma descent) and "M"
    for the mirrored delta descent.
    """

    side: Literal["L", "M"]
    lines: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def coefficient_sum(self) -> Fraction:
        return sum((c for _, c in self.lines), Fraction(0))


def threefold_boundary(i: int, j: int, k: int, l: int, side: str = "L") -> ThreefoldBoundary:
    """Boundary 1-cycle of the threefold precycle over the triple (i,j,k)
    and cross index l: the exceptional line over (i,j) plus the one over
    (j,k) minus the one over (i,k)."""
    if not i < j < k:
        raise ValueError(f"need i < j < k, got {(i, j, k)}")
    if side not in ("L", "M"):
        raise ValueError(f"side must be 'L' or 'M', got {side!r}")
    lines = (
        ((i, j, l), Fraction(1)),
        ((j, k, l), Fraction(1)),
        ((i, k, l), Fraction(-1)),
    )
    return ThreefoldBoundary(side, lines)
