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

from fractions import Fraction
from itertools import combinations

from . import degeneration
from .degeneration import H2Class, in_kernel, reduce_raw
from .exactlin import QMatrix, _Frozen, rank

FormSel = tuple[str, int]


class MarkerCancellationError(RuntimeError):
    """Vertical line markers failed to cancel in a boundary computation."""


class Precycle(_Frozen):
    """(rational function, line) pair.

    ``support`` is (a, b): the line cut by the a-th L-form and b-th M-form.
    ``func_zero`` / ``func_pole`` select the numerator and denominator
    forms; both are None for the pencil-parameter function of lambda.
    """

    __slots__ = ("support", "func_zero", "func_pole")
    support: tuple[int, int]
    func_zero: FormSel | None
    func_pole: FormSel | None

    def __init__(self, support: tuple[int, int], func_zero: FormSel | None, func_pole: FormSel | None):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "func_zero", func_zero)
        object.__setattr__(self, "func_pole", func_pole)


class HigherCycle(_Frozen):
    __slots__ = ("kind", "indices", "terms")
    kind: str  # "gamma", "lambda" or "delta"
    indices: tuple[int, ...]
    terms: tuple[Precycle, ...]

    def __init__(self, kind: str, indices: tuple[int, ...], terms: tuple[Precycle, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "terms", terms)

    def to_json_dict(self):
        return {"kind": self.kind, "indices": list(self.indices)}


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
    raw: dict[tuple, int] = {}
    markers: dict[tuple, int] = {}

    def add_raw(g, w):
        raw[g] = raw.get(g, 0) + w

    for t in c.terms:
        if t.func_zero is None:
            i, l = t.support
            add_raw(("l", i), 1)
            for a in range(1, i):
                add_raw(("e", a, i, l), -1)
            for a in range(i + 1, d + 1):
                add_raw(("e", i, a, l), 1)
            continue
        a, l = t.support
        for (kind, b), w in ((t.func_zero, 1), (t.func_pole, -1)):
            if kind == "L":
                lo, hi = _ordered_pair(a, b)
                if a < b:
                    add_raw(("e", lo, hi, l), w)
                markers[("p", lo, hi, l)] = markers.get(("p", lo, hi, l), 0) + w
            else:
                # M-form zero/pole on an (L, M) line: a smooth point of the
                # degenerate fiber, marker only.
                lo, hi = _ordered_pair(l, b)
                markers[("q", a, lo, hi)] = markers.get(("q", a, lo, hi), 0) + w

    leftover = {k: v for k, v in markers.items() if v != 0}
    if leftover:
        raise MarkerCancellationError(f"markers do not cancel: {leftover}")
    return reduce_raw(d, raw)


def pair_kernel_class(d: int, i: int, j: int, l: int) -> H2Class:
    """sum_{l'} (e^{ij}_l - e^{ij}_{l'}) in canonical form, any 1 <= l <= d."""
    raw = {("e", i, j, l): d}
    for lp in range(1, d + 1):
        raw[("e", i, j, lp)] = raw.get(("e", i, j, lp), 0) - 1
    return reduce_raw(d, raw)


def express_in_B(x: H2Class, d: int) -> tuple[Fraction, ...] | None:
    """Exact coordinates of x over the distinguished kernel basis, or None
    when x lies off the kernel or the basis does not reassemble it.

    Basis order matches hodge_kernel_basis: the total-line class first,
    then the pair classes by (i, j) lex and 1 <= l <= d-1.  On the kernel
    the coordinates have a closed form, since only the pair class (i,j,l)
    carries e^{ij}_l (with coefficient d) and every pair class with j = d
    puts -1 on l_d:

        c_{ijl} = x[e^{ij}_l] / d,   c_total = x[l_d] + sum_{i<d, l<d} c_{idl};

    the combination is then checked against x exactly, so a basis that
    disagrees with the closed form gives None, not wrong coordinates.
    Kernel membership is the sparse product of :func:`degeneration.in_kernel`.
    """
    basis = degeneration.hodge_kernel_basis(d)
    if not in_kernel(x):
        return None
    cx = dict(x.coords)
    pair = {
        (i, j, l): Fraction(cx.get(("e", i, j, l), 0), d)
        for i, j in combinations(range(1, d + 1), 2)
        for l in range(1, d)
    }
    total = cx.get(("l", d), 0) + sum(pair[i, d, l] for i in range(1, d) for l in range(1, d))
    coeffs = (Fraction(total), *pair.values())
    if H2Class._sum(d, ((c, b.coords) for c, b in zip(coeffs, basis) if c)) != x:
        return None
    return coeffs


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
        if d < 3:
            raise ValueError("delta cycles need d >= 3")
        for i in range(1, d + 1):
            for l, m, n in combinations(range(1, d + 1), 3):
                out.append(build_cycle("delta", (i, l, m, n)))
    if not out:
        raise ValueError(f"unknown family {family!r}")
    return out


CycleKey = tuple  # (kind, indices), as in HigherCycle


def pair_combination(d: int, i: int, j: int, l: int) -> list[tuple[int, CycleKey]]:
    """The cycle combination whose residue is the pair class
    sum_{l'} (e^{ij}_l - e^{ij}_{l'}), as (coefficient, cycle) terms:

        lambda_il - lambda_jl
          + sum_{k<i} gamma_{kij,l} - sum_{i<k<j} gamma_{ikj,l} + sum_{j<k} gamma_{ijk,l}.

    (The source derivation carries a global sign slip in this display;
    the signs above are the ones its own intersection numbers force.)
    """
    terms = [(1, ("lambda", (i, l))), (-1, ("lambda", (j, l)))]
    terms += [(1, ("gamma", (k, i, j, l))) for k in range(1, i)]
    terms += [(-1, ("gamma", (i, k, j, l))) for k in range(i + 1, j)]
    terms += [(1, ("gamma", (i, j, k, l))) for k in range(j + 1, d + 1)]
    return terms


def total_combination(d: int, l: int) -> list[tuple[int, CycleKey]]:
    """lambda_1l + ... + lambda_dl, whose residue is the total class sum_i l_i
    (every column sum of the lambda array is that class)."""
    return [(1, ("lambda", (i, l))) for i in range(1, d + 1)]


def replay(sing: dict[CycleKey, H2Class], combination, target: H2Class) -> bool:
    """The combination of residue classes equals target, exactly."""
    return H2Class._sum(target.d, ((c, sing[key].coords) for c, key in combination)) == target


class SpanRankResult(_Frozen):
    __slots__ = ("rank", "expected", "spanning", "combination_verified", "witness", "witness_size", "residues")
    rank: int
    expected: int
    spanning: bool
    combination_verified: bool
    witness: str
    witness_size: int
    # (cycle, residue class) in family_cycles order, for reports to reuse
    residues: tuple[tuple[HigherCycle, H2Class], ...]


def span_rank(d: int, family: str = "both") -> SpanRankResult:
    """Rank of the singularity classes of a family, against the family's
    own rank in closed form (``expected``); ``spanning`` says whether the
    classes span the kernel, i.e. whether the rank is the kernel dim.

    The closed forms: "both" spans the kernel.  gamma: for fixed l < d the
    class of gamma(i<j<k; l) is the coboundary e^{ij}_l + e^{jk}_l - e^{ik}_l
    of the triangle ijk of the complete graph K_d, and triangle coboundaries
    span C(d,2) - (d-1) = C(d-1,2) dimensions; the classes with l = d are
    minus the sum over l < d, so the rank is (d-1) C(d-1,2).  lambda: every
    row and column sum of the d x d array lambda(i; l) is sum_i l_i, and
    these 2(d-1) relations are all, so the rank is d^2 - 2(d-1) =
    (d-1)^2 + 1.  delta: every class is zero.

    For family "both" the rank is proved by a witness, with no elimination:

    * the kernel basis B is a basis of ker(phi)
      (:func:`degeneration.spans_kernel`);
    * every class lies in ker(phi) (sparse product), so the span of the
      classes lies in ker(phi);
    * replaying :func:`pair_combination` gives the pair class B_(i,j,l) for
      every l < d (and the pair class for l = d), and replaying
      :func:`total_combination` gives the total class B_0, so B lies in
      the span.

    The span is then ker(phi) and the rank is |B|.

    When every class is zero (the delta family), the rank is 0 with the
    witness "all classes zero", of size the number of classes.  Otherwise,
    when any part of the witness fails, and for a single family, the rank
    comes from exact elimination over the nonzero classes; only that branch
    builds dense vectors.  ``combination_verified`` records the pair
    replays alone.  ``residues`` hands the (cycle, class) pairs on, so a
    report need not build them again.
    """
    residues = tuple((c, singularity_at_zero(c, d)) for c in family_cycles(d, family))
    classes = [cl for _, cl in residues]
    kdim = degeneration.kernel_dim(d)
    expected = {
        "both": kdim,
        "gamma": (d - 1) * ((d - 1) * (d - 2) // 2),
        "lambda": (d - 1) ** 2 + 1,
        "delta": 0,
    }[family]
    verified = True
    witness = False
    if family == "both":
        sing = {(c.kind, c.indices): cl for c, cl in residues}
        basis = degeneration.hodge_kernel_basis(d)
        k = 0
        for i, j in combinations(range(1, d + 1), 2):
            for l in range(1, d + 1):
                if l < d:
                    k += 1
                    target = basis[k]
                else:
                    target = pair_kernel_class(d, i, j, l)
                verified = replay(sing, pair_combination(d, i, j, l), target) and verified
        witness = (
            verified
            and all(replay(sing, total_combination(d, l), basis[0]) for l in range(1, d + 1))
            and all(in_kernel(cl) for cl in classes)
            and degeneration.spans_kernel(d, basis)
        )
    if witness:
        rk, kind, size = len(basis), "replay + membership + diagonal certificate", d * (d * (d - 1) // 2) + d
    elif all(cl.is_zero() for cl in classes):
        rk, kind, size = 0, "all classes zero", len(classes)
    else:
        nonzero = [cl.vector() for cl in classes if not cl.is_zero()]
        rk, kind, size = rank(QMatrix(nonzero)), "elimination", len(nonzero) * degeneration.coordinate_dim(d)
    return SpanRankResult(rk, expected, rk == kdim, verified, kind, size, residues)


class ThreefoldBoundary(_Frozen):
    """Formal combination of exceptional lines in the threefold fiber.

    Each symbol records the blow-up center: the pair of plane indices the
    line sits over and the index of the third form through the node.
    ``side`` is "L" when the pair indexes L-planes (gamma descent) and "M"
    for the mirrored delta descent.
    """

    __slots__ = ("side", "lines")
    side: str  # "L" or "M"
    lines: tuple[tuple[tuple[int, int, int], Fraction], ...]


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
