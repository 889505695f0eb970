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

from itertools import combinations

from . import degeneration
from .degeneration import Generator, _combine, in_kernel, independence_certificate, reduce_raw
from .exactlin import _exact

class MarkerCancellationError(RuntimeError):
    """Vertical line markers failed to cancel in a boundary computation."""


# a cycle is its key (kind, indices): ("gamma", (i, j, k, l)) with i < j < k,
# ("delta", (i, l, m, n)) with l < m < n, or ("lambda", (i, l))
CycleKey = tuple


def _ordered_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def build_cycle(kind: str, indices: tuple[int, ...]) -> CycleKey:
    """The key of a cycle of the given kind, its indices checked.

    gamma: indices (i, j, k, l) with i < j < k; delta: (i, l, m, n) with
    l < m < n; lambda: (i, l).  Every index is an int: a bool or a float
    raises TypeError, since it would pass for the int it equals.
    """
    if not all(type(x) is int for x in indices):
        raise TypeError(f"indices must be ints, got {indices}")
    if kind == "gamma":
        i, j, k, l = indices
        if not i < j < k:
            raise ValueError(f"gamma needs i < j < k, got {indices}")
    elif kind == "delta":
        i, l, m, n = indices
        if not l < m < n:
            raise ValueError(f"delta needs l < m < n, got {indices}")
    elif kind == "lambda":
        i, l = indices
    else:
        raise ValueError(f"unknown cycle kind {kind!r}")
    if min(i, l) < 1:
        raise ValueError(f"indices must be >= 1: {indices}")
    return kind, tuple(indices)


def _terms(key: CycleKey) -> tuple:
    """The terms ((a, l), zero, pole) of a cycle: the line cut by the a-th
    L-form and the l-th M-form, with the forms ("L" or "M", index) of the
    numerator and denominator of the rational function on it.  Both forms
    are None for the pencil-parameter function of lambda.

    gamma(i<j<k; l) puts on each line (L_a, M_l), a in {i,j,k}, the ratio
    of the next two L-forms under the cyclic permutation (i j k); delta is
    the L/M-swapped analogue.
    """
    kind, idx = key
    if kind == "lambda":
        return ((idx, None, None),)
    if kind == "gamma":
        i, j, k, l = idx
        return tuple(((a, l), ("L", b), ("L", c)) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    i, l, m, n = idx
    return tuple(((i, a), ("M", b), ("M", c)) for a, b, c in ((l, m, n), (m, n, l), (n, l, m)))


def singularity_at_zero(d: int, c: CycleKey) -> tuple:
    """Class of the cycle's residue on the degenerate fiber, canonical form.

    Ratio terms follow the blow-up rules (exceptional class + marker for
    ascending index pairs, marker only for descending); the pencil-
    parameter terms of lambda contribute the full degeneration of their
    line: the strict transform l_i - sum_{a<i} e^{ai}_l plus the
    exceptional curves e^{ia}_l for a > i.  Markers must cancel exactly.
    The key is read through :func:`build_cycle`, and an index above d fails.
    """
    c = build_cycle(*c)
    for idx in c[1]:
        if idx > d:
            raise ValueError(f"index {idx} out of range for d={d}")
    raw: dict[tuple, int] = {}
    markers: dict[tuple, int] = {}

    def add_raw(g, w):
        raw[g] = raw.get(g, 0) + w

    for support, zero, pole in _terms(c):
        if zero is None:
            i, l = support
            add_raw(("l", i), 1)
            for a in range(1, i):
                add_raw(("e", a, i, l), -1)
            for a in range(i + 1, d + 1):
                add_raw(("e", i, a, l), 1)
            continue
        a, l = support
        for (kind, b), w in ((zero, 1), (pole, -1)):
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


def express_in_B(d: int, x: tuple) -> tuple[int | Fraction, ...] | None:
    """The coordinates of d*x over the distinguished kernel basis, or None
    when x lies off the kernel or the basis does not reassemble d*x.  The
    coordinates of x itself are these over d; scaled by d, they are ints
    for every integral class, so no report builds a ``Fraction``.
    x may list its (generator, coefficient) pairs in any order, a generator
    more than once: each pair is read through :func:`degeneration.reduce_raw`,
    whose ValueError names an unknown generator, and the pairs are summed.

    Basis order matches hodge_kernel_basis: the total-line class first,
    then the pair classes by (i, j) lex and 1 <= l <= d-1.  On the kernel
    the coordinates have a closed form, since only the pair class (i,j,l)
    carries e^{ij}_l (with coefficient d) and every pair class with j = d
    puts -1 on l_d:

        d*c_{ijl} = x[e^{ij}_l],   d*c_total = d*x[l_d] + sum_{i<d, l<d} x[e^{id}_l];

    the combination is then checked against d*x exactly, so a basis that
    disagrees with the closed form, or has another length, gives None, not
    wrong coordinates.  A rational x gives coordinates under the same
    scalar rule: ints where integral.
    Kernel membership is the sparse product of :func:`degeneration.in_kernel`.
    """
    basis = degeneration.hodge_kernel_basis(d)
    x = _combine(d, ((c, reduce_raw(d, {g: 1})) for g, c in x))
    if not in_kernel(d, x):
        return None
    cx = dict(x)
    pair = {
        (i, j, l): cx.get(("e", i, j, l), 0) for i, j in combinations(range(1, d + 1), 2) for l in range(1, d)
    }
    total = d * cx.get(("l", d), 0) + sum(pair[i, d, l] for i in range(1, d) for l in range(1, d))
    coeffs = (_exact(total), *pair.values())
    scaled = _combine(d, [(d, x)])
    if len(coeffs) != len(basis) or _combine(d, ((c, b) for c, b in zip(coeffs, basis) if c)) != scaled:
        return None
    return coeffs


def family_cycles(d: int, family: str) -> list[CycleKey]:
    """All cycles of the selected family: gamma, lambda, delta, or both
    (= gamma + lambda, the families with singularities at zero)."""
    out: list[CycleKey] = []
    if family in ("gamma", "both"):
        if d < 3:
            raise ValueError("gamma cycles need d >= 3")
        out += [("gamma", (*t, l)) for t in combinations(range(1, d + 1), 3) for l in range(1, d + 1)]
    if family in ("lambda", "both"):
        out += [("lambda", (i, l)) for i in range(1, d + 1) for l in range(1, d + 1)]
    if family == "delta":
        if d < 3:
            raise ValueError("delta cycles need d >= 3")
        out += [("delta", (i, *t)) for i in range(1, d + 1) for t in combinations(range(1, d + 1), 3)]
    if not out:
        raise ValueError(f"unknown family {family!r}")
    return out


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


# the key of the total class T = sum_i l_i in the lambda spanning set
TOTAL: CycleKey = ("total", ())


def cocycle_combination(i: int, j: int, k: int, l: int) -> list[tuple[int, CycleKey]]:
    """gamma(i,j,k; l), for 1 < i, as gamma(1,j,k; l) - gamma(1,i,k; l) +
    gamma(1,i,j; l): the coboundary of the triangle ijk is the alternating
    sum of the coboundaries of the triangles that join vertex 1 to its
    edges."""
    return [(1, ("gamma", (1, j, k, l))), (-1, ("gamma", (1, i, k, l))), (1, ("gamma", (1, i, j, l)))]


def spanning_set(d: int, family: str) -> tuple[list[tuple[CycleKey, Generator]], tuple | None]:
    """The spanning set S of a single family's witness: its cycles, each
    with the generator its class owns, and the total class T when S holds
    it.

    gamma: gamma(1,j,k; l) for 1 < j < k and l < d, owning e^{jk}_l.
    lambda: lambda(i; l) for i, l < d, owning e^{id}_l, and
    T = sum_i l_i, which has no e-coordinate.
    """
    if family == "gamma":
        pairs = combinations(range(2, d + 1), 2)
        return [(("gamma", (1, j, k, l)), ("e", j, k, l)) for j, k in pairs for l in range(1, d)], None
    owners = [(("lambda", (i, l)), ("e", i, d, l)) for i in range(1, d) for l in range(1, d)]
    return owners, reduce_raw(d, {("l", i): 1 for i in range(1, d + 1)})


def membership_replays(d: int, family: str) -> list[tuple[CycleKey, list[tuple[int, CycleKey]]]]:
    """Each cycle of a single family outside S, with a combination of S
    and of the cycles listed before it whose class is the cycle's class.

    gamma: gamma(i,j,k; l) for 1 < i and l < d by
    :func:`cocycle_combination`, then each gamma(i,j,k; d) as minus the
    sum over l < d.  lambda: every column sum of the d x d array
    lambda(i; l) is T, so lambda(d; l) = T - sum_{i<d} lambda(i; l) for
    l < d; every row sum is T, so lambda(i; d) = T - sum_{l<d} lambda(i; l)
    for every i.  The last column sum follows from the others.
    """
    if family == "gamma":
        triples = list(combinations(range(1, d + 1), 3))
        inner = [
            (("gamma", (i, j, k, l)), cocycle_combination(i, j, k, l))
            for i, j, k in triples
            if i > 1
            for l in range(1, d)
        ]
        return inner + [(("gamma", (*t, d)), [(-1, ("gamma", (*t, l))) for l in range(1, d)]) for t in triples]
    columns = [((d, l), [(-1, ("lambda", (i, l))) for i in range(1, d)]) for l in range(1, d)]
    rows = [((i, d), [(-1, ("lambda", (i, l))) for l in range(1, d)]) for i in range(1, d + 1)]
    return [(("lambda", idx), [(1, TOTAL), *combination]) for idx, combination in columns + rows]


def _label(key: CycleKey) -> str:
    """gamma(1,2,3;4), lambda(1;2), delta(1;2,3,4), pair(1,2;3), total(3):
    a cycle or a replay as its report names it."""
    kind, idx = key
    cut = 1 if kind == "delta" else len(idx) - 1
    return f"{kind}({';'.join(','.join(map(str, part)) for part in (idx[:cut], idx[cut:]) if part)})"


def _replay_failure(d: int, sing: dict[CycleKey, tuple], known, replays) -> str | None:
    """The first replay (key, combination, target) whose combination reads
    a key outside ``known`` and the keys replayed before it, or does not
    sum to ``target`` exactly; else the first key of ``sing`` that no
    replay reaches; else None.  A replayed key stands for its target."""
    classes = {key: sing[key] for key in known}
    for key, combination, target in replays:
        try:
            held = _combine(d, ((c, classes[k]) for c, k in combination)) == target
        except KeyError:  # the combination reads a key neither known nor replayed
            held = False
        if not held:
            return f"replay {_label(key)}"
        classes[key] = target
    return next((f"no replay of {_label(key)}" for key in sing if key not in classes), None)


def _kernel_replays(d: int, basis):
    """The replays of the both-families witness: :func:`pair_combination`
    against the pair class B_(i,j,l), for each pair i < j in lex order and
    l = 1..d, then lambda(1;l) + ... + lambda(d;l) against the total class
    B_0.  The pair classes of one pair sum to zero over l, since each is
    sum_{l'} (e^{ij}_l - e^{ij}_{l'}); so the target at l = d is
    -(B_(i,j,1) + ... + B_(i,j,d-1))."""
    pairs = iter(basis[1:])
    for i, j in combinations(range(1, d + 1), 2):
        targets = [next(pairs) for _ in range(1, d)]
        targets.append(_combine(d, ((-1, b) for b in targets)))
        yield from ((("pair", (i, j, l)), pair_combination(d, i, j, l), t) for l, t in enumerate(targets, 1))
    for l in range(1, d + 1):
        yield ("total", (l,)), [(1, ("lambda", (i, l))) for i in range(1, d + 1)], basis[0]


def span_rank(d: int, family: str = "both") -> tuple:
    """Rank of the singularity classes of a family, proved by a witness,
    against the family's own rank in closed form, as ``(rank, expected,
    failed, witness, witness_size, residues)``.

    The closed forms: "both" spans the kernel.  gamma: for fixed l < d the
    class of gamma(i<j<k; l) is the coboundary e^{ij}_l + e^{jk}_l - e^{ik}_l
    of the triangle ijk of the complete graph K_d, and triangle coboundaries
    span C(d,2) - (d-1) = C(d-1,2) dimensions; the classes with l = d are
    minus the sum over l < d, so the rank is (d-1) C(d-1,2).  lambda: every
    row and column sum of the d x d array lambda(i; l) is sum_i l_i, and
    these 2(d-1) relations are all, so the rank is d^2 - 2(d-1) =
    (d-1)^2 + 1.  delta: every class is zero.

    Each family has one witness, and no rank is computed any other way.
    For "both":

    * the kernel basis B is a basis of ker(phi)
      (:func:`degeneration.kernel_basis_failure`);
    * the replays of :func:`_kernel_replays` give every pair class
      B_(i,j,l) and the total class B_0 from the classes, so B lies in
      the span;
    * every class lies in ker(phi) (sparse product), so the span of the
      classes lies in ker(phi).

    The span is then ker(phi) and the rank is |B|.  For gamma and lambda
    the rank is |S|, S the :func:`spanning_set`: S lies in the span of
    the family (T is a column sum), :func:`membership_replays` puts every
    class of the family in the span of S (a replay reads only S and the
    classes replayed before it), and
    :func:`degeneration.independence_certificate` proves S independent.
    For delta the witness is "all classes zero" and the rank is 0.

    One loop, :func:`_replay_failure`, checks every replay.  When a clause
    fails, ``rank`` is None and ``failed`` names the first: a clause of
    the kernel basis, a replay, a class no replay reaches, "membership",
    "diagonal certificate" or a nonzero delta class.  ``witness_size``
    counts the replays (the classes, for delta).  ``residues`` hands the
    (cycle key, class) pairs on, so a report need not build them again.
    """
    residues = tuple((c, singularity_at_zero(d, c)) for c in family_cycles(d, family))
    sing = dict(residues)
    expected = {
        "both": degeneration.kernel_dim(d),
        "gamma": (d - 1) * ((d - 1) * (d - 2) // 2),
        "lambda": (d - 1) ** 2 + 1,
        "delta": 0,
    }[family]
    if family == "both":
        basis = degeneration.hodge_kernel_basis(d)
        if (failed := degeneration.kernel_basis_failure(d, basis)) is not None:
            failed = f"kernel basis {failed}"
        elif (failed := _replay_failure(d, sing, sing, _kernel_replays(d, basis))) is None:
            failed = None if all(in_kernel(d, cl) for cl in sing.values()) else "membership"
        rk, kind, size = len(basis), "replay + membership + diagonal certificate", d * (d * (d - 1) // 2) + d
    elif family == "delta":
        failed = next((f"nonzero class {_label(key)}" for key, cl in sing.items() if cl), None)
        rk, kind, size = 0, "all classes zero", len(residues)
    else:
        owners, total = spanning_set(d, family)
        replays = membership_replays(d, family)
        if total is not None:
            sing[TOTAL] = total
        known = [key for key, _ in owners] + [TOTAL] * (total is not None)
        failed = _replay_failure(d, sing, known, [(key, combination, sing[key]) for key, combination in replays])
        if failed is None and not independence_certificate([sing[k] for k, _ in owners], [g for _, g in owners], total):
            failed = "diagonal certificate"
        kind = {"gamma": "cocycle replay", "lambda": "row and column sums"}[family] + " + diagonal certificate"
        rk, size = len(owners) + (total is not None), len(replays)
    if failed is not None:
        rk = None
    return rk, expected, failed, kind, size, residues


def threefold_boundary(i: int, j: int, k: int, l: int, side: str = "L") -> tuple:
    """Boundary 1-cycle of the threefold precycle over the triple (i,j,k)
    and cross index l: the exceptional line over (i,j) plus the one over
    (j,k) minus the one over (i,k), as the pair ``(side, lines)``.

    ``side`` is "L" when the pairs index L-planes (gamma descent) and "M"
    for the mirrored delta descent.  ``lines`` holds ((a, b, l),
    coefficient) terms: the pair of plane indices the line sits over and
    the index of the third form through the node.  Every index is an int,
    as in :func:`build_cycle`.
    """
    if not all(type(x) is int for x in (i, j, k, l)):
        raise TypeError(f"indices must be ints, got {(i, j, k, l)}")
    if not i < j < k:
        raise ValueError(f"need i < j < k, got {(i, j, k)}")
    if min(i, l) < 1:
        raise ValueError(f"indices must be >= 1: {(i, j, k, l)}")
    if side not in ("L", "M"):
        raise ValueError(f"side must be 'L' or 'M', got {side!r}")
    return side, (((i, j, l), 1), ((j, k, l), 1), ((i, k, l), -1))
