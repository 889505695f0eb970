"""Combinatorial model of the blown-up singular fiber.

The (-1,-1) part of H_2 of the degenerate fiber is presented by classes
l_i (general line in the i-th plane) and e^{ij}_l (exceptional curve over
the triple point of planes i, j and the form M_l), modulo one relation
l_j - l_i = sum_l e^{ij}_l per pair i < j.

Canonical coordinates eliminate e^{ij}_d through that relation, so the
coordinate space has dimension d + (d-1)*C(d,2).  One table per d lists
every generator with its column and its canonical rewrite; validation,
column order and :func:`reduce_raw` all read it.  A class is the tuple
of its (canonical generator, coefficient) pairs, the coefficients
nonzero, in column order: equal classes are equal tuples, and the
zero class is ().  :func:`reduce_raw` builds and checks one from any
coefficient map.  The intersection map ``phi`` pairs a class against
the d components; its kernel carries the distinguished basis returned
by :func:`hodge_kernel_basis`.

Every rank stated about these objects has a short exact witness, checked
in closed form: the relations by a signed identity block
(:func:`relation_block_failure`), phi by its zero row sum and d-1 unit
difference columns (:func:`phi_rank_failure`), and the kernel basis by
membership, the diagonal-block certificate and the dimension count
(:func:`kernel_basis_failure`).  The diagonal-block certificate
(:func:`independence_failure`) derives the generator each class owns,
so its witness is the classes alone.  No rank is computed any other
way: each ``*_failure`` function names the clause of its witness that
fails, or returns None.
Coefficients follow the one scalar rule of :mod:`exactlin`: ``int``
unless a class is genuinely rational, which only a caller can pass in.
No report path builds a ``Fraction``: every class here and in ``cycles``
has int coefficients.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter

from .exactlin import Exact, _exact

# Generator labels: ("l", i) or ("e", i, j, l) with 1 <= i < j <= d, 1 <= l <= d.
Generator = tuple


def canonical_generators(d: int) -> list[Generator]:
    """Column order: l_1..l_d, then e^{ij}_l by (i,j) lex with l < d."""
    return list(_table(d))[: coordinate_dim(d)]


@lru_cache(maxsize=None)
def _table(d: int) -> dict[Generator, tuple[int | None, tuple[tuple[Generator, int], ...]]]:
    """Every presentation generator -> (column, canonical rewrite).

    The canonical generators come first, in column order, each rewriting
    to itself; then each e^{ij}_d, with no column, rewriting to
    l_j - l_i - sum_{l<d} e^{ij}_l.  This table is the only validator of
    generators.  Built once per d; shared, so never mutate it.
    """
    pairs = list(combinations(range(1, d + 1), 2))
    gens = [("l", i) for i in range(1, d + 1)] + [("e", i, j, l) for i, j in pairs for l in range(1, d)]
    table = {g: (k, ((g, 1),)) for k, g in enumerate(gens)}
    for i, j in pairs:
        rewrite = ((("l", j), 1), (("l", i), -1), *((("e", i, j, l), -1) for l in range(1, d)))
        table["e", i, j, d] = (None, rewrite)
    return table


def coordinate_dim(d: int) -> int:
    return d + (d - 1) * (d * (d - 1) // 2)


def _combine(d: int, terms) -> tuple:
    """The class sum of c * x over the (c, x) terms, each x a class or a
    checked rewrite: its nonzero exact coefficients, in column order.
    The one accumulator behind every class built from others."""
    acc: dict[Generator, Exact] = {}
    for c, x in terms:
        for g, v in x:
            acc[g] = acc.get(g, 0) + c * v
    table = _table(d)
    return tuple(sorted(((g, e) for g, c in acc.items() if (e := _exact(c))), key=lambda t: table[t[0]][0]))


def class_json(d: int, x: tuple) -> dict:
    """The report form of the class x: d and its coordinates, each as
    generator label and exact value."""
    return {"d": d, "coords": [{"gen": _gen_label(g), "val": str(c)} for g, c in x]}


def _gen_label(g: Generator) -> str:
    if g[0] == "l":
        return f"l_{g[1]}"
    return f"e_{g[1]}_{g[2]}_{g[3]}"


def _require_d(d: int) -> None:
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")


def presentation(d: int):
    """Generators, relations and the dimension of the presented space.

    Returns (generators, relations, dim) where generators lists every l_i
    and e^{ij}_l (all l up to d: the canonical generators, then each
    e^{ij}_d), each relation is the coefficient map of
    l_j - l_i - sum_l e^{ij}_l (the rewrite of e^{ij}_d in the generator
    table, minus e^{ij}_d itself), and dim = #generators - #relations, which
    is the dimension once the relations are independent
    (:func:`relation_block_failure`).
    """
    _require_d(d)
    table = _table(d)
    relations = [{**dict(rewrite), g: -1} for g, (col, rewrite) in table.items() if col is None]
    return list(table), relations, len(table) - len(relations)


def relation_block_failure(d: int, gens: Sequence[Generator], relations: Sequence[Mapping]) -> str | None:
    """The failed clause of the witness that the relations are independent,
    so that their rank is their number, or None when it holds.

    "block": with the pairs i < j in lex order, relation k must read -1 at
    the k-th column e^{ij}_d and 0 at every other relation's e^{ij}_d
    column: those columns of the relation matrix then form minus an
    identity block.
    """
    block = [("e", i, j, d) for i, j in combinations(range(1, d + 1), 2)]
    if (
        len(block) == len(relations)
        and set(block) <= set(gens)
        and all(
            rel.get(g, 0) == (-1 if k == m else 0)
            for k, rel in enumerate(relations)
            for m, g in enumerate(block)
        )
    ):
        return None
    return "block"


def reduce_raw(d: int, raw: Mapping[Generator, Exact]) -> tuple:
    """Rewrite a raw coefficient map into canonical form.

    Each generator is replaced by its rewrite in the generator table:
    e^{ij}_d by l_j - l_i - sum_{l<d} e^{ij}_l, the others by themselves.
    Linear and idempotent.  The one builder that checks its input: an
    unknown generator raises ValueError, an inexact coefficient TypeError.
    """
    _require_d(d)
    table = _table(d)
    try:
        terms = [(_exact(c), table[g][1]) for g, c in raw.items()]
    except KeyError as e:
        raise ValueError(f"not a presentation generator for d={d}: {e.args[0]!r}") from None
    return _combine(d, terms)


def phi_columns(d: int) -> dict[Generator, dict[int, int]]:
    """Intersection pairing against the d components, as sparse columns
    {component: entry} in canonical generator order.

    Column of l_i: 1 at every component except -(d-1) at i.  Column of
    e^{ij}_l (l < d): +1 at i, -1 at j.  Columns for e^{ij}_d are already
    rewritten away by the canonical coordinates; phi kills each relation,
    so the map is well defined on the quotient.  Built once per d; shared,
    so never mutate it.
    """
    _require_d(d)
    return _phi_columns(d)


@lru_cache(maxsize=None)
def _phi_columns(d: int) -> dict[Generator, dict[int, int]]:
    cols = {}
    for g in canonical_generators(d):
        if g[0] == "l":
            cols[g] = {comp: -(d - 1) if comp == g[1] else 1 for comp in range(1, d + 1)}
        else:
            cols[g] = {g[1]: 1, g[2]: -1}
    return cols


def phi_rank_failure(d: int, columns: Mapping[Generator, Mapping[int, int]]) -> str | None:
    """The failed clause of the witness that phi has rank d - 1, or None
    when the witness holds.

    "row sums": every column is supported on the components 1..d and
    sums to zero, so the rows of phi sum to zero and the rank is at most
    d - 1.  "unit differences": the columns of e^{id}_1 (i < d) are the
    independent differences e_i - e_d, so it is at least d - 1.
    """
    comps = set(range(1, d + 1))
    if not all(col.keys() <= comps and sum(col.values()) == 0 for col in columns.values()):
        return "row sums"
    if not all(columns.get(("e", i, d, 1)) == {i: 1, d: -1} for i in range(1, d)):
        return "unit differences"
    return None


def in_kernel(d: int, x: tuple) -> bool:
    """phi x = 0, by the sparse product of x's coordinates with phi's
    columns.  A generator without a column (e^{ij}_d, say, which canonical
    form rewrites away) raises ValueError, naming it."""
    cols = _phi_columns(d)
    acc: dict[int, Exact] = {}
    try:
        for g, c in x:
            for comp, v in cols[g].items():
                acc[comp] = acc.get(comp, 0) + c * v
    except KeyError as e:
        raise ValueError(f"not a canonical generator for d={d}: {e.args[0]!r}") from None
    return not any(acc.values())


def kernel_dim(d: int) -> int:
    return 1 + (d - 1) * (d * (d - 1) // 2)


def hodge_kernel_basis(d: int) -> tuple[tuple, ...]:
    """The distinguished kernel basis: sum_i l_i, then for each pair i < j
    and 1 <= l <= d-1 the class sum_{l'}(e^{ij}_l - e^{ij}_{l'}).

    In canonical coordinates the pair classes read d*e^{ij}_l - l_j + l_i.
    Built once per d and not checked here: the reports that rely on it
    check it with :func:`kernel_basis_failure`.
    """
    _require_d(d)
    return _kernel_basis(d)


@lru_cache(maxsize=None)
def _kernel_basis(d: int) -> tuple[tuple, ...]:
    total = reduce_raw(d, {("l", i): 1 for i in range(1, d + 1)})
    pairs = [
        reduce_raw(d, {("e", i, j, l): d, ("l", j): -1, ("l", i): 1})
        for i, j in combinations(range(1, d + 1), 2)
        for l in range(1, d)
    ]
    return (total, *pairs)


def kernel_basis_failure(d: int, basis: Sequence[tuple]) -> str | None:
    """The failed clause of the witness that ``basis`` is a basis of
    ker(phi), or None when the witness holds.

    phi has rank d - 1 (:func:`phi_rank_failure`), so ker(phi) has
    dimension cols - (d - 1); "count": the basis has that many elements;
    "membership": each lies in ker(phi) (:func:`in_kernel`); "diagonal
    certificate": they are linearly independent, since each pair class
    owns a generator that no other element carries and basis[0] is a
    nonzero class (:func:`independence_failure`).
    """
    cols = phi_columns(d)
    if (failed := phi_rank_failure(d, cols)) is not None:
        return failed
    if len(basis) != len(cols) - (d - 1):
        return "count"
    if not all(in_kernel(d, b) for b in basis):
        return "membership"
    return independence_failure(basis[1:], basis[0])


def independence_failure(classes: Sequence[tuple], total: tuple | None = None) -> str | None:
    """The failed clause of the witness that the classes, and ``total``
    when given, are linearly independent, or None when it holds.

    "diagonal certificate": every class owns a generator, one that it
    carries (a class lists only its nonzero coordinates) and no other
    class, total included, carries; and the total is nonzero.  The owned
    coordinates of the stacked vectors then form a diagonal block, so in
    any vanishing combination every coefficient of a class is 0, and then
    that of the total too.  The owners are derived, not declared: one
    pass counts the carriers of each generator.
    """
    if total is not None and not total:
        return "diagonal certificate"
    carriers = Counter(map(itemgetter(0), chain(*classes, total or ())))
    shared = {g for g, n in carriers.items() if n > 1}
    for x in classes:
        for g, _ in x:
            if g not in shared:
                break  # x owns g
        else:
            return "diagonal certificate"
    return None
