"""Combinatorial model of the blown-up singular fiber.

The (-1,-1) part of H_2 of the degenerate fiber is presented by classes
l_i (general line in the i-th plane) and e^{ij}_l (exceptional curve over
the triple point of planes i, j and the form M_l), modulo one relation
l_j - l_i = sum_l e^{ij}_l per pair i < j.

Canonical coordinates eliminate e^{ij}_d through that relation, so the
coordinate space has dimension d + (d-1)*C(d,2).  One table per d lists
every generator with its column and its canonical rewrite; validation,
column order and :func:`reduce_raw` all read it.  The intersection map
``phi`` pairs a class against the d components; its kernel carries the
distinguished basis returned by :func:`hodge_kernel_basis`.

Every rank stated about these objects has a short exact witness, checked
in closed form: the relations by a signed identity block
(:func:`relation_block_holds`), phi by its zero row sum and d-1 unit
difference columns (:func:`phi_rank_holds`), and the kernel basis by
membership, the diagonal-block certificate and the dimension count
(:func:`spans_kernel`).  Coefficients are ``int`` unless a class is
genuinely rational.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .exactlin import QMatrix, QVector, _Frozen, _as_fraction, kernel_basis

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


def _exact(c) -> int | Fraction:
    """An exact coefficient: int when integral, else a Fraction.  Floats and
    other inexact values raise TypeError."""
    if type(c) is int:
        return c
    c = _as_fraction(c)
    return c.numerator if c.denominator == 1 else c


class H2Class(_Frozen):
    """A class in canonical coordinates: no e-generator with l = d appears.

    Integral coefficients are stored as ``int``, others as ``Fraction``.
    """

    __slots__ = ("d", "coords")
    d: int
    coords: tuple[tuple[Generator, int | Fraction], ...]

    def __init__(self, d: int, coords: Mapping[Generator, int | Fraction] | None = None):
        coords = coords or {}
        table = _table(d)
        for g in coords:
            if table.get(g, (None,))[0] is None:
                raise ValueError(f"not a canonical generator for d={d}: {g!r} (rewrite e^{{ij}}_d by reduce_raw)")
        self._store(d, coords.items())

    @classmethod
    def _sum(cls, d: int, terms) -> "H2Class":
        """sum of c * x over the (c, x) terms, each x a sequence of
        (canonical generator, coefficient) pairs that is already checked:
        the one accumulator behind every class built from others."""
        acc: dict[Generator, int | Fraction] = {}
        for c, x in terms:
            for g, v in x:
                acc[g] = acc.get(g, 0) + c * v
        new = object.__new__(cls)
        new._store(d, acc.items())
        return new

    def _store(self, d: int, items) -> None:
        """Keep the nonzero exact coefficients, in column order."""
        table = _table(d)
        kept = sorted(((g, e) for g, c in items if (e := _exact(c))), key=lambda t: table[t[0]][0])
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coords", tuple(kept))

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "H2Class") -> "H2Class":
        if self.d != other.d:
            raise ValueError("mixed d")
        return H2Class._sum(self.d, ((1, self.coords), (1, other.coords)))

    def __sub__(self, other: "H2Class") -> "H2Class":
        return self + other.scale(-1)

    def scale(self, f: int | Fraction) -> "H2Class":
        return H2Class._sum(self.d, ((_exact(f), self.coords),))

    def vector(self) -> QVector:
        table = _table(self.d)
        v = [0] * coordinate_dim(self.d)
        for g, c in self.coords:
            v[table[g][0]] = c
        return tuple(v)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "coords": [{"gen": _gen_label(g), "val": str(c)} for g, c in self.coords]}

    def __repr__(self):
        if not self.coords:
            return "H2Class(0)"
        parts = [f"{c}*{_gen_label(g)}" for g, c in self.coords]
        return "H2Class(" + " + ".join(parts) + ")"


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
    (:func:`relation_block_holds`).
    """
    _require_d(d)
    table = _table(d)
    relations = [{**dict(rewrite), g: -1} for g, (col, rewrite) in table.items() if col is None]
    return list(table), relations, len(table) - len(relations)


def relation_block_holds(d: int, gens: Sequence[Generator], relations: Sequence[Mapping]) -> bool:
    """Witness that the relations are independent, so that their rank is
    their number.

    With the pairs i < j in lex order, relation k must read -1 at the k-th
    column e^{ij}_d and 0 at every other relation's e^{ij}_d column: those
    columns of the relation matrix then form minus an identity block.
    """
    block = [("e", i, j, d) for i, j in combinations(range(1, d + 1), 2)]
    return (
        len(block) == len(relations)
        and set(block) <= set(gens)
        and all(
            rel.get(g, 0) == (-1 if k == m else 0)
            for k, rel in enumerate(relations)
            for m, g in enumerate(block)
        )
    )


def reduce_raw(d: int, raw: Mapping[Generator, int | Fraction]) -> H2Class:
    """Rewrite a raw coefficient map into canonical form.

    Each generator is replaced by its rewrite in the generator table:
    e^{ij}_d by l_j - l_i - sum_{l<d} e^{ij}_l, the others by themselves.
    Linear and idempotent.
    """
    _require_d(d)
    table = _table(d)
    try:
        terms = [(_exact(c), table[g][1]) for g, c in raw.items()]
    except KeyError as e:
        raise ValueError(f"not a presentation generator for d={d}: {e.args[0]!r}") from None
    return H2Class._sum(d, terms)


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


def phi_matrix(d: int) -> QMatrix:
    """phi as a dense d x coordinate_dim(d) matrix (see :func:`phi_columns`),
    for elimination cross checks.  Built once per d; immutable and shared."""
    _require_d(d)
    return _phi_matrix(d)


@lru_cache(maxsize=None)
def _phi_matrix(d: int) -> QMatrix:
    cols = list(_phi_columns(d).values())
    return QMatrix([[col.get(comp, 0) for col in cols] for comp in range(1, d + 1)])


def phi_rank_holds(d: int, columns: Mapping[Generator, Mapping[int, int]]) -> bool:
    """Witness that phi has rank d - 1.

    Every column is supported on the components 1..d and sums to zero, so
    the rows of phi sum to zero and the rank is at most d - 1; the columns
    of e^{id}_1 (i < d) are the independent differences e_i - e_d, so it
    is at least d - 1.
    """
    comps = set(range(1, d + 1))
    return all(col.keys() <= comps and sum(col.values()) == 0 for col in columns.values()) and all(
        columns.get(("e", i, d, 1)) == {i: 1, d: -1} for i in range(1, d)
    )


def in_kernel(x: H2Class) -> bool:
    """phi x = 0, by the sparse product of x's coordinates with phi's columns."""
    cols = _phi_columns(x.d)
    acc: dict[int, int | Fraction] = {}
    for g, c in x.coords:
        for comp, v in cols[g].items():
            acc[comp] = acc.get(comp, 0) + c * v
    return not any(acc.values())


def kernel_dim(d: int) -> int:
    return 1 + (d - 1) * (d * (d - 1) // 2)


def hodge_kernel_basis(d: int) -> tuple[H2Class, ...]:
    """The distinguished kernel basis: sum_i l_i, then for each pair i < j
    and 1 <= l <= d-1 the class sum_{l'}(e^{ij}_l - e^{ij}_{l'}).

    In canonical coordinates the pair classes read d*e^{ij}_l - l_j + l_i.
    Built once per d and not checked here: the reports that rely on it
    check it with :func:`spans_kernel`.
    """
    _require_d(d)
    return _kernel_basis(d)


@lru_cache(maxsize=None)
def _kernel_basis(d: int) -> tuple[H2Class, ...]:
    total = H2Class(d, {("l", i): 1 for i in range(1, d + 1)})
    pairs = [
        H2Class(d, {("e", i, j, l): d, ("l", j): -1, ("l", i): 1})
        for i, j in combinations(range(1, d + 1), 2)
        for l in range(1, d)
    ]
    return (total, *pairs)


def spans_kernel(d: int, basis: Sequence[H2Class]) -> bool:
    """Witness that ``basis`` is a basis of ker(phi).

    phi has rank d - 1 (:func:`phi_rank_holds`), so ker(phi) has dimension
    cols - (d - 1); the basis has that many elements, each lies in
    ker(phi) (:func:`in_kernel`), and they are linearly independent
    (:func:`independence_certificate`).
    """
    cols = phi_columns(d)
    return (
        phi_rank_holds(d, cols)
        and len(basis) == len(cols) - (d - 1)
        and all(in_kernel(b) for b in basis)
        and independence_certificate(d, basis)
    )


def independence_certificate(d: int, basis: Sequence[H2Class]) -> bool:
    """Exact proof that a candidate kernel basis is linearly independent.

    The certificate holds when basis[0] is a nonzero class without
    e-coordinates and, for the k-th exceptional generator e^{ij}_l in
    canonical order, basis[k] is the only element with a nonzero
    e^{ij}_l coordinate.  Then the e-columns of the stacked vectors form
    a diagonal block under a zero row, so in any vanishing combination
    every pair coefficient is 0, and then so is the total-line one.
    """
    exc = canonical_generators(d)[d:]
    if len(basis) != 1 + len(exc):
        return False
    total = basis[0]
    if total.is_zero() or any(g[0] == "e" for g, _ in total.coords):
        return False
    owners: dict[Generator, list[int]] = {}
    for k, b in enumerate(basis):
        for g, _ in b.coords:
            if g[0] == "e":
                owners.setdefault(g, []).append(k)
    return all(owners.get(g) == [k] for k, g in enumerate(exc, start=1))


def kernel_of_phi(d: int) -> list[QVector]:
    """Kernel of phi computed by elimination, for cross checks."""
    return kernel_basis(phi_matrix(d))
