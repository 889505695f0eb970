"""Combinatorial model of the blown-up singular fiber.

The (-1,-1) part of H_2 of the degenerate fiber is presented by classes
l_i (general line in the i-th plane) and e^{ij}_l (exceptional curve over
the triple point of planes i, j and the form M_l), modulo one relation
l_j - l_i = sum_l e^{ij}_l per pair i < j.

Canonical coordinates eliminate e^{ij}_d through that relation, so the
coordinate space has dimension d + (d-1)*C(d,2).  The intersection map
``phi`` pairs a class against the d components; its kernel carries the
distinguished basis returned by :func:`hodge_kernel_basis`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .exactlin import QMatrix, QVector, kernel_basis, rank

# Generator labels: ("l", i) or ("e", i, j, l) with 1 <= i < j <= d, 1 <= l <= d.
Generator = tuple


def _check_gen(g: Generator, d: int) -> None:
    if g[0] == "l":
        if not 1 <= g[1] <= d:
            raise ValueError(f"line index out of range: {g}")
    elif g[0] == "e":
        _, i, j, l = g
        if not (1 <= i < j <= d and 1 <= l <= d):
            raise ValueError(f"exceptional index out of range: {g}")
    else:
        raise ValueError(f"unknown generator {g!r}")


def canonical_generators(d: int) -> list[Generator]:
    """Column order: l_1..l_d, then e^{ij}_l by (i,j) lex with l < d."""
    gens: list[Generator] = [("l", i) for i in range(1, d + 1)]
    for i, j in combinations(range(1, d + 1), 2):
        for l in range(1, d):
            gens.append(("e", i, j, l))
    return gens


@lru_cache(maxsize=None)
def _index(d: int) -> dict[Generator, int]:
    """Position of each canonical generator, built once per d; shared, so
    never mutate it."""
    return {g: k for k, g in enumerate(canonical_generators(d))}


def coordinate_dim(d: int) -> int:
    return d + (d - 1) * (d * (d - 1) // 2)


@dataclass(frozen=True)
class H2Class:
    """A class in canonical coordinates: no e-generator with l = d appears."""

    d: int
    coords: tuple[tuple[Generator, Fraction], ...]

    def __init__(self, d: int, coords: Mapping[Generator, Fraction] | None = None):
        items = []
        for g, c in (coords or {}).items():
            _check_gen(g, d)
            if g[0] == "e" and g[3] == d:
                raise ValueError("canonical form must not reference l = d; use reduce_raw")
            c = Fraction(c)
            if c != 0:
                items.append((g, c))
        items.sort(key=lambda t: _gen_sort_key(t[0]))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coords", tuple(items))

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "H2Class") -> "H2Class":
        if self.d != other.d:
            raise ValueError("mixed d")
        acc = {g: c for g, c in self.coords}
        for g, c in other.coords:
            acc[g] = acc.get(g, Fraction(0)) + c
        return H2Class(self.d, acc)

    def __sub__(self, other: "H2Class") -> "H2Class":
        return self + other.scale(Fraction(-1))

    def scale(self, f: Fraction) -> "H2Class":
        return H2Class(self.d, {g: c * Fraction(f) for g, c in self.coords})

    def vector(self) -> QVector:
        idx = _index(self.d)
        v = [Fraction(0)] * coordinate_dim(self.d)
        for g, c in self.coords:
            v[idx[g]] = c
        return tuple(v)

    def to_json(self) -> str:
        rows = [{"gen": _gen_label(g), "val": str(c)} for g, c in self.coords]
        return json.dumps({"d": self.d, "coords": rows})

    def __repr__(self):
        if not self.coords:
            return "H2Class(0)"
        parts = [f"{c}*{_gen_label(g)}" for g, c in self.coords]
        return "H2Class(" + " + ".join(parts) + ")"


def _gen_sort_key(g: Generator):
    return (0, g[1], 0, 0) if g[0] == "l" else (1, g[1], g[2], g[3])


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
    l_j - l_i - sum_l e^{ij}_l, and dim = d + d*C(d,2) - C(d,2).
    """
    _require_d(d)
    gens = canonical_generators(d) + [("e", i, j, d) for i, j in combinations(range(1, d + 1), 2)]
    relations = []
    for i, j in combinations(range(1, d + 1), 2):
        rel: dict[Generator, Fraction] = {
            ("l", j): Fraction(1),
            ("l", i): Fraction(-1),
        }
        for l in range(1, d + 1):
            rel[("e", i, j, l)] = Fraction(-1)
        relations.append(rel)
    pairs = d * (d - 1) // 2
    dim = d + d * pairs - pairs
    return gens, relations, dim


def reduce_raw(d: int, raw: Mapping[Generator, Fraction]) -> H2Class:
    """Rewrite a raw coefficient map into canonical form.

    e^{ij}_d is replaced by l_j - l_i - sum_{l<d} e^{ij}_l.  Linear and
    idempotent.
    """
    _require_d(d)
    acc: dict[Generator, Fraction] = {}

    def add(g, c):
        acc[g] = acc.get(g, Fraction(0)) + c

    for g, c in raw.items():
        _check_gen(g, d)
        c = Fraction(c)
        if g[0] == "e" and g[3] == d:
            _, i, j, _ = g
            add(("l", j), c)
            add(("l", i), -c)
            for l in range(1, d):
                add(("e", i, j, l), -c)
        else:
            add(g, c)
    return H2Class(d, acc)


def phi_matrix(d: int) -> QMatrix:
    """Intersection pairing against the d components, canonical columns.

    Column of l_i: 1 at every row except -(d-1) at row i.  Column of
    e^{ij}_l (l < d): +1 at row i, -1 at row j.  Columns for e^{ij}_d are
    already rewritten away by the canonical coordinates; phi kills each
    relation, so the matrix is well defined on the quotient.  Built once
    per d; the returned matrix is immutable and shared.
    """
    _require_d(d)
    return _phi_matrix(d)


@lru_cache(maxsize=None)
def _phi_matrix(d: int) -> QMatrix:
    gens = canonical_generators(d)
    rows = []
    for comp in range(1, d + 1):
        row = []
        for g in gens:
            if g[0] == "l":
                row.append(Fraction(-(d - 1)) if g[1] == comp else Fraction(1))
            else:
                _, i, j, _ = g
                row.append(Fraction(1) if comp == i else Fraction(-1) if comp == j else Fraction(0))
        rows.append(row)
    return QMatrix(rows)


def kernel_dim(d: int) -> int:
    return 1 + (d - 1) * (d * (d - 1) // 2)


def hodge_kernel_basis(d: int) -> tuple[H2Class, ...]:
    """The distinguished kernel basis: sum_i l_i, then for each pair i < j
    and 1 <= l <= d-1 the class sum_{l'}(e^{ij}_l - e^{ij}_{l'}).

    In canonical coordinates the pair classes read d*e^{ij}_l - l_j + l_i.
    The basis is built and verified once per d: membership in ker(phi),
    linear independence (see :func:`independence_certificate`) and the
    dimension count cols - rank(phi); failure of any of these is a hard
    internal error.
    """
    _require_d(d)
    return _verified_kernel_basis(d)


@lru_cache(maxsize=None)
def _verified_kernel_basis(d: int) -> tuple[H2Class, ...]:
    total = H2Class(d, {("l", i): Fraction(1) for i in range(1, d + 1)})
    pairs = [
        H2Class(d, {("e", i, j, l): Fraction(d), ("l", j): Fraction(-1), ("l", i): Fraction(1)})
        for i, j in combinations(range(1, d + 1), 2)
        for l in range(1, d)
    ]
    basis = (total, *pairs)

    phi = phi_matrix(d)
    for b in basis:
        if any(x != 0 for x in phi.mul_vector(b.vector())):
            raise AssertionError("kernel basis element not annihilated by phi")
    expected = kernel_dim(d)
    if len(basis) != expected:
        raise AssertionError("kernel basis has wrong cardinality")
    if not independence_certificate(d, basis):
        raise AssertionError("kernel basis is linearly dependent")
    if phi.cols - rank(phi) != expected:
        raise AssertionError("kernel dimension mismatch against phi")
    return basis


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
