"""Exact scalars and exact linear algebra over Q.

One rule decides what an exact rational is, for the whole package
(:func:`_exact`): an ``int`` when the value is integral, else a reduced
stdlib ``fractions.Fraction``.  A ``bool`` is taken as an ``int``; a
float, a string or any other inexact value raises TypeError.  Every
store follows it (``QMatrix`` entries, ``degeneration.H2Class``
coefficients, the parts of ``arrangement.chart_xy``) and so does every
output of the routines below, so ``Fraction`` appears only for a
genuinely rational value; a quotient n/d is :func:`_ratio`.  The
``fractions`` module, too, is imported only once such a value occurs:
a job whose scalars all stay integral never loads it.  An element
a + b*mu of Q(mu), mu a primitive 6th root of unity, is the pair (a, b);
its arithmetic lives in ``arrangement``, and :func:`cyclo_embed` maps it
into the complex plane.

Matrix routines (rank, kernel, span membership) run a fraction-free
elimination: rows are scaled to integers once and reduced by their gcd
after every pivot step, so no intermediate Fractions are produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd, lcm, sqrt

QVector = tuple  # of exact scalars, each int | Fraction

_SQRT3_2 = sqrt(3.0) / 2.0


def _exact(x) -> int | Fraction:
    """x as an exact scalar: an int when integral, else a reduced Fraction.
    Floats, strings and other inexact values raise TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, int):  # bool
        return int(x)
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def _ratio(n, d: int) -> int | Fraction:
    """The exact scalar n/d, for n an exact scalar and d a nonzero int: an
    int when d divides n, else a reduced Fraction."""
    if type(n) is int and n % d == 0:
        return n // d
    from fractions import Fraction

    return _exact(Fraction(n, d))


class _Frozen:
    """Base of the immutable value classes.

    Equality, hash and repr run over the fields named in ``__slots__``;
    equality with any other class is NotImplemented.  Fields are written
    once, in ``__init__``, through ``object.__setattr__``; assigning or
    deleting one afterwards raises AttributeError.  The ``__init__`` here
    takes every field positionally, in ``__slots__`` order; a class that
    converts its input or has defaults writes its own, and so does one
    built in a hot loop, since writing the fields out costs about half.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")


def cyclo_embed(x: tuple[int | Fraction, int | Fraction]) -> complex:
    """Numerical embedding of a + b*mu, given as the pair (a, b) of exact
    scalars, sending mu to 0.5 + (sqrt(3)/2) i."""
    a, b = map(float, x)
    return complex(a + 0.5 * b, _SQRT3_2 * b)


class QMatrix(_Frozen):
    """Dense matrix of exact scalars."""

    __slots__ = ("entries",)
    entries: tuple[QVector, ...]

    def __init__(self, rows: Iterable[Iterable]):
        ent = tuple(tuple(map(_exact, row)) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", ent)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def mul_vector(self, v: Sequence[int | Fraction]) -> QVector:
        """m v, summing only over the nonzero coordinates of v."""
        if self.cols != len(v):
            raise ValueError("dimension mismatch")
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(_exact(sum(row[j] * x for j, x in support)) for row in self.entries)


def _int_rows(m: QMatrix) -> list[dict[int, int]]:
    """Rows as sparse {col: int}, each scaled by the lcm of its denominators."""
    out = []
    for row in m.entries:
        support = [(j, x) for j, x in enumerate(row) if x]
        scale = lcm(*(x.denominator for _, x in support))
        out.append({j: x.numerator * (scale // x.denominator) for j, x in support})
    return out


def _reduce_row(r: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in r.values():
        g = gcd(g, v)
    if g > 1:
        return {j: v // g for j, v in r.items()}
    return dict(r)


def _echelon(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free forward elimination on sparse integer rows.

    Returns the pivots as (pivot column, row), sorted by column.
    """
    pivots: list[tuple[int, dict[int, int]]] = []
    for r in rows:
        r = _reduce_row(r)
        for pc, prow in pivots:
            if pc in r:
                a, b = r[pc], prow[pc]
                g = gcd(a, b)
                ma, mb = b // g, a // g
                new = {}
                for j, v in r.items():
                    new[j] = v * ma
                for j, v in prow.items():
                    new[j] = new.get(j, 0) - v * mb
                r = _reduce_row({j: v for j, v in new.items() if v != 0})
        if r:
            pc = min(r)
            if r[pc] < 0:
                r = {j: -v for j, v in r.items()}
            pivots.append((pc, r))
    pivots.sort(key=lambda t: t[0])
    return pivots


def rank(m: QMatrix) -> int:
    """Rank over Q by exact fraction-free elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_echelon(_int_rows(m)))


def _back_substitute(pivots: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, int | Fraction]]]:
    """Fully reduce the echelon rows (RREF), pivot entries normalized to 1."""
    reduced: list[tuple[int, dict[int, int | Fraction]]] = []
    for pc, row in reversed(pivots):
        r = {j: _ratio(v, row[pc]) for j, v in row.items()}
        for qc, qrow in reduced:
            f = r.get(qc)
            if f:
                for j, v in qrow.items():
                    r[j] = r.get(j, 0) - f * v
                r = {j: v for j, v in r.items() if v != 0}
        reduced.append((pc, r))
    reduced.reverse()
    return reduced


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Exact basis of {v : m v = 0}; count equals cols - rank(m)."""
    n = m.cols
    if n == 0:
        return []
    reduced = _back_substitute(_echelon(_int_rows(m)))
    pivot_set = {pc for pc, _ in reduced}
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [0] * n
        v[fc] = 1
        for pc, row in reduced:
            v[pc] = -_exact(row.get(fc, 0))
        basis.append(tuple(v))
    return basis


def in_span(
    vectors: Sequence[Sequence[int | Fraction]], v: Sequence[int | Fraction]
) -> tuple[bool, QVector | None]:
    """Exact membership of v in span(vectors); returns coefficients when inside.

    All vectors must share one dimension.  The entries are normalised
    once, where the stacked matrix is built.
    """
    vecs = [tuple(w) for w in vectors]
    target = tuple(v)
    if any(len(w) != len(target) for w in vecs):
        raise ValueError("dimension mismatch")
    if not target:
        return (True, (0,) * len(vecs))
    # v is in the span iff the last column of [vectors | v] is free; the
    # kernel vector of that column is then the last one and reads 1 there,
    # so v = sum_j -k_j w_j.  A pivot column reads 0 in every kernel vector.
    kernel = kernel_basis(QMatrix([*(w[i] for w in vecs), target[i]] for i in range(len(target))))
    if not kernel or not kernel[-1][-1]:
        return (False, None)
    return (True, tuple(-c for c in kernel[-1][:-1]))
