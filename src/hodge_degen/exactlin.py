"""Exact scalars and exact linear algebra over Q.

Scalars are stdlib ``fractions.Fraction`` (always reduced, positive
denominator) and :class:`CycloNumber`, the quadratic extension Q(mu) with
mu a primitive 6th root of unity, presented by mu^2 = mu - 1; it divides
by multiplying with :meth:`CycloNumber.inverse`.  An exact input is an
``int``, a ``Fraction`` or a ``CycloNumber``; anything else, a float or a
string, raises TypeError.

Matrix routines (rank, kernel, span membership) run a fraction-free
elimination: rows are scaled to integers once and reduced by their gcd
after every pivot step, so no intermediate Fractions are produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, sqrt

QVector = tuple[Fraction, ...]

_SQRT3_2 = sqrt(3.0) / 2.0


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


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


class CycloNumber(_Frozen):
    """a + b*mu with mu = (1 + sqrt(3) i)/2, so mu^2 = mu - 1."""

    __slots__ = ("a", "b")
    a: Fraction
    b: Fraction

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    @classmethod
    def coerce(cls, x) -> "CycloNumber":
        if isinstance(x, CycloNumber):
            return x
        return cls(_as_fraction(x))

    def __add__(self, o):
        o = CycloNumber.coerce(o)
        return CycloNumber(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return CycloNumber(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-CycloNumber.coerce(o))

    def __mul__(self, o):
        o = CycloNumber.coerce(o)
        # (a + b mu)(c + d mu) with mu^2 = mu - 1
        a, b, c, d = self.a, self.b, o.a, o.b
        return CycloNumber(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation: mu -> 1 - mu."""
        return CycloNumber(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        """x * conj(x) = a^2 + a b + b^2, a nonnegative rational."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def inverse(self) -> "CycloNumber":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(mu)")
        c = self.conjugate()
        return CycloNumber(c.a / n, c.b / n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.b == 0:
            return f"Cyclo({self.a})"
        return f"Cyclo({self.a} + {self.b}*mu)"


MU = CycloNumber(0, 1)
CYCLO_ONE = CycloNumber(1, 0)


def cyclo_embed(x: CycloNumber) -> complex:
    """Numerical embedding sending mu to 0.5 + (sqrt(3)/2) i."""
    a = float(x.a)
    b = float(x.b)
    return complex(a + 0.5 * b, _SQRT3_2 * b)


class QMatrix(_Frozen):
    """Dense matrix of Fractions."""

    __slots__ = ("entries",)
    entries: tuple[QVector, ...]

    def __init__(self, rows: Iterable[Iterable]):
        ent = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", ent)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def mul_vector(self, v: Sequence[Fraction]) -> QVector:
        """m v, summing only over the nonzero coordinates of v."""
        if self.cols != len(v):
            raise ValueError("dimension mismatch")
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((row[j] * x for j, x in support), Fraction(0)) for row in self.entries)


def _int_rows(m: QMatrix) -> list[dict[int, int]]:
    """Rows as sparse {col: int}, each scaled by the lcm of its denominators."""
    out = []
    for row in m.entries:
        support = [(j, x) for j, x in enumerate(row) if x]
        scale = 1
        for _, x in support:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        out.append({j: int(x * scale) for j, x in support})
    return out


def _reduce_row(r: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in r.values():
        g = gcd(g, v)
    if g > 1:
        return {j: v // g for j, v in r.items()}
    return dict(r)


def _echelon(rows: list[dict[int, int]]) -> tuple[list[tuple[int, dict[int, int]]], list[int]]:
    """Fraction-free forward elimination on sparse integer rows.

    Returns (pivots, order) where pivots is a list of (pivot column, row)
    and order records pivot columns in elimination order.
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
    return pivots, [pc for pc, _ in pivots]


def rank(m: QMatrix) -> int:
    """Rank over Q by exact fraction-free elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    pivots, _ = _echelon(_int_rows(m))
    return len(pivots)


def _back_substitute(pivots: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, Fraction]]]:
    """Fully reduce the echelon rows (RREF), pivot entries normalized to 1."""
    reduced: list[tuple[int, dict[int, Fraction]]] = []
    for pc, row in reversed(pivots):
        r = {j: Fraction(v, row[pc]) for j, v in row.items()}
        for qc, qrow in reduced:
            f = r.get(qc)
            if f:
                for j, v in qrow.items():
                    r[j] = r.get(j, Fraction(0)) - f * v
                r = {j: v for j, v in r.items() if v != 0}
        reduced.append((pc, r))
    reduced.reverse()
    return reduced


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Exact basis of {v : m v = 0}; count equals cols - rank(m)."""
    n = m.cols
    if n == 0:
        return []
    pivots, pivot_cols = _echelon(_int_rows(m))
    reduced = _back_substitute(pivots)
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(n) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pc, row in reduced:
            v[pc] = -row.get(fc, Fraction(0))
        basis.append(tuple(v))
    return basis


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple[bool, QVector | None]:
    """Exact membership of v in span(vectors); returns coefficients when inside.

    All vectors must share one dimension.
    """
    vecs = [tuple(_as_fraction(x) for x in w) for w in vectors]
    target = tuple(_as_fraction(x) for x in v)
    if any(len(w) != len(target) for w in vecs):
        raise ValueError("dimension mismatch")
    if not target:
        return (True, tuple(Fraction(0) for _ in vecs))
    # v is in the span iff the last column of [vectors | v] is free; the
    # kernel vector of that column is then the last one and reads 1 there,
    # so v = sum_j -k_j w_j.  A pivot column reads 0 in every kernel vector.
    kernel = kernel_basis(QMatrix([*(w[i] for w in vecs), target[i]] for i in range(len(target))))
    if not kernel or not kernel[-1][-1]:
        return (False, None)
    return (True, tuple(-c for c in kernel[-1][:-1]))
