"""Exact scalars over Q.

One rule decides what an exact rational is, for the whole package
(:func:`_exact`): an ``int`` when the value is integral, else a reduced
stdlib ``fractions.Fraction``.  A ``bool`` is taken as an ``int``; a
float, a string or any other inexact value raises TypeError.  Every
store follows it (``QMatrix`` entries, the coefficients of a class in
``degeneration``), so ``Fraction`` appears only for a genuinely rational
value that a caller passes in, and the ``fractions`` module is imported
only then.  No report path builds a ``Fraction``: every class the CLI
reads has int coefficients, the kernel coordinates of
``cycles.express_in_B`` are scaled by d to stay ints, and no job loads
``fractions`` or ``decimal``.  An element a + b*mu of Z[mu], mu a primitive
6th root of unity, is the pair (a, b); its arithmetic lives in
``arrangement``.  An element of Q(mu) that only needs embedding, such as
a chart point of ``arrangement.chart_xy``, stays a Z[mu] numerator over
a positive int n, and :func:`cyclo_embed` maps the quotient into the
complex plane with int true division, so it creates no ``Fraction``.

The package computes no rank by elimination: every rank it states has a
witness that is checked in closed form, and a witness that fails fails
its report check.  The fraction-free elimination that cross-checks the
witnesses is a test oracle, ``tests/oracle.py``, built on
:class:`QMatrix`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import sqrt

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


def cyclo_embed(x: tuple[int, int], n: int = 1) -> complex:
    """Numerical embedding of (a + b*mu) / n, for the pair x = (a, b) of
    ints and a positive int n, sending mu to 0.5 + (sqrt(3)/2) i.  Each of
    a / n and b / n is int true division, which is correctly rounded: the
    float of the exact quotient, as ``float(Fraction(a, n))`` gives it."""
    a, b = x[0] / n, x[1] / n
    return complex(a + 0.5 * b, _SQRT3_2 * b)


class QMatrix:
    """Dense matrix of exact scalars."""

    __slots__ = ("entries",)
    entries: tuple[QVector, ...]

    def __init__(self, rows: Iterable[Iterable]):
        ent = tuple(tuple(map(_exact, row)) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        self.entries = ent

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
