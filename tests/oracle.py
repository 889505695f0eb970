"""The generic routes that the package's closed forms are tested against.

Exact elimination over Q, for the rank witnesses: the package states
every rank through a witness checked in closed form and never
eliminates; this module is the independent route.  It runs a
fraction-free elimination on sparse integer rows: each row is scaled to
integers once and reduced by its gcd after every pivot step, so no
intermediate Fractions are produced.  Its outputs follow the package's
scalar rule (``int`` unless genuinely rational), and the tests check it
against sympy's ``Matrix.rank`` and ``nullspace``.

A class of ``degeneration`` as a dense vector over the canonical columns
(:func:`dense`), for the dense products and eliminations above.

Adaptive quadrature of Log(x_u / x_l) dy / y per leg, for the membrane
integral that the package takes in closed form (:func:`log_membrane`).

The monodromy logarithm N of the limiting frame (:func:`monodromy`), for
the nilpotent-orbit form of the frame conjugation.

The limit matrix by the complex full-vector path
(:func:`reference_independence_matrix`, :func:`reference_limit_of_pairing`):
each model's whole pairing vector through ``limits.imaginary_part``, the
eta column by ``limits.pair``, and every column complex in one joint
Neville tableau; the package samples its d-columns as real numbers.
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from hodge_degen.degeneration import canonical_generators, phi_columns
from hodge_degen.exactlin import QMatrix, QVector, _exact
from hodge_degen.limits import (
    DEFAULT_DK,
    T_SEQUENCE,
    _det,
    _extrapolate,
    eta,
    imaginary_part,
    limit_type,
    pair,
    singular_type,
)
from hodge_degen.periods import _membrane_legs
from hodge_degen.quadrature import adaptive_quad


def _ratio(n, d: int) -> int | Fraction:
    """The exact scalar n/d, for n an exact scalar and d a nonzero int: an
    int when d divides n, else a reduced Fraction."""
    if type(n) is int and n % d == 0:
        return n // d
    return _exact(Fraction(n, d))


def phi_matrix(d: int) -> QMatrix:
    """The component pairing phi as a dense d x coordinate_dim(d) matrix,
    built from the sparse columns of ``degeneration.phi_columns``."""
    cols = list(phi_columns(d).values())
    return QMatrix([[col.get(comp, 0) for col in cols] for comp in range(1, d + 1)])


def dense(d: int, x) -> QVector:
    """The class x, a tuple of (canonical generator, coefficient) pairs, as
    a dense vector in the column order of ``canonical_generators``."""
    column = {g: k for k, g in enumerate(canonical_generators(d))}
    v = [0] * len(column)
    for g, c in x:
        v[column[g]] = c
    return tuple(v)


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


def _back_substitute(pivots: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict]]:
    """Fully reduce the echelon rows (RREF), pivot entries normalized to 1."""
    reduced: list[tuple[int, dict]] = []
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


def in_span(vectors: Sequence[Sequence], v: Sequence) -> tuple[bool, QVector | None]:
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


def log_membrane(vertices, tol: float = 1e-12) -> complex:
    """The membrane integral over the checked legs of
    ``periods._membrane_legs``, each leg one adaptive quadrature of the
    principal Log(x_u / x_l) dy / y to within ``tol``."""
    total = 0j
    for pl, ql, pu, qu, y0, y1 in _membrane_legs(vertices):
        dy = y1 - y0

        def f(s, pl=pl, ql=ql, pu=pu, qu=qu, y0=y0, dy=dy):
            y = y0 + s * dy
            return cmath.log((pu + qu * y) / (pl + ql * y)) / y * dy

        total += adaptive_quad(f, 0.0, 1.0, tol)
    return total


def monodromy(v: tuple[complex, ...]) -> tuple[complex, ...]:
    """N on a frame vector of ``hodge_degen.limits``: e2 -> e1 -> e0 -> 0, d_i -> 0."""
    return (v[1], v[2]) + (0j,) * (len(v) - 2)


def pairing_vector(model, t: complex) -> tuple[complex, ...]:
    """Im R(t) for the limit type, Im(R_i(t)/log t) for the singular, as a
    whole complex frame vector."""
    kind, at = model
    v = at(t)
    if kind == "Ri":
        log_t = cmath.log(t)
        v = [x / log_t for x in v]
    return imaginary_part(v, t)


def _reference_samples(model, etas=None) -> list[tuple[complex, ...]]:
    """One complex row per t: the pairing with eta when ``etas`` holds eta
    at each t, then the d-coordinates of the pairing vector."""
    samples = []
    for k, t in enumerate(T_SEQUENCE):
        v = pairing_vector(model, t)
        samples.append(tuple(v[3:]) if etas is None else (pair(v, etas[k]), *v[3:]))
    return samples


def reference_limit_of_pairing(model, target):
    """``limits.limit_of_pairing`` for a target eta's ``at`` or a d-index in
    1..dk, by the complex full-vector path."""
    etas, col = ([target(t) for t in T_SEQUENCE], 0) if callable(target) else (None, target - 1)
    return _extrapolate(model[0], [(row[col],) for row in _reference_samples(model, etas)])[0]


def reference_independence_matrix(L: float, seed: int | None = None, dk: int = DEFAULT_DK):
    """``limits.independence_matrix`` by the complex full-vector path, with
    the same models drawn in the same order."""
    rng = None if seed is None else random.Random(seed)
    eta_at = eta(dk, rng)
    models = [limit_type(L, dk, rng)] + [singular_type(i, dk, rng) for i in range(1, dk + 1)]
    etas = [eta_at(t) for t in T_SEQUENCE]
    entries = [_extrapolate(m[0], _reference_samples(m, etas)) for m in models]
    matrix = tuple(tuple(value for value, _ in row) for row in entries)
    max_residual = max(residuals[-1] for row in entries for _, residuals in row)
    return matrix, _det(matrix), max_residual
