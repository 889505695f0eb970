"""Limiting-frame pairings and the regulator independence matrix.

The frame is (e0, e1, e2, d_1..d_dk): a rank-3 nilpotent block polarized
by Q(e0,e2) = Q(e2,e0) = -1, Q(e1,e1) = 1, orthogonal to the d-classes,
on which Q is the identity.  The monodromy logarithm sends
e2 -> e1 -> e0 -> 0 and kills every d-class.  Frame vectors are plain
tuples of complex coordinates in that order, so dk is the length of a
vector less 3.

A holomorphic tail is the coefficient tuple of a low-degree polynomial
in t.  A normal-function model is the pair (kind, at): kind "R" for the
limit-type model R and "Ri" for a singular-type model R_i, and at(t) its
frame vector at t, all its tails evaluated in one Horner pass.  Models
are evaluated at small complex t, their imaginary parts paired against
the real frame vector eta and the d-classes, and the limits extrapolated
along a shrinking |t| sequence.  A d-class is real and Q is the identity
on the d-classes, so the pairing with d_j is the imaginary part of one
complex coordinate, a real number: those columns are sampled and
extrapolated as floats, and only the eta column is complex.
The (1 + dk) square matrix of limits is lower triangular up to
extrapolation error with -L in the corner, so its determinant witnesses
linear independence whenever the limit invariant L is nonzero.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Sequence

from .degeneration import kernel_dim


class ExtrapolationError(RuntimeError):
    """Extrapolation residuals failed to settle."""


# the d-classes of the default frame: one per kernel basis class at d = 4
DEFAULT_DK = kernel_dim(4)

FrameVector = tuple[complex, ...]


# the samples of every pairing limit: |t| = 1e-2 .. 1e-12 in
# decade-squared steps, at the fixed argument 0.3
T_SEQUENCE: tuple[complex, ...] = tuple(10.0 ** (-2 * k) * cmath.exp(0.3j) for k in range(1, 7))


def imag_log_coeff(t: complex) -> float:
    """Im of log(t)/(2 pi i): -log|t| / (2 pi)."""
    if t == 0:
        raise ValueError("t = 0")
    return -math.log(abs(t)) / (2.0 * math.pi)


def conjugate_at(v: FrameVector, t: complex) -> FrameVector:
    """Conjugate of a frame vector at parameter t.

    Coefficients are conjugated and the basis conjugation rules applied:
    e0 and d_i are real, e1 gains 2i Im(l) e0, e2 gains 2i Im(l) e1 and
    loses 2 Im(l)^2 e0, with Im(l) = -log|t| / (2 pi).
    """
    if len(v) < 3:
        raise ValueError("a frame vector has at least 3 coordinates")
    iml = imag_log_coeff(t)
    w = [x.conjugate() for x in v]
    return (
        w[0] + 2j * iml * w[1] - 2.0 * iml * iml * w[2],
        w[1] + 2j * iml * w[2],
        *w[2:],
    )


def imaginary_part(v: FrameVector, t: complex) -> FrameVector:
    """-(i/2) (v - conj(v)) with the frame conjugation at t (:func:`conjugate_at`)."""
    return tuple(-0.5j * (x - y) for x, y in zip(v, conjugate_at(v, t)))


def pair(u: FrameVector, v: FrameVector) -> complex:
    """Bilinear extension of the polarization: u1 v1 - u0 v2 - u2 v0 + sum_k u_k v_k."""
    if len(u) != len(v) or len(u) < 3:
        raise ValueError("frame vector dimension mismatch")
    d_part = sum(x * y for x, y in zip(u[3:], v[3:]))
    return complex(u[1] * v[1] - u[0] * v[2] - u[2] * v[0] + d_part)


def _seeded_tails(rng, count: int) -> list[tuple[complex, ...]] | None:
    """Cubic tails with coefficients -0.7 + 1.4 rng.random(), the draws of
    rng.uniform(-0.7, 0.7) bit for bit, real parts first; without rng,
    None: the zero tails."""
    if rng is None:
        return None
    draws = [-0.7 + 1.4 * rng.random() for _ in range(8 * count)]
    return [tuple(map(complex, draws[k : k + 4], draws[k + 4 : k + 8])) for k in range(0, 8 * count, 8)]


def _tails(rng, count: int):
    """t -> the values at t of ``count`` tails drawn by :func:`_seeded_tails`,
    all in one Horner pass over their coefficients; zero tails cost no
    arithmetic."""
    tails = _seeded_tails(rng, count)
    if tails is None:
        zeros = (0j,) * count
        return lambda t: zeros
    c0, c1, c2, c3 = zip(*tails)

    def at(t: complex) -> list[complex]:
        acc = [a * t + b for a, b in zip(c3, c2)]
        acc = [a * t + b for a, b in zip(acc, c1)]
        return [a * t + b for a, b in zip(acc, c0)]

    return at


def eta(dk: int, rng=None):
    """eta = e2 + i Im(l) e1 + g(t) e0 + sum h_i(t) d_i, as its at(t)."""
    tails = _tails(rng, 1 + dk)

    def at(t: complex) -> FrameVector:
        g, *h = tails(t)
        return (g, 1j * imag_log_coeff(t), 1 + 0j, *h)

    return at


def limit_type(L: float, dk: int, rng=None):
    """The model ("R", at) with R(t) = i L e0 + t (a0 e0 + a1 e1 + a2 e2 + sum b_j d_j)."""
    tails = _tails(rng, 3 + dk)

    def at(t: complex) -> FrameVector:
        v = [x * t for x in tails(t)]
        v[0] += 1j * L
        return tuple(v)

    return ("R", at)


def singular_type(i: int, dk: int, rng=None):
    """The model ("Ri", at) with R_i(t) = a0 e0 + a1 e1 + a2 e2 + i log(t) d_i
    + sum_{j != i} b_j d_j; its pairings use Im(R_i / log t).  i is an
    int in 1..dk: a bool or a float raises ValueError."""
    if type(i) is not int or not 1 <= i <= dk:
        raise ValueError(f"singularity index out of range: {i!r}")
    tails = _tails(rng, 3 + dk)

    def at(t: complex) -> FrameVector:
        v = list(tails(t))
        v[2 + i] = 1j * cmath.log(t)
        return tuple(v)

    return ("Ri", at)


# the extrapolation variable at each sample: 1/log|t| for the singular
# models (kind "Ri"), |t| for the limit type
_XS = {
    "Ri": tuple(1.0 / math.log(abs(t)) for t in T_SEQUENCE),
    "R": tuple(abs(t) for t in T_SEQUENCE),
}


def _neville_diagonal(xs: Sequence[float], samples: Sequence[Sequence[complex | float]]):
    """Neville tableaux to x = 0 of every column of ``samples`` at once.

    ``samples[i]`` holds the value of each column at ``xs[i]``.  Returns
    the tableau diagonal, one row of column values per order; each column
    sees the arithmetic of its own scalar tableau.
    """
    n = len(xs)
    prev = samples
    diag = [samples[0]]
    for k in range(1, n):
        cur = []
        for i in range(n - k):
            hi, lo = xs[i + k], xs[i]
            den = hi - lo
            cur.append([(hi * p - lo * q) / den for p, q in zip(prev[i], prev[i + 1])])
        diag.append(cur[0])
        prev = cur
    return diag


def _extrapolate(kind: str, samples: Sequence[Sequence[complex | float]]) -> list[tuple[complex, tuple[float, ...]]]:
    """Neville extrapolation to t = 0 of pairing values sampled along
    :data:`T_SEQUENCE`, one (limit, residuals) pair per column of
    ``samples``.

    The extrapolation variable is 1/log|t| for the singular models
    (kind "Ri"), whose error terms decay that slowly, and |t| itself for
    the limit-type model, whose error terms are O(t polylog t).

    The last residual, the change made by the highest-order step, is the
    error estimate of the limit; unless it is below 1e-3 max(1, |limit|)
    the limit is not trusted and :class:`ExtrapolationError` is raised.
    Earlier residuals are not compared with it: the coarsest sample also
    carries tail terms such as O(t / log t) that are not polynomial in the
    extrapolation variable, so its residual can be small by accident.
    """
    diag = _neville_diagonal(_XS[kind], samples)
    steps = [[abs(h - l) for l, h in zip(lo, hi)] for lo, hi in zip(diag, diag[1:])]
    out = []
    for value, residuals in zip(diag[-1], zip(*steps)):
        if not residuals[-1] <= 1e-3 * max(1.0, abs(value)):  # also catches NaN
            raise ExtrapolationError(f"pairing limit not converging: residuals {list(residuals)}")
        # a real d-column limit becomes a complex entry like the others
        out.append((complex(value), residuals))
    return out


def _pairing_rows(model, etas=None) -> list[tuple]:
    """The model's pairings along :data:`T_SEQUENCE`, one row per t: with
    eta first when ``etas`` holds eta at each t, then with d_1..d_dk.

    The pairing vector is Im R(t) for the limit type and Im(R_i(t)/log t)
    for the singular type.  Pairing it with the real unit class d_j reads
    off its coordinate 2 + j, which is the imaginary part of one complex
    coordinate: a real number, ``x.imag``, with the bits of
    :func:`imaginary_part`'s real part.  So only e0, e1, e2 go through
    :func:`imaginary_part`, and the d-columns are real."""
    kind, at = model
    rows = []
    for k, t in enumerate(T_SEQUENCE):
        v = at(t)
        if kind == "Ri":
            log_t = cmath.log(t)
            v = [x / log_t for x in v]
        ds = [x.imag for x in v[3:]]
        rows.append(ds if etas is None else (pair((*imaginary_part(v[:3], t), *ds), etas[k]), *ds))
    return rows


def limit_of_pairing(model, target) -> tuple[complex, tuple[float, ...]]:
    """Extrapolated limit of the pairing along :data:`T_SEQUENCE`, and
    its Neville residuals.

    ``target`` is eta's ``at`` (:func:`eta`) or a 1-based d-class index,
    an int in 1..dk and not a bool; the limit is the matching entry of the
    model's row in :func:`independence_matrix`, bit for bit.  See
    :func:`_extrapolate` for the extrapolation and its convergence test.
    """
    if callable(target):
        etas, col = [target(t) for t in T_SEQUENCE], 0
    elif type(target) is int:
        etas, col = None, target - 1
    else:
        raise ValueError(f"neither eta nor a d-index: {target!r}")
    samples = _pairing_rows(model, etas)
    # a row holds the dk d-class pairings, after the eta pairing if any
    if not 0 <= col < len(samples[0]):
        raise ValueError(f"d-index out of range: {target}")
    return _extrapolate(model[0], [(row[col],) for row in samples])[0]


def _det(rows: Sequence[Sequence[complex]]) -> complex:
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1 + 0j
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            return 0j
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                a[i][k:] = [x - f * y for x, y in zip(a[i][k:], a[k][k:])]
    return det


def independence_matrix(L: float, seed: int | None = None, dk: int = DEFAULT_DK):
    """The (1 + dk) x (1 + dk) matrix of pairing limits, its determinant
    and the worst final Neville residual over its entries.

    Row 0 pairs the limit-type model against (eta, d_1..d_dk); row i pairs
    the i-th singular model.  With zero tails (seed None) the matrix is
    exactly block triangular with determinant -L; seeded tails, drawn from
    ``random.Random(seed)``, perturb it by the extrapolation error only.
    L must be nonzero for the argument to show anything.
    """
    if L == 0:
        raise ValueError("the independence argument needs L != 0")
    rng = None if seed is None else random.Random(seed)
    eta_at = eta(dk, rng)
    models = [limit_type(L, dk, rng)] + [singular_type(i, dk, rng) for i in range(1, dk + 1)]
    etas = [eta_at(t) for t in T_SEQUENCE]
    entries = [_extrapolate(m[0], _pairing_rows(m, etas)) for m in models]
    matrix = tuple(tuple(value for value, _ in row) for row in entries)
    max_residual = max(residuals[-1] for row in entries for _, residuals in row)
    return matrix, _det(matrix), max_residual
