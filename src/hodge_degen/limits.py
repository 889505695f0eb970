"""Limiting-frame pairings and the regulator independence matrix.

The frame is (e0, e1, e2, d_1..d_dk): a rank-3 nilpotent block polarized
by Q(e0,e2) = Q(e2,e0) = -1, Q(e1,e1) = 1, orthogonal to the d-classes,
on which Q is the identity.  The monodromy logarithm sends
e2 -> e1 -> e0 -> 0 and kills every d-class.  Frame vectors are plain
tuples of complex coordinates in that order.

Normal-function models are evaluated at small complex t, their imaginary
parts paired against the real frame vector eta and the d-classes, and the
limits extrapolated along a shrinking |t| sequence.  The (1 + dk) square
matrix of limits is lower triangular up to extrapolation error with -L in
the corner, so its determinant witnesses linear independence whenever the
limit invariant L is nonzero.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Sequence

from .exactlin import _Frozen


class ExtrapolationError(RuntimeError):
    """Extrapolation residuals failed to settle."""


DEFAULT_DK = 19

FrameVector = tuple[complex, ...]


# the samples of every pairing limit: |t| = 1e-2 .. 1e-12 in
# decade-squared steps, at the fixed argument 0.3
T_SEQUENCE: tuple[complex, ...] = tuple(10.0 ** (-2 * k) * cmath.exp(0.3j) for k in range(1, 7))


class Frame(_Frozen):
    __slots__ = ("dk",)
    dk: int

    def __init__(self, dk: int = DEFAULT_DK):
        object.__setattr__(self, "dk", dk)

    @property
    def dim(self) -> int:
        return 3 + self.dk

    def basis(self, name: str, j: int = 0) -> FrameVector:
        """Unit frame vector: name in e0|e1|e2, or 'd' with 1-based j."""
        if name == "d":
            if not 1 <= j <= self.dk:
                raise ValueError(f"d-index out of range: {j}")
            k = 2 + j
        else:
            k = {"e0": 0, "e1": 1, "e2": 2}[name]
        return tuple(1 + 0j if i == k else 0j for i in range(self.dim))


def imag_log_coeff(t: complex) -> float:
    """Im of log(t)/(2 pi i): -log|t| / (2 pi)."""
    if t == 0:
        raise ValueError("t = 0")
    return -math.log(abs(t)) / (2.0 * math.pi)


def monodromy(v: FrameVector) -> FrameVector:
    """N: e2 -> e1 -> e0 -> 0, d_i -> 0."""
    return (v[1], v[2]) + (0j,) * (len(v) - 2)


def conjugate_at(v: FrameVector, t: complex, frame: Frame) -> FrameVector:
    """Conjugate of a frame vector at parameter t.

    Coefficients are conjugated and the basis conjugation rules applied:
    e0 and d_i are real, e1 gains 2i Im(l) e0, e2 gains 2i Im(l) e1 and
    loses 2 Im(l)^2 e0, with Im(l) = -log|t| / (2 pi).
    """
    if len(v) != frame.dim:
        raise ValueError("frame vector dimension mismatch")
    iml = imag_log_coeff(t)
    w = [x.conjugate() for x in v]
    return (
        w[0] + 2j * iml * w[1] - 2.0 * iml * iml * w[2],
        w[1] + 2j * iml * w[2],
        *w[2:],
    )


def imaginary_part(v: FrameVector, t: complex, frame: Frame) -> FrameVector:
    """-(i/2) (v - conj(v)) with the frame conjugation at t.

    Built in one pass over v, with the arithmetic of :func:`conjugate_at`
    inlined: only the e0 and e1 coordinates of conj(v) pick up terms.
    """
    if len(v) != frame.dim:
        raise ValueError("frame vector dimension mismatch")
    iml = imag_log_coeff(t)
    x0, x1, x2 = v[0], v[1], v[2]
    w1, w2 = x1.conjugate(), x2.conjugate()
    return (
        -0.5j * (x0 - (x0.conjugate() + 2j * iml * w1 - 2.0 * iml * iml * w2)),
        -0.5j * (x1 - (w1 + 2j * iml * w2)),
        *[-0.5j * (x - x.conjugate()) for x in v[2:]],
    )


def pair(u: FrameVector, v: FrameVector, frame: Frame) -> complex:
    """Bilinear extension of the polarization: u1 v1 - u0 v2 - u2 v0 + sum_k u_k v_k."""
    if len(u) != frame.dim or len(v) != frame.dim:
        raise ValueError("frame vector dimension mismatch")
    d_part = sum(x * y for x, y in zip(u[3:], v[3:]))
    return complex(u[1] * v[1] - u[0] * v[2] - u[2] * v[0] + d_part)


class PolyTail(_Frozen):
    """Holomorphic tail modeled as a low-degree polynomial in t."""

    __slots__ = ("coeffs",)
    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: tuple[complex, ...] = (0j,)):
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


_ZERO_TAIL = PolyTail()


def _seeded_tails(rng, count: int):
    """Cubic tails with coefficients drawn by rng.uniform(lo, hi), real
    parts first; without rng, the zero tail."""
    if rng is None:
        return [_ZERO_TAIL] * count
    out = []
    for _ in range(count):
        re = [rng.uniform(-0.7, 0.7) for _ in range(4)]
        im = [rng.uniform(-0.7, 0.7) for _ in range(4)]
        out.append(PolyTail(tuple(map(complex, re, im))))
    return out


class EtaModel(_Frozen):
    """eta = e2 + i Im(l) e1 + g(t) e0 + sum h_i(t) d_i."""

    __slots__ = ("g", "h")
    g: PolyTail
    h: tuple[PolyTail, ...]

    @classmethod
    def build(cls, frame: Frame, rng=None) -> "EtaModel":
        tails = _seeded_tails(rng, 1 + frame.dk)
        return cls(tails[0], tuple(tails[1:]))

    def at(self, t: complex, frame: Frame) -> FrameVector:
        if len(self.h) != frame.dk:
            raise ValueError("eta tails do not match frame")
        return (self.g(t), 1j * imag_log_coeff(t), 1 + 0j, *(h(t) for h in self.h))


class NormalFunctionModel(_Frozen):
    """Either the limit-type model R or a singular-type model R_i.

    kind "R":  R(t) = i L e0 + t (a0 e0 + a1 e1 + a2 e2 + sum b_j d_j).
    kind "Ri": R_i(t) = a0 e0 + a1 e1 + a2 e2 + i log(t) d_i
               + sum_{j != i} b_j d_j; pairings use Im(R_i / log t).
    """

    __slots__ = ("kind", "L", "i", "a", "b")
    kind: str  # "R" or "Ri"
    L: float
    i: int
    a: tuple[PolyTail, PolyTail, PolyTail]
    b: tuple[PolyTail, ...]

    def __init__(self, kind: str, L: float = 0.0, i: int = 0, a=(_ZERO_TAIL,) * 3, b=()):
        super().__init__(kind, L, i, a, b)

    @classmethod
    def limit_type(cls, L: float, frame: Frame, rng=None):
        tails = _seeded_tails(rng, 3 + frame.dk)
        return cls("R", L=L, a=tuple(tails[:3]), b=tuple(tails[3:]))

    @classmethod
    def singular_type(cls, i: int, frame: Frame, rng=None):
        if not 1 <= i <= frame.dk:
            raise ValueError(f"singularity index out of range: {i}")
        tails = _seeded_tails(rng, 3 + frame.dk)
        return cls("Ri", i=i, a=tuple(tails[:3]), b=tuple(tails[3:]))

    def at(self, t: complex, frame: Frame) -> FrameVector:
        if len(self.b) != frame.dk:
            raise ValueError("tails do not match frame")
        v = [p(t) for p in (*self.a, *self.b)]
        if self.kind == "R":
            v = [x * t for x in v]
            v[0] += 1j * self.L
        else:
            v[2 + self.i] = 1j * cmath.log(t)
        return tuple(v)

    def pairing_vector(self, t: complex, frame: Frame) -> FrameVector:
        """Im R(t) for the limit type, Im(R_i(t)/log t) for the singular."""
        v = self.at(t, frame)
        if self.kind == "Ri":
            log_t = cmath.log(t)
            v = [x / log_t for x in v]
        return imaginary_part(v, t, frame)


# the extrapolation variable at each sample: 1/log|t| for the singular
# models (kind "Ri"), |t| for the limit type
_XS = {
    "Ri": tuple(1.0 / math.log(abs(t)) for t in T_SEQUENCE),
    "R": tuple(abs(t) for t in T_SEQUENCE),
}


def _neville_diagonal(xs: Sequence[float], samples: Sequence[Sequence[complex]]):
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


class PairingLimit(_Frozen):
    __slots__ = ("value", "residuals")
    value: complex
    residuals: tuple[float, ...]

    def __init__(self, value: complex, residuals: tuple[float, ...]):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "residuals", residuals)


def _extrapolate(kind: str, samples: Sequence[Sequence[complex]]) -> list[PairingLimit]:
    """Neville extrapolation to t = 0 of pairing values sampled along
    :data:`T_SEQUENCE`, one limit per column of ``samples``.

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
        out.append(PairingLimit(value, residuals))
    return out


def limit_of_pairing(nf: NormalFunctionModel, target, frame: Frame) -> PairingLimit:
    """Extrapolated limit of the pairing along :data:`T_SEQUENCE`.

    ``target`` is an :class:`EtaModel` or a 1-based d-class index; see
    :func:`_extrapolate` for the extrapolation and its convergence test.
    """

    def target_at(t: complex) -> FrameVector:
        if isinstance(target, EtaModel):
            return target.at(t, frame)
        return frame.basis("d", int(target))

    samples = [(pair(nf.pairing_vector(t, frame), target_at(t), frame),) for t in T_SEQUENCE]
    return _extrapolate(nf.kind, samples)[0]


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


class IndependenceResult(_Frozen):
    __slots__ = ("matrix", "det", "L", "verdict", "max_residual")
    matrix: tuple[tuple[complex, ...], ...]
    det: complex
    L: float
    verdict: str  # "independent" or "fail"
    max_residual: float  # worst final Neville residual over the entries

    def to_json_dict(self):
        return {
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix],
            "det": [float(self.det.real), float(self.det.imag)],
            "L": float(self.L),
            "verdict": self.verdict,
            "t_sequence": [[float(t.real), float(t.imag)] for t in T_SEQUENCE],
        }


def independence_matrix(frame: Frame, L: float, seed: int | None = None) -> IndependenceResult:
    """The (1 + dk) x (1 + dk) matrix of pairing limits and its determinant.

    Row 0 pairs the limit-type model against (eta, d_1..d_dk); row i pairs
    the i-th singular model.  With zero tails (seed None) the matrix is
    exactly block triangular with determinant -L; seeded tails, drawn from
    ``random.Random(seed)``, perturb it by the extrapolation error only.
    L must be nonzero for the argument to show anything.
    """
    if L == 0:
        raise ValueError("the independence argument needs L != 0")
    rng = None if seed is None else random.Random(seed)
    eta = EtaModel.build(frame, rng)
    r_model = NormalFunctionModel.limit_type(L, frame, rng)
    singular = [NormalFunctionModel.singular_type(i, frame, rng) for i in range(1, frame.dk + 1)]
    etas = [eta.at(t, frame) for t in T_SEQUENCE]

    def row(model: NormalFunctionModel) -> list[PairingLimit]:
        # the same limits as limit_of_pairing, from one pairing vector per t:
        # pairing with the unit class d_j reads off coordinate 2 + j
        samples = []
        for t, e in zip(T_SEQUENCE, etas):
            v = model.pairing_vector(t, frame)
            samples.append((pair(v, e, frame), *v[3:]))
        return _extrapolate(model.kind, samples)

    entries = [row(model) for model in (r_model, *singular)]
    mat = tuple(tuple(lim.value for lim in r) for r in entries)
    det = _det(mat)
    verdict = "independent" if abs(det) > 0.1 * abs(L) else "fail"
    max_residual = max(lim.residuals[-1] for r in entries for lim in r)
    return IndependenceResult(mat, det, L, verdict, max_residual)
