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
from dataclasses import dataclass
from typing import Literal, Sequence


class ExtrapolationError(RuntimeError):
    """Extrapolation residuals failed to settle."""


DEFAULT_DK = 19
DEFAULT_ARG = 0.3

FrameVector = tuple[complex, ...]


def default_t_sequence(arg: float = DEFAULT_ARG) -> tuple[complex, ...]:
    """|t| = 1e-2 .. 1e-12 in decade-squared steps, fixed argument."""
    phase = cmath.exp(1j * arg)
    return tuple(10.0 ** (-2 * k) * phase for k in range(1, 7))


@dataclass(frozen=True)
class Frame:
    dk: int = DEFAULT_DK

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
    """-(i/2) (v - conj(v)) with the frame conjugation at t."""
    return tuple(-0.5j * (x - y) for x, y in zip(v, conjugate_at(v, t, frame)))


def pair(u: FrameVector, v: FrameVector, frame: Frame) -> complex:
    """Bilinear extension of the polarization: u1 v1 - u0 v2 - u2 v0 + sum_k u_k v_k."""
    if len(u) != frame.dim or len(v) != frame.dim:
        raise ValueError("frame vector dimension mismatch")
    d_part = sum(x * y for x, y in zip(u[3:], v[3:]))
    return complex(u[1] * v[1] - u[0] * v[2] - u[2] * v[0] + d_part)


@dataclass(frozen=True)
class PolyTail:
    """Holomorphic tail modeled as a low-degree polynomial in t."""

    coeffs: tuple[complex, ...] = (0j,)

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _seeded_tails(rng, count: int, degree: int = 3):
    """Tails with coefficients drawn by rng.uniform(lo, hi), real parts first."""
    if rng is None:
        return [PolyTail() for _ in range(count)]
    out = []
    for _ in range(count):
        re = [rng.uniform(-0.7, 0.7) for _ in range(degree + 1)]
        im = [rng.uniform(-0.7, 0.7) for _ in range(degree + 1)]
        out.append(PolyTail(tuple(map(complex, re, im))))
    return out


@dataclass(frozen=True)
class EtaModel:
    """eta = e2 + i Im(l) e1 + g(t) e0 + sum h_i(t) d_i."""

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

    def reality_residual(self, t: complex, frame: Frame) -> float:
        """|conj(eta) - eta|; zero for real tails, O(tails) otherwise."""
        v = self.at(t, frame)
        return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(conjugate_at(v, t, frame), v)))


@dataclass(frozen=True)
class NormalFunctionModel:
    """Either the limit-type model R or a singular-type model R_i.

    kind "R":  R(t) = i L e0 + t (a0 e0 + a1 e1 + a2 e2 + sum b_j d_j).
    kind "Ri": R_i(t) = a0 e0 + a1 e1 + a2 e2 + i log(t) d_i
               + sum_{j != i} b_j d_j; pairings use Im(R_i / log t).
    """

    kind: Literal["R", "Ri"]
    L: float = 0.0
    i: int = 0
    a: tuple[PolyTail, PolyTail, PolyTail] = (PolyTail(), PolyTail(), PolyTail())
    b: tuple[PolyTail, ...] = ()

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
            v = tuple(x / log_t for x in v)
        return imaginary_part(v, t, frame)


def _neville_to_zero(xs: Sequence[float], ys: Sequence[complex]):
    n = len(xs)
    tab = [list(ys)]
    for k in range(1, n):
        row = []
        for i in range(n - k):
            num = xs[i + k] * tab[k - 1][i] - xs[i] * tab[k - 1][i + 1]
            row.append(num / (xs[i + k] - xs[i]))
        tab.append(row)
    diag = [tab[k][0] for k in range(n)]
    residuals = [abs(diag[k] - diag[k - 1]) for k in range(1, n)]
    return diag[-1], residuals


@dataclass(frozen=True)
class PairingLimit:
    value: complex
    samples: tuple[complex, ...]
    residuals: tuple[float, ...]


def _t_samples(t_sequence: Sequence[complex] | None) -> tuple[complex, ...]:
    """The given (or default) t sequence, checked: nonzero, |t| strictly decreasing."""
    ts =tuple(t_sequence) if t_sequence is not None else default_t_sequence()
    if len(ts) < 3:
        raise ValueError("need at least 3 sample points")
    mags = [abs(t) for t in ts]
    if any(m == 0 for m in mags) or any(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
        raise ValueError("t sequence must be nonzero with strictly decreasing |t|")
    return ts


def _extrapolate(kind: str, ts: Sequence[complex], values: Sequence[complex]) -> PairingLimit:
    """Neville extrapolation of pairing values sampled along ts to t = 0.

    The extrapolation variable is 1/log|t| for the singular models
    (kind "Ri"), whose error terms decay that slowly, and |t| itself for
    the limit-type model, whose error terms are O(t polylog t).  Residuals
    that grow instead of settling raise :class:`ExtrapolationError`.
    """
    xs = [1.0 / math.log(abs(t)) for t in ts] if kind == "Ri" else [abs(t) for t in ts]
    value, residuals = _neville_to_zero(xs, values)
    scale = max(1.0, abs(value))
    if residuals and residuals[-1] > max(1e-6 * scale, min(residuals)) and residuals[-1] >= residuals[0]:
        raise ExtrapolationError(f"pairing limit not converging: residuals {residuals}")
    return PairingLimit(value, tuple(values), tuple(residuals))


def limit_of_pairing(
    nf: NormalFunctionModel,
    target,
    frame: Frame,
    t_sequence: Sequence[complex] | None = None,
) -> PairingLimit:
    """Extrapolated limit of the pairing along a shrinking t sequence.

    ``target`` is an :class:`EtaModel` or a 1-based d-class index; see
    :func:`_extrapolate` for the extrapolation and its convergence test.
    """
    ts = _t_samples(t_sequence)

    def target_at(t: complex) -> FrameVector:
        if isinstance(target, EtaModel):
            return target.at(t, frame)
        return frame.basis("d", int(target))

    values = [pair(nf.pairing_vector(t, frame), target_at(t), frame) for t in ts]
    return _extrapolate(nf.kind, ts, values)


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


@dataclass(frozen=True)
class IndependenceResult:
    matrix: tuple[tuple[complex, ...], ...]
    det: complex
    L: float
    verdict: Literal["independent", "fail"]

    def to_json_dict(self, t_sequence):
        return {
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix],
            "det": [float(self.det.real), float(self.det.imag)],
            "L": float(self.L),
            "verdict": self.verdict,
            "t_sequence": [[float(t.real), float(t.imag)] for t in t_sequence],
        }


def independence_matrix(
    frame: Frame,
    L: float,
    seed: int | None = None,
    t_sequence: Sequence[complex] | None = None,
) -> IndependenceResult:
    """The (1 + dk) x (1 + dk) matrix of pairing limits and its determinant.

    Row 0 pairs the limit-type model against (eta, d_1..d_dk); row i pairs
    the i-th singular model.  With zero tails (seed None) the matrix is
    exactly block triangular with determinant -L; seeded tails perturb it
    by the extrapolation error only.  L must be nonzero for the argument
    to show anything.
    """
    if L == 0:
        raise ValueError("the independence argument needs L != 0")
    rng = None
    if seed is not None:
        # numpy's PCG64 stream defines the tails behind each seed.  Another
        # generator would hand some seeds tails on which the convergence
        # test of limit_of_pairing misfires, so numpy stays until it is fixed.
        import numpy as np

        rng = np.random.default_rng(seed)
    eta = EtaModel.build(frame, rng)
    r_model = NormalFunctionModel.limit_type(L, frame, rng)
    singular = [NormalFunctionModel.singular_type(i, frame, rng) for i in range(1, frame.dk + 1)]
    ts = _t_samples(t_sequence)
    etas = [eta.at(t, frame) for t in ts]

    def row(model: NormalFunctionModel) -> tuple[complex, ...]:
        # the same limits as limit_of_pairing, from one pairing vector per t:
        # pairing with the unit class d_j reads off coordinate 2 + j
        vecs = [model.pairing_vector(t, frame) for t in ts]
        columns = [[pair(v, e, frame) for v, e in zip(vecs, etas)]]
        columns += [[v[2 + j] for v in vecs] for j in range(1, frame.dk + 1)]
        return tuple(_extrapolate(model.kind, ts, values).value for values in columns)

    mat = tuple(row(model) for model in (r_model, *singular))
    det = _det(mat)
    verdict = "independent" if abs(det) > 0.1 * abs(L) else "fail"
    return IndependenceResult(mat, det, L, verdict)
