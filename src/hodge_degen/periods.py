"""Dilogarithm numerics and the period integral over the line triangle.

The membrane integral of dx/x ^ dy/y over a triangle whose edges lie on
three lines is reduced to iterated integrals of log(edge)/y along paths
in the y coordinate.  Paths are chosen so that every logarithm stays on
its principal branch; where a straight path would cross a cut, a waypoint
routes it around the offending zero.  With that choice the two-sided
ruled surface over the paths is a genuine membrane avoiding x = 0 and
y = 0, and the same parametrization drives the independent raw
quadrature oracle.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .quadrature import adaptive_quad, double_integral

PI = math.pi
ZETA2 = PI * PI / 6.0
MU_C = complex(0.5, math.sqrt(3.0) / 2.0)

_BERNOULLI_N = 36


class PathSingularityError(ValueError):
    """An integration path runs into a pole or a log singularity."""


def _bernoullis(n: int) -> list[float]:
    acc = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(math.comb(m + 1, j) * acc[j] for j in range(m))
        acc.append(Fraction(-s, m + 1))
    return [float(b) for b in acc]


_BERN = _bernoullis(_BERNOULLI_N)


def _dilog_small(z: complex) -> complex:
    # power series, |z| <= 1/2
    acc = 0j
    zp = z
    for k in range(1, 80):
        t = zp / (k * k)
        acc += t
        if abs(t) < 1e-18 * max(1.0, abs(acc)):
            break
        zp *= z
    return acc


def _dilog_log_series(z: complex) -> complex:
    # Bernoulli series in u = -log(1-z); effective for the remaining annulus
    u = -cmath.log(1.0 - z)
    acc = 0j
    up = u
    fact = 1.0
    for k in range(_BERNOULLI_N):
        fact *= k + 1
        acc += _BERN[k] * up / fact
        up *= u
        if abs(up) / fact < 1e-18 * max(1.0, abs(acc)):
            break
    return acc


def dilog(z: complex) -> complex:
    """Principal-branch Li_2 with cut [1, oo).

    Real inputs on the cut are evaluated on the upper side (z + i0), so
    dilog(x) for real x > 1 has positive imaginary part pi*log(x).
    Relative accuracy is a few ulp for |z| up to 1e6.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # squash -0.0: cut values taken from above
    if z == 0.0:
        return 0j
    if z == 1.0:
        return complex(ZETA2, 0.0)
    if abs(z) > 1.0:
        lz = cmath.log(-z)
        return -dilog(1.0 / z) - ZETA2 - 0.5 * lz * lz
    if z.real > 0.5:
        return ZETA2 - cmath.log(z) * cmath.log(1.0 - z) - dilog(1.0 - z)
    if abs(z) <= 0.5:
        return _dilog_small(z)
    return _dilog_log_series(z)


def clausen(theta: float) -> float:
    """Cl_2(theta) = Im Li_2(e^{i theta}); 2 pi periodic and odd."""
    return dilog(cmath.exp(1j * float(theta))).imag


def aj_closed_form() -> complex:
    """The limit Abel-Jacobi value of the distinguished cycle.

    AJ = -(3 (Li_2(-mu) - conj Li_2(-mu)) + zeta(2)); real part exactly
    -pi^2/6, imaginary part -6 Im Li_2(-mu) = 6 Cl_2(2 pi/3) > 4.  The
    sign convention follows the sweep orientation of
    :func:`membrane_integral`, i.e. membrane over the distinguished
    triangle = -AJ.
    """
    return complex(-ZETA2, -6.0 * dilog(-MU_C).imag)


def _segment_distance_to_zero(z0: complex, z1: complex) -> float:
    d = z1 - z0
    n2 = abs(d) ** 2
    if n2 == 0.0:
        return abs(z0)
    t = -(z0.real * d.real + z0.imag * d.imag) / n2
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * d)


def _cut_crossing(w0: complex, w1: complex) -> float | None:
    """Parameter where the straight w-path crosses the negative real axis."""
    dw = w1 - w0
    if dw.imag == 0.0:
        return None
    s = -w0.imag / dw.imag
    if 0.0 < s < 1.0 and (w0 + s * dw).real < 0.0:
        return s
    return None


def log_line_integral(a: complex, b: complex, z0: complex, z1: complex, tol: float = 1e-12) -> complex:
    """Integral of log(a + b z)/z along the segment [z0, z1], log branch
    continued.

    Starts on the principal branch at z0.  The argument a + b z moves
    along a straight segment, so it crosses the negative real axis at most
    once; the integration is split there and the branch offset transported
    across.  The path must stay clear of z = 0 and of the zero of a + b z.
    """
    a, b, z0, z1 = complex(a), complex(b), complex(z0), complex(z1)
    if _segment_distance_to_zero(z0, z1) < 1e-9:
        raise PathSingularityError(f"path [{z0}, {z1}] passes through z = 0")
    w0 = a + b * z0
    w1 = a + b * z1
    if _segment_distance_to_zero(w0, w1) < 1e-9:
        raise PathSingularityError(f"log argument vanishes on path: a={a}, b={b}")
    dz = z1 - z0
    s_cross = _cut_crossing(w0, w1)
    pieces = [(0.0, 1.0, 0)] if s_cross is None else [
        (0.0, s_cross, 0),
        (s_cross, 1.0, 1 if (w1 - w0).imag < 0 else -1),
    ]
    total = 0j
    for s_lo, s_hi, k in pieces:
        shift = 2j * PI * k

        def f(s, shift=shift):
            z = z0 + s * dz
            return (cmath.log(a + b * z) + shift) / z * dz

        total += adaptive_quad(f, s_lo, s_hi, tol)
    return total


# ---------------------------------------------------------------------------
# membrane integral over a triangle of lines


@dataclass(frozen=True)
class _EdgeLine:
    """x = p + q y: the chart equation of the line through two vertices."""

    p: complex
    q: complex

    def x_at(self, y: complex) -> complex:
        return self.p + self.q * y


def _edge_through(v0, v1) -> _EdgeLine:
    (x0, y0), (x1, y1) = v0, v1
    if abs(y1 - y0) < 1e-14:
        raise PathSingularityError("edge with constant y; sweep coordinate degenerate")
    q = (x1 - x0) / (y1 - y0)
    return _EdgeLine(x0 - q * y0, q)


def _cut_free_legs(edges, y0: complex, y1: complex, depth: int = 0):
    """Split [y0, y1] so no edge log crosses its cut on any leg.

    A crossing of log(p + q y) is routed around the zero -p/q through the
    waypoint where p + q y is positive real with the geometric-mean
    modulus of the endpoint values.
    """
    for e in edges:
        s = _cut_crossing(e.x_at(y0), e.x_at(y1))
        if s is not None:
            if depth >= 8:
                raise PathSingularityError("cannot route sweep path around log cuts")
            r = math.sqrt(abs(e.x_at(y0)) * abs(e.x_at(y1)))
            if r < 1e-9:
                raise PathSingularityError("edge line passes through x = 0 at a vertex")
            yw = (r - e.p) / e.q
            return _cut_free_legs(edges, y0, yw, depth + 1) + _cut_free_legs(edges, yw, y1, depth + 1)
    return [(y0, y1)]


def _sweep_pieces(v1, v2, v3):
    """The two sweep pieces: (lower edge, upper edge, leg list).

    The common lower bound is the line through the first and last vertex;
    y runs v1 -> v2 -> v3.  Legs are cut-free for both logs of the piece.
    """
    common = _edge_through(v1, v3)
    pieces = []
    for upper, ya, yb in (
        (_edge_through(v1, v2), v1[1], v2[1]),
        (_edge_through(v2, v3), v2[1], v3[1]),
    ):
        legs = _cut_free_legs((common, upper), ya, yb)
        pieces.append((common, upper, legs))
    return pieces


def _check_vertices(vertices):
    vs = [(complex(x), complex(y)) for x, y in vertices]
    if len(vs) != 3:
        raise ValueError("need exactly 3 vertices")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(vs[i][0] - vs[j][0]) < 1e-12 and abs(vs[i][1] - vs[j][1]) < 1e-12:
                raise ValueError("degenerate triangle: repeated vertex")
    return vs


def _check_piece_clearance(lower: _EdgeLine, upper: _EdgeLine, legs, samples: int = 160):
    """The swept rulings and the y path must stay clear of x = 0 and y = 0."""
    for y0, y1 in legs:
        if _segment_distance_to_zero(y0, y1) < 1e-9:
            raise PathSingularityError("sweep path passes through y = 0")
        for k in range(samples + 1):
            y = y0 + (k / samples) * (y1 - y0)
            if _segment_distance_to_zero(lower.x_at(y), upper.x_at(y)) < 1e-9:
                raise PathSingularityError("ruling passes through x = 0")


def membrane_integral(vertices, tol: float = 1e-12) -> complex:
    """Integral of dx/x ^ dy/y over the membrane spanned by the triangle.

    ``vertices`` are three chart points (x, y); the sweep runs from the
    first through the second to the third, with the inner integral bounded
    below by the line through the first and last vertex.  Each inner
    integral reduces to a difference of edge logarithms, all kept on the
    principal branch by the waypoint routing, so the value reproduces the
    endpoint evaluation of the dilogarithm antiderivatives term by term.
    """
    v1, v2, v3 = _check_vertices(vertices)
    total = 0j
    for lower, upper, legs in _sweep_pieces(v1, v2, v3):
        _check_piece_clearance(lower, upper, legs)
        for y0, y1 in legs:
            total += log_line_integral(upper.p, upper.q, y0, y1, tol)
            total -= log_line_integral(lower.p, lower.q, y0, y1, tol)
    return total


def membrane_quadrature(vertices, tol: float = 1e-9) -> complex:
    """Independent oracle: raw 2D quadrature of the form over the same
    ruled membrane, no logarithms or dilogarithms involved."""
    v1, v2, v3 = _check_vertices(vertices)
    total = 0j
    for lower, upper, legs in _sweep_pieces(v1, v2, v3):
        _check_piece_clearance(lower, upper, legs)
        for y0, y1 in legs:
            dy = y1 - y0

            def f(s, t, lower=lower, upper=upper, y0=y0, dy=dy):
                y = y0 + s * dy
                xl = lower.x_at(y)
                xu = upper.x_at(y)
                x = xl + t * (xu - xl)
                return (xu - xl) / x * (dy / y)

            total += double_integral(f, tol / 3.0)
    return total


# ---------------------------------------------------------------------------
# dilogarithm functional equations


@dataclass(frozen=True)
class FunctionalEquationReport:
    samples: int
    max_residual_shift: float
    max_residual_reflect: float

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_shift, self.max_residual_reflect)


def _eq_shift_residual(z: complex) -> float:
    # Li2((z-1)/z) - Li2(z) = -pi^2/6 + log(z) log(1-z) - log(z)^2/2
    lhs = dilog((z - 1.0) / z) - dilog(z)
    lz = cmath.log(z)
    rhs = -ZETA2 + lz * cmath.log(1.0 - z) - 0.5 * lz * lz
    return abs(lhs - rhs)


def _eq_reflect_residual(z: complex) -> float:
    # Li2(1/(1-z)) - Li2(z) = pi^2/6 + log(-z) log(1-z) - log(1-z)^2/2
    lhs = dilog(1.0 / (1.0 - z)) - dilog(z)
    l1z = cmath.log(1.0 - z)
    rhs = ZETA2 + cmath.log(-z) * l1z - 0.5 * l1z * l1z
    return abs(lhs - rhs)


def _off_cuts(z: complex) -> bool:
    """Accept z only when every term of both identities is clear of a cut.

    All cuts involved lie on the real axis (both dilog arguments become
    real >= 1 and the logs become real <= 0 only for real z), so a strip
    around the axis plus small disks at 0 and 1 is excluded.
    """
    if abs(z) < 0.05 or abs(z - 1.0) < 0.05 or abs(z) > 4.0:
        return False
    return abs(z.imag) > 0.01


def check_functional_equations(samples: int = 1000, seed: int = 0) -> FunctionalEquationReport:
    """Residuals of the two transformation identities on rejection-sampled
    points away from every branch cut."""
    rng = random.Random(seed)
    accepted = 0
    worst1 = worst2 = 0.0
    while accepted < samples:
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if not _off_cuts(z):
            continue
        accepted += 1
        worst1 = max(worst1, _eq_shift_residual(z))
        worst2 = max(worst2, _eq_reflect_residual(z))
    return FunctionalEquationReport(accepted, worst1, worst2)


def mu_instance_residuals() -> dict[str, float]:
    """The four specific sixth-root instances used in the closed form:
    the shift identity at z = -mu and z = -1/mu, and the reflection
    identity at the same two points."""
    z1 = -MU_C
    z2 = -1.0 / MU_C
    return {
        "shift at -mu": _eq_shift_residual(z1),
        "shift at -1/mu": _eq_shift_residual(z2),
        "reflect at -mu": _eq_reflect_residual(z1),
        "reflect at -1/mu": _eq_reflect_residual(z2),
    }
