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
from typing import NamedTuple

from .quadrature import adaptive_quad, double_integral

PI = math.pi
ZETA2 = PI * PI / 6.0
MU_C = complex(0.5, math.sqrt(3.0) / 2.0)

# error tolerance of each edge-log integral (so of membrane_integral) and
# of each leg of the 2D oracle membrane_quadrature
_LOG_TOL = 1e-12
_ORACLE_LEG_TOL = 1e-9 / 3.0
# points per leg at which each ruling is checked for clearance from x = 0
_CLEARANCE_SAMPLES = 160
# smallest distance of a y leg from y = 0; the edge-log integrands carry
# a factor 1/y, and a leg 1.7e-4 from y = 0 exhausted the panel budget
_Y_MARGIN = 1e-3


class PathSingularityError(ValueError):
    """An integration path runs into a pole or a log singularity."""


# c_k = B_2k / (2k+1)! for k = 11 down to 1, in Horner order; the exact
# Fraction recurrence behind them is the oracle in the tests
_DILOG_C = (
    2.395218621026187e-19,
    -1.0356517612181247e-17,
    4.518980029619918e-16,
    -1.9939295860721074e-14,
    8.921691020456452e-13,
    -4.0647616451442256e-11,
    1.8978869988971e-09,
    -9.185773074661964e-08,
    4.72411186696901e-06,
    -0.0002777777777777778,
    0.027777777777777776,
)
# pi/3, the largest |u| that dilog's reductions leave, rounded up
_DILOG_U_MAX = 1.0472


def _dilog_series(z: complex) -> complex:
    """Li_2(z) = u - u^2/4 + sum_{k>=1} B_2k u^(2k+1) / (2k+1)!, with
    u = -log(1 - z) (Zagier, "The Dilogarithm Function", 2007).

    With w = u^2 this is u - w/4 + u w P(w), P the degree-10 polynomial
    over ``_DILOG_C``.  The reductions of :func:`dilog` leave |z| <= 1 and
    Re z <= 1/2, where |u| <= pi/3.  Since |B_2k| / (2k)! < 2.2 (2 pi)^(-2k)
    for k >= 2, the terms after k = 11 sum to less than 2e-20 |u| there.
    Outside |u| <= 1.0472 the truncation is not bounded, and ValueError is
    raised rather than an unconverged value returned.
    """
    x, y = z.real, z.imag
    # log|1 - z| through log1p, so that z near 0 keeps its relative precision
    u = complex(-0.5 * math.log1p((x - 2.0) * x + y * y), math.atan2(y, 1.0 - x))
    if abs(u) > _DILOG_U_MAX:
        raise ValueError(f"dilog series outside |u| <= {_DILOG_U_MAX}: z = {z}")
    w = u * u
    p = 0j
    for c in _DILOG_C:
        p = p * w + c
    return u - 0.25 * w + u * w * p


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
    return _dilog_series(z)


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


def log_line_integral(a: complex, b: complex, z0: complex, z1: complex) -> complex:
    """Integral of Log(a + b z)/z along the segment [z0, z1], principal
    branch throughout, to within ``_LOG_TOL``.

    The path must stay clear of z = 0 and of the zero of a + b z, and
    a + b z must stay off the cut of Log: a path on which it crosses or
    runs along the negative real axis raises :class:`PathSingularityError`
    (the membrane routes its legs around the cuts first, see
    :func:`_cut_free_legs`).  One end on the cut is fine.
    """
    a, b, z0, z1 = complex(a), complex(b), complex(z0), complex(z1)
    if _segment_distance_to_zero(z0, z1) < 1e-9:
        raise PathSingularityError(f"path [{z0}, {z1}] passes through z = 0")
    w0 = a + b * z0
    w1 = a + b * z1
    if _segment_distance_to_zero(w0, w1) < 1e-9:
        raise PathSingularityError(f"log argument vanishes on path: a={a}, b={b}")
    if all(w.real < 0 and abs(w.imag) <= 1e-12 * abs(w) for w in (w0, w1)):
        raise PathSingularityError(f"log argument runs along its cut: a={a}, b={b}")
    if _cut_crossing(w0, w1) is not None:
        raise PathSingularityError(f"log argument crosses its cut: a={a}, b={b}, path [{z0}, {z1}]")
    dz = z1 - z0

    def f(s):
        z = z0 + s * dz
        return cmath.log(a + b * z) / z * dz

    return adaptive_quad(f, 0.0, 1.0, _LOG_TOL)


# ---------------------------------------------------------------------------
# membrane integral over a triangle of lines


class _EdgeLine(NamedTuple):
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


def _check_piece_clearance(lower: _EdgeLine, upper: _EdgeLine, legs):
    """The swept rulings must stay clear of x = 0, and the y path must keep
    ``_Y_MARGIN`` from y = 0."""
    for y0, y1 in legs:
        if _segment_distance_to_zero(y0, y1) < _Y_MARGIN:
            raise PathSingularityError(f"sweep path passes within {_Y_MARGIN} of y = 0")
        for k in range(_CLEARANCE_SAMPLES + 1):
            y = y0 + (k / _CLEARANCE_SAMPLES) * (y1 - y0)
            if _segment_distance_to_zero(lower.x_at(y), upper.x_at(y)) < 1e-9:
                raise PathSingularityError("ruling passes through x = 0")


def _membrane_legs(vertices):
    """The checked legs of the membrane, as (lower, upper, y0, y1).

    The vertices are validated and both sweep pieces are cleared of x = 0
    and y = 0 before any leg is handed out, so neither the integral nor
    its oracle starts integrating a membrane that is later refused.
    """
    pieces = _sweep_pieces(*_check_vertices(vertices))
    for lower, upper, legs in pieces:
        _check_piece_clearance(lower, upper, legs)
    return [(lower, upper, y0, y1) for lower, upper, legs in pieces for y0, y1 in legs]


def membrane_integral(vertices) -> complex:
    """Integral of dx/x ^ dy/y over the membrane spanned by the triangle.

    ``vertices`` are three chart points (x, y); the sweep runs from the
    first through the second to the third, with the inner integral bounded
    below by the line through the first and last vertex.  Each inner
    integral reduces to a difference of edge logarithms, all kept on the
    principal branch by the waypoint routing, so the value reproduces the
    endpoint evaluation of the dilogarithm antiderivatives term by term.

    The inner integral over a ruling is Log(x_u / x_l), which differs from
    Log x_u - Log x_l by 2 pi i k.  Neither log crosses its cut inside a
    leg and the ruling misses x = 0, so k is constant on a leg and is read
    at its midpoint; it is nonzero when the two edges leave a vertex on
    the cut of x to opposite sides, and the leg then gains
    -2 pi i k Log(y1 / y0).
    """
    total = 0j
    for lower, upper, y0, y1 in _membrane_legs(vertices):
        total += log_line_integral(upper.p, upper.q, y0, y1)
        total -= log_line_integral(lower.p, lower.q, y0, y1)
        xl, xu = lower.x_at(0.5 * (y0 + y1)), upper.x_at(0.5 * (y0 + y1))
        k = round((cmath.log(xu) - cmath.log(xl) - cmath.log(xu / xl)).imag / (2.0 * PI))
        if k:
            total -= 2j * PI * k * cmath.log(y1 / y0)
    return total


def membrane_quadrature(vertices) -> complex:
    """Independent oracle: raw 2D quadrature of the form over the same
    ruled membrane, no logarithms or dilogarithms involved."""
    total = 0j
    for lower, upper, y0, y1 in _membrane_legs(vertices):
        dy = y1 - y0

        def row(s, lower=lower, upper=upper, y0=y0, dy=dy):
            # the ruling at y: x = xl + t d, with the form (d / x) dt (dy / y)
            y = y0 + s * dy
            xl = lower.x_at(y)
            d = upper.x_at(y) - xl
            k = dy / y
            return lambda t: d / (xl + t * d) * k

        total += double_integral(row, _ORACLE_LEG_TOL)
    return total


# ---------------------------------------------------------------------------
# dilogarithm functional equations


class FunctionalEquationReport(NamedTuple):
    samples: int
    max_residual_shift: float
    max_residual_reflect: float

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_shift, self.max_residual_reflect)


def _residuals(z: complex) -> tuple[float, float]:
    """|lhs - rhs| of the shift and of the reflection identity at z, which
    share Li2(z) and log(1-z):

        Li2((z-1)/z) - Li2(z) = -pi^2/6 + log(z) log(1-z) - log(z)^2/2
        Li2(1/(1-z)) - Li2(z) = pi^2/6 + log(-z) log(1-z) - log(1-z)^2/2
    """
    li = dilog(z)
    lz = cmath.log(z)
    l1z = cmath.log(1.0 - z)
    shift = dilog((z - 1.0) / z) - li - (-ZETA2 + lz * l1z - 0.5 * lz * lz)
    reflect = dilog(1.0 / (1.0 - z)) - li - (ZETA2 + cmath.log(-z) * l1z - 0.5 * l1z * l1z)
    return abs(shift), abs(reflect)


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
        shift, reflect = _residuals(z)
        worst1 = max(worst1, shift)
        worst2 = max(worst2, reflect)
    return FunctionalEquationReport(accepted, worst1, worst2)


def mu_instance_residuals() -> dict[str, float]:
    """The four specific sixth-root instances used in the closed form:
    the shift identity at z = -mu and z = -1/mu, and the reflection
    identity at the same two points."""
    (s1, r1), (s2, r2) = _residuals(-MU_C), _residuals(-1.0 / MU_C)
    return {"shift at -mu": s1, "shift at -1/mu": s2, "reflect at -mu": r1, "reflect at -1/mu": r2}
