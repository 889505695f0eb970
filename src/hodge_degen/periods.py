"""Dilogarithm numerics and the period integral over the line triangle.

The membrane of dx/x ^ dy/y over a triangle whose edges lie on three
lines is ruled: over each point y of a path in the y coordinate it holds
the segment from the lower edge's x_l(y) to the upper edge's x_u(y).  A
leg of the path is the plain tuple (pl, ql, pu, qu, y0, y1): the edges
x_l = pl + ql y and x_u = pu + qu y over the straight y path from y0 to
y1.  :func:`_sweep_legs` validates the vertices, builds the edges and
routes the path around the zeros of the edges (:func:`_cut_free_legs`),
which fixes the membrane.  :func:`_check_leg` tests each leg exactly for
rulings through x = 0 and for its distance from y = 0, and
:func:`_membrane_legs` hands out the list only when every leg passes.
The inner integral over a ruling is then Log(x_u / x_l), and the
membrane integral is one quadrature of Log(x_u / x_l) dy / y per leg;
the same checked list drives the independent raw 2D quadrature oracle.
"""

from __future__ import annotations

import cmath
import math
import random

from .exactlin import _Frozen, cyclo_embed
from .quadrature import adaptive_quad, double_integral

PI = math.pi
ZETA2 = PI * PI / 6.0
MU_C = cyclo_embed((0, 1))

# error tolerance of the integral over each leg of membrane_integral and
# of each leg of the 2D oracle membrane_quadrature
_LOG_TOL = 1e-12
_ORACLE_LEG_TOL = 1e-9 / 3.0
# smallest distance of a ruling from x = 0 at the points where the exact
# test takes it; it only absorbs round-off at an exact crossing, and the
# accepted count of random triangle sweeps is the same for every margin
# from 1e-12 to 1e-4
_X_MARGIN = 1e-9
# smallest distance of a y leg from y = 0; the leg integrands carry a
# factor 1/y, and a leg 1.7e-4 from y = 0 exhausted the panel budget
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
    -pi^2/6, imaginary part the limit invariant L = -6 Im Li_2(-mu) =
    6 Cl_2(2 pi/3) > 4, the one value of L that ``pairing`` checks too.
    L is taken by the Clausen route: it lands on the double nearest the
    true value (error 2.8e-16), where -6 Im Li_2(-mu) lands one ulp
    below it (6.0e-16).  The sign convention follows the sweep
    orientation of :func:`membrane_integral`, i.e. membrane over the
    distinguished triangle = -AJ.
    """
    return complex(-ZETA2, 6.0 * clausen(2.0 * PI / 3.0))


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


# ---------------------------------------------------------------------------
# membrane integral over a triangle of lines


def _edge_through(v0, v1) -> tuple[complex, complex]:
    """(p, q) of x = p + q y, the chart equation of the line through two
    vertices."""
    (x0, y0), (x1, y1) = v0, v1
    if abs(y1 - y0) < 1e-14:
        raise PathSingularityError("edge with constant y; sweep coordinate degenerate")
    q = (x1 - x0) / (y1 - y0)
    return x0 - q * y0, q


def _cut_free_legs(edges, y0: complex, y1: complex, depth: int = 0):
    """Split [y0, y1] so that on no leg does an edge's x cross the
    negative real axis.

    This picks the membrane that is integrated.  Where x = p + q y of an
    edge would cross the negative real axis, the path goes round the zero
    -p/q through the waypoint where p + q y is positive real with the
    geometric-mean modulus of the endpoint values.  On the tempered
    triangle the straight path sweeps a ruling through x = 0: Log(x_u / x_l)
    jumps there, its integral along the straight path is -0.744 - 4.060i
    instead of zeta(2) - 4.060i, and the 2D oracle does not converge.
    """
    for p, q in edges:
        x0, x1 = p + q * y0, p + q * y1
        if _cut_crossing(x0, x1) is not None:
            if depth >= 8:
                raise PathSingularityError("cannot route sweep path around the cuts of x")
            r = math.sqrt(abs(x0) * abs(x1))
            if r < 1e-9:
                raise PathSingularityError("edge line passes through x = 0 at a vertex")
            yw = (r - p) / q
            return _cut_free_legs(edges, y0, yw, depth + 1) + _cut_free_legs(edges, yw, y1, depth + 1)
    return [(y0, y1)]


def _sweep_legs(vertices):
    """The routed legs of the membrane, as (pl, ql, pu, qu, y0, y1), not
    yet cleared of x = 0 and y = 0.

    x = pl + ql y is the lower edge, the line through the first and last
    vertex, and x = pu + qu y the upper edge, the line through the first
    and second vertex and then through the second and third; y runs
    v1 -> v2 -> v3.  On no leg does either edge's x cross its cut.
    """
    vs = [(complex(x), complex(y)) for x, y in vertices]
    if len(vs) != 3:
        raise ValueError("need exactly 3 vertices")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(vs[i][0] - vs[j][0]) < 1e-12 and abs(vs[i][1] - vs[j][1]) < 1e-12:
                raise ValueError("degenerate triangle: repeated vertex")
    v1, v2, v3 = vs
    lower = _edge_through(v1, v3)
    legs = []
    for upper, ya, yb in ((_edge_through(v1, v2), v1[1], v2[1]), (_edge_through(v2, v3), v2[1], v3[1])):
        legs += [(*lower, *upper, y0, y1) for y0, y1 in _cut_free_legs((lower, upper), ya, yb)]
    return legs


def _check_leg(pl, ql, pu, qu, y0, y1) -> None:
    """The rulings swept along a leg must stay clear of x = 0, and the leg
    must keep ``_Y_MARGIN`` from y = 0.

    On the leg y = y0 + s (y1 - y0), 0 <= s <= 1, the ruling at s is the
    segment from x_l = A + B s to x_u = E + F s.  It meets x = 0 exactly
    when x_u conj x_l is real and <= 0, so only at a real root s of the
    quadratic Im(x_u conj x_l) = a s^2 + b s + c.  Each ruling's distance
    from 0 is taken at s = 0 and s = 1, at the roots (the real part of a
    complex pair, the one root when a = 0) and at the points
    nearest the zeros of x_l and x_u, all clamped to the leg; a leg with a
    distance below ``_X_MARGIN`` is refused.  The zeros of x_l and x_u
    cover the identically zero quadratic, where every ruling lies on a
    line through 0 and can reach it only at an end of the leg or where
    x_l or x_u vanishes.
    """
    if _segment_distance_to_zero(y0, y1) < _Y_MARGIN:
        raise PathSingularityError(f"sweep path passes within {_Y_MARGIN} of y = 0")
    dy = y1 - y0
    A, B = pl + ql * y0, ql * dy
    E, F = pu + qu * y0, qu * dy
    a = (F * B.conjugate()).imag
    b = (E * B.conjugate() + F * A.conjugate()).imag
    c = (E * A.conjugate()).imag
    ss = [0.0, 1.0] + [(-p / q).real for p, q in ((A, B), (E, F)) if q]
    if a:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            ss.append(-b / (2.0 * a))
        else:
            # the root of larger modulus first, then the other from the
            # product of the roots, so neither cancels
            h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            ss += [h / a, c / h] if h else [0.0]
    elif b:
        ss.append(-c / b)
    for s in ss:
        s = min(1.0, max(0.0, s))
        if _segment_distance_to_zero(A + s * B, E + s * F) < _X_MARGIN:
            raise PathSingularityError("ruling passes through x = 0")


def _membrane_legs(vertices):
    """The checked legs of the membrane, as (pl, ql, pu, qu, y0, y1).

    Every leg is cleared of x = 0 and y = 0 before any is handed out, so
    neither the integral nor its oracle starts integrating a membrane that
    is later refused.
    """
    legs = _sweep_legs(vertices)
    for leg in legs:
        _check_leg(*leg)
    return legs


def membrane_integral(vertices) -> complex:
    """Integral of dx/x ^ dy/y over the membrane spanned by the triangle.

    ``vertices`` are three chart points (x, y); the sweep runs from the
    first through the second to the third, with the inner integral bounded
    below by the line through the first and last vertex.  The inner
    integral over the ruling from x_l to x_u is Log(x_u / x_l) on the
    principal branch, because the ruling misses x = 0 and so subtends an
    angle below pi at it.  Each leg is one quadrature of
    Log(x_u / x_l) dy / y to within ``_LOG_TOL``.
    """
    total = 0j
    for pl, ql, pu, qu, y0, y1 in _membrane_legs(vertices):
        dy = y1 - y0

        def f(s, pl=pl, ql=ql, pu=pu, qu=qu, y0=y0, dy=dy):
            y = y0 + s * dy
            return cmath.log((pu + qu * y) / (pl + ql * y)) / y * dy

        total += adaptive_quad(f, 0.0, 1.0, _LOG_TOL)
    return total


def membrane_quadrature(vertices) -> complex:
    """Independent oracle: raw 2D quadrature of the form over the same
    ruled membrane, no logarithms or dilogarithms involved."""
    total = 0j
    for pl, ql, pu, qu, y0, y1 in _membrane_legs(vertices):
        dy = y1 - y0

        def row(s, pl=pl, ql=ql, pu=pu, qu=qu, y0=y0, dy=dy):
            # the ruling at y: x = xl + t d, with the form (d / x) dt (dy / y)
            y = y0 + s * dy
            xl = pl + ql * y
            d = pu + qu * y - xl
            k = dy / y
            return lambda t: d / (xl + t * d) * k

        total += double_integral(row, _ORACLE_LEG_TOL)
    return total


# ---------------------------------------------------------------------------
# dilogarithm functional equations


class FunctionalEquationReport(_Frozen):
    __slots__ = ("samples", "max_residual")
    samples: int
    max_residual: float  # worst residual over both identities


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
    worst = 0.0
    while accepted < samples:
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if not _off_cuts(z):
            continue
        accepted += 1
        shift, reflect = _residuals(z)
        # max keeps a NaN only as its first argument, so a NaN residual
        # is made the worst by hand and then stays it
        worst = math.nan if math.isnan(shift + reflect) else max(worst, shift, reflect)
    return FunctionalEquationReport(accepted, worst)


def mu_instance_residuals() -> dict[str, float]:
    """The four specific sixth-root instances used in the closed form:
    the shift identity at z = -mu and z = -1/mu, and the reflection
    identity at the same two points."""
    (s1, r1), (s2, r2) = _residuals(-MU_C), _residuals(-1.0 / MU_C)
    return {"shift at -mu": s1, "shift at -1/mu": s2, "reflect at -mu": r1, "reflect at -1/mu": r2}
