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
The inner integral over a ruling is then Log(x_u / x_l), and
:func:`membrane_integral` takes the integral of Log(x_u / x_l) dy / y
over each leg in closed form, through logarithms and dilogarithms; the
same checked list drives the independent raw 2D quadrature oracle.
"""

from __future__ import annotations

import cmath
import math
import random

from .exactlin import cyclo_embed
from .quadrature import double_integral

PI = math.pi
ZETA2 = PI * PI / 6.0
MU_C = cyclo_embed((0, 1))

# error tolerance of the integral over each leg of the 2D oracle
# membrane_quadrature
_ORACLE_LEG_TOL = 1e-9 / 3.0
# largest distance from an integer of a branch number of membrane_integral
# read in floating point; on the seeded sweeps of the tests round-off
# leaves it below 1e-14
_BRANCH_TOL = 1e-6
# largest |Im z| / Re z of an end of a leg piece that is taken on the cut
# of Li_2(z): a waypoint or vertex where 1 + q y / p is negative real in
# exact arithmetic comes out a few ulp off it, on either side
_CUT_ROUNDOFF = 1e-12
# smallest distance of a ruling from x = 0 at the points where the exact
# test takes it; it only absorbs round-off at an exact crossing, and the
# accepted count of random triangle sweeps is the same for every margin
# from 1e-12 to 1e-4
_X_MARGIN = 1e-9
# smallest distance of a y leg from y = 0.  The closed form needs only a
# leg that misses y = 0; the margin serves the oracles that integrate the
# same checked legs, with a factor 1/y in the integrand: the 2D quadrature
# of ``aj --oracle`` and ``tests/oracle.log_membrane``.  At a margin of
# 1e-9 the seeded sweeps of the tests would accept 3 more of the 3,000
# uniform triangles (seed 5; legs 1.8e-4 to 9.6e-4 from y = 0, each within
# 8.4e-16 relative of mpmath) and none more of the grid ones (seed 3)
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
    if not all(cmath.isfinite(c) for v in vs for c in v):
        raise ValueError("vertex coordinates must be finite")
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
    distance below ``_X_MARGIN``, or NaN, is refused.  The zeros of x_l
    and x_u cover the identically zero quadratic, where every ruling lies
    on a line through 0 and can reach it only at an end of the leg or
    where x_l or x_u vanishes.
    """
    if not _segment_distance_to_zero(y0, y1) >= _Y_MARGIN:
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
        if not _segment_distance_to_zero(A + s * B, E + s * F) >= _X_MARGIN:
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


def _branch(w: complex) -> int:
    """The integer n of w = 2 pi i n, for a difference w of logarithms
    that agree up to whole turns.  A quotient w.imag / 2 pi farther than
    ``_BRANCH_TOL`` from an integer, NaN included, is refused rather than
    rounded."""
    t = w.imag / (2.0 * PI)
    if not (math.isfinite(t) and abs(t - round(t)) <= _BRANCH_TOL):
        raise PathSingularityError(f"branch number {t} is not an integer")
    return round(t)


def _li2_from(z: complex, zc: complex) -> complex:
    """Li_2 at an end z of a piece of a y leg whose interior holds zc.

    An end on the cut [1, oo), or off it by round-off only, is taken on
    the cut from the piece's own side, which is zc's: dilog gives the
    upper side, its conjugate the lower one.
    """
    if z.real > 1.0 and abs(z.imag) <= _CUT_ROUNDOFF * z.real:
        v = dilog(z.real)
        return v.conjugate() if zc.imag < 0.0 else v
    return dilog(z)


def _edge_log_integral(p: complex, q: complex, y0: complex, y1: complex, ym: complex) -> complex:
    """E(p, q) = int Log(p + q y) dy / y over the straight leg from y0 to
    y1, on the branch of the principal Log at the leg's midpoint ym."""
    rho = cmath.log(y1 / y0)
    if p == 0:
        # Log(q y) = Log(q ym) + Log(y / ym) along the whole leg; p + q ym
        # is bit for bit the x that the leg's k is read from
        return (cmath.log(p + q * ym) - cmath.log(ym / y0)) * rho + 0.5 * rho * rho
    w0, w1 = 1.0 + q * y0 / p, 1.0 + q * y1 / p
    # the ends of the pieces as (y, z) with z = 1 - w = -q y / p; the split
    # point's z is put on the real axis, where the cut of Li_2 lies
    ends = [(y0, 1.0 - w0), (y1, 1.0 - w1)]
    s = _cut_crossing(w0, w1)
    if s is not None:
        ends.insert(1, (y0 + s * (y1 - y0), complex(1.0 - (w0 + s * (w1 - w0)).real, 0.0)))
    lp = cmath.log(p)
    total = 0j
    for (ya, za), (yb, zb) in zip(ends, ends[1:]):
        yc = ym if s is None else 0.5 * (ya + yb)
        zc = 0.5 * (za + zb)
        # Log(1 - zc) on the side of the cut that _li2_from takes for zc
        lw = cmath.log(complex(1.0 - zc.real, -zc.imag if zc.imag else -0.0))
        n = _branch(cmath.log(p + q * yc) - lp - lw)
        total += (lp + 2j * PI * n) * cmath.log(yb / ya) - (_li2_from(zb, zc) - _li2_from(za, zc))
    return total


def _leg_integral(pl, ql, pu, qu, y0, y1) -> complex:
    """int Log(x_u / x_l) dy / y over one checked leg, in closed form."""
    ym = 0.5 * (y0 + y1)
    xl, xu = pl + ql * ym, pu + qu * ym
    k = _branch(cmath.log(xu / xl) - cmath.log(xu) + cmath.log(xl))
    return (
        _edge_log_integral(pu, qu, y0, y1, ym)
        - _edge_log_integral(pl, ql, y0, y1, ym)
        + 2j * PI * k * cmath.log(y1 / y0)
    )


def membrane_integral(vertices) -> complex:
    """Integral of dx/x ^ dy/y over the membrane spanned by the triangle,
    in closed form: logarithms and dilogarithms, no quadrature.

    ``vertices`` are three chart points (x, y); the sweep runs from the
    first through the second to the third, with the inner integral bounded
    below by the line through the first and last vertex.  The inner
    integral over the ruling from x_l to x_u is Log(x_u / x_l) on the
    principal branch, because the ruling misses x = 0 and so subtends an
    angle below pi at it.  On each checked leg (pl, ql, pu, qu, y0, y1):

    - Log(x_u / x_l) = Log x_u - Log x_l + 2 pi i k.  All three logs are
      continuous on the leg: the rulings miss x = 0 and neither edge's x
      crosses its cut.  So k is constant, read at the leg's midpoint; it
      is nonzero only when a vertex lies on the cut of x.
    - The leg gives E(pu, qu) - E(pl, ql) + 2 pi i k Log(y1 / y0), with
      E(p, q) = int Log(p + q y) dy / y.  Log(y1 / y0) = int dy / y,
      because a straight leg that misses y = 0 subtends an angle below pi.
    - p != 0: Log(p + q y) = Log p + Log(1 + q y / p) + 2 pi i n, and
      int_0^z log(1 - t) / t dt = -Li_2(z) gives the antiderivative
      -Li_2(-q y / p) of Log(1 + q y / p) / y.  The leg is split at most
      once, where 1 + q y / p crosses (-oo, 0] and Li_2 its cut
      (:func:`_cut_crossing`).  Each piece [ya, yb] adds
      (Log p + 2 pi i n) Log(yb / ya) - (Li_2(-q yb / p) - Li_2(-q ya / p)),
      with n read at the piece's midpoint, and Li_2 at an end on the cut
      taken from the piece's own side (:func:`_li2_from`).
    - p = 0, an edge through the chart origin: Log(q y) = Log(q ym) +
      Log(y / ym) on the whole leg, since both sides are continuous and
      agree at ym, so E = (Log(q ym) - Log(ym / y0)) rho + rho^2 / 2 with
      rho = Log(y1 / y0).

    Every branch number is read in floating point, and one farther than
    ``_BRANCH_TOL`` from an integer is refused with PathSingularityError.
    """
    return sum((_leg_integral(*leg) for leg in _membrane_legs(vertices)), 0j)


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


def check_functional_equations(samples: int = 1000, seed: int = 0) -> tuple[int, float]:
    """Residuals of the two transformation identities on rejection-sampled
    points away from every branch cut, as the pair ``(samples,
    max_residual)``: the number of points accepted and the worst residual
    over both identities, NaN when any residual is NaN."""
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
    return accepted, worst


def mu_instance_residuals() -> dict[str, float]:
    """The four specific sixth-root instances used in the closed form:
    the shift identity at z = -mu and z = -1/mu, and the reflection
    identity at the same two points."""
    (s1, r1), (s2, r2) = _residuals(-MU_C), _residuals(-1.0 / MU_C)
    return {"shift at -mu": s1, "shift at -1/mu": s2, "reflect at -mu": r1, "reflect at -1/mu": r2}
