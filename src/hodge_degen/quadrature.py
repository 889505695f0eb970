"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

15-point Kronrod rule with embedded 7-point Gauss error estimate,
bisection-adaptive.  Deterministic: subdivision is driven purely by the
error estimate against the requested absolute tolerance.
"""

from __future__ import annotations

from collections.abc import Callable


class QuadratureError(RuntimeError):
    """The panel budget ran out before the error estimate met the tolerance."""


# the panel budget of one adaptive_quad call
MAX_PANELS = 2000


# QUADPACK qk15 (Piessens et al., 1983): Kronrod nodes, Kronrod weights
# and the weights of the embedded 7-point Gauss rule, whose nodes are
# _XK[1::2].  The tests derive each double from scratch with mpmath.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float):
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    resk = _WK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        x = h * _XK[i]
        pair = f(c - x) + f(c + x)
        resk += _WK[i] * pair
        if i % 2 == 1:
            resg += _WG[i // 2] * pair
    return resk * h, abs(resk - resg) * abs(h)


def adaptive_quad(f: Callable[[float], complex], a: float, b: float, tol: float = 1e-12) -> complex:
    """Integrate f over [a, b] to absolute tolerance tol.

    Globally adaptive: the panel with the worst error estimate is bisected
    until the total estimate meets tol.  Panels at the roundoff floor stop
    counting towards the estimate.  If the budget of ``MAX_PANELS`` panels
    runs out first, :class:`QuadratureError` is raised rather than an
    unconverged value returned.  Deterministic for fixed inputs; the final
    sum runs in interval order.
    """
    import heapq

    a = float(a)
    b = float(b)
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_err = err
    while total_err > tol and len(heap) < MAX_PANELS:
        neg_err, pa, pb, pval = heapq.heappop(heap)
        worst = -neg_err
        if worst <= 1e-16 * (abs(pval) + 1.0) or pb - pa < 1e-15 * max(1.0, abs(pa)):
            # roundoff floor; further splitting cannot help
            heapq.heappush(heap, (0.0, pa, pb, pval))
            total_err -= worst
            continue
        m = 0.5 * (pa + pb)
        v1, e1 = _gk15(f, pa, m)
        v2, e2 = _gk15(f, m, pb)
        heapq.heappush(heap, (-e1, pa, m, v1))
        heapq.heappush(heap, (-e2, m, pb, v2))
        total_err += e1 + e2 - worst
    if not total_err <= tol:  # also catches a NaN estimate
        raise QuadratureError(
            f"error estimate {total_err:.3g} above tol {tol:.3g} after {len(heap)} panels on [{a}, {b}]"
        )
    panels = sorted(heap, key=lambda p: p[1])
    return sum(p[3] for p in panels)


def double_integral(row: Callable[[float], Callable[[float], complex]], tol: float = 1e-10) -> complex:
    """Integrate over the unit square, inner variable first.

    ``row(s)`` returns the inner integrand t -> f(s, t), so that whatever
    depends on s alone is computed once per outer node.  The outer pass
    integrates s -> int_0^1 row(s)(t) dt adaptively; inner integrals run
    at tol / 20 so the outer estimate stays honest.
    """
    inner_tol = tol * 0.05

    def outer(s: float) -> complex:
        return adaptive_quad(row(s), 0.0, 1.0, inner_tol)

    return adaptive_quad(outer, 0.0, 1.0, tol)
