"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

15-point Kronrod rule with embedded 7-point Gauss error estimate,
bisection-adaptive.  Deterministic: subdivision is driven purely by the
error estimate against the requested absolute tolerance.
"""

from __future__ import annotations

from typing import Callable

_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a: float, b: float):
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    resk = _WK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        x = h * _XK[i]
        f1 = f(c - x)
        f2 = f(c + x)
        resk += _WK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    return resk * h, abs(resk - resg) * abs(h)


def adaptive_quad(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_panels: int = 2000,
) -> complex:
    """Integrate f over [a, b] to absolute tolerance tol.

    Globally adaptive: the panel with the worst error estimate is bisected
    until the total estimate meets tol or the panel budget is exhausted.
    Deterministic for fixed inputs; the final sum runs in interval order.
    """
    import heapq

    a = float(a)
    b = float(b)
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_err = err
    while total_err > tol and len(heap) < max_panels:
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
    panels = sorted(heap, key=lambda p: p[1])
    return sum(p[3] for p in panels)


def double_integral(f: Callable[[float, float], complex], tol: float = 1e-10) -> complex:
    """Integrate f over the unit square, inner variable first.

    The outer pass integrates s -> int_0^1 f(s, t) dt adaptively; inner
    integrals run at tol / 20 so the outer estimate stays honest.
    """
    inner_tol = tol * 0.05

    def outer(s: float) -> complex:
        return adaptive_quad(lambda t: f(s, t), 0.0, 1.0, inner_tol)

    return adaptive_quad(outer, 0.0, 1.0, tol)
