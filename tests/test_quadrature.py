"""Quadrature engine sanity checks against closed-form integrals."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from hodge_degen import quadrature
from hodge_degen.quadrature import _WG, _WK, _XK, QuadratureError, _gk15, adaptive_quad, double_integral


def test_polynomial():
    assert adaptive_quad(lambda x: x * x, 0, 1) == pytest.approx(1 / 3, abs=1e-14)


def test_oscillatory():
    got = adaptive_quad(lambda x: cmath.exp(40j * x), 0.0, 1.0, tol=1e-13)
    want = (cmath.exp(40j) - 1) / 40j
    assert abs(got - want) < 1e-12


def test_peaked():
    got = adaptive_quad(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, tol=1e-11)
    want = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert abs(got - want) < 1e-8


def test_exhausted_budget_raises(monkeypatch):
    # 50 panels leave 1/sqrt(x) about 2e-9 off, far above tol; no value comes back
    monkeypatch.setattr(quadrature, "MAX_PANELS", 50)
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, tol=1e-14)


@pytest.mark.parametrize("f", [lambda x: 1.0 / x, lambda x: x**-1.5], ids=["1/x", "x^-1.5"])
def test_divergent_raises(f):
    # the panel at 0 reaches the width floor with an error far above
    # roundoff; it may not leave the estimate
    with pytest.raises(QuadratureError, match="too narrow to split"):
        adaptive_quad(f, 0.0, 1.0)


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_width_floor_is_never_converged(tol):
    # 1/sqrt(x) integrates to 2, but the panel at 0 reaches the width
    # floor with an error of about 2e-9: either a refusal or a value
    # within tol
    try:
        got = adaptive_quad(lambda x: x**-0.5, 0.0, 1.0, tol)
    except QuadratureError:
        return
    assert abs(got - 2.0) <= tol


BELOW_ROUNDOFF = """
import cmath
from hodge_degen.quadrature import adaptive_quad

f = lambda x: cmath.exp(3j * x) / (1.1 + x)
print(adaptive_quad(f, 0.0, 1.0, 1e-300) == adaptive_quad(f, 0.0, 1.0, 1e-12))
"""


def test_tol_below_roundoff_returns():
    # every panel reaches the roundoff floor while float drift keeps the
    # running estimate above tol; the call must still return, and with the
    # value it has at a reachable tol.  A fresh process, so a hang fails by
    # timeout instead of stalling the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadrature.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", BELOW_ROUNDOFF], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
    # at tol 0 every panel ends at the roundoff floor and leaves the queue;
    # the sum still counts it.  sin(30x) needs splitting first (the first
    # estimate for exp is already 0.0, so its loop never runs)
    want = (1 - math.cos(30.0)) / 30.0
    assert adaptive_quad(lambda x: math.sin(30.0 * x), 0.0, 1.0, 0.0) == pytest.approx(want, abs=1e-16)


@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.nan if x > 0.9 else 1.0])
def test_nan_estimate_raises(f):
    with pytest.raises(QuadratureError):
        adaptive_quad(f, 0.0, 1.0)


def test_double_integral_separable():
    got = double_integral(lambda s: lambda t: s * cmath.exp(1j * t), tol=1e-11)
    want = 0.5 * (cmath.exp(1j) - 1) / 1j
    assert abs(got - want) < 1e-10


def _gk15_from_scratch():
    """Kronrod nodes, Kronrod weights, Gauss nodes and Gauss weights of the
    15-point rule and its embedded 7-point rule at 50 digits, for the nodes
    x >= 0 in decreasing order.

    The Kronrod nodes are the roots of the Stieltjes polynomial E_8, the
    monic even octic orthogonal to x^(2i+1) P_7(x) for i = 0..3; both
    systems of weights make the even moments 0..2(n-1) exact.
    """
    p7 = {7: Fraction(429, 16), 5: Fraction(-693, 16), 3: Fraction(315, 16), 1: Fraction(-35, 16)}

    def moment(k):  # int_{-1}^{1} x^k P_7(x) dx, exactly
        return sum(c * Fraction(2, k + e + 1) for e, c in p7.items() if (k + e) % 2 == 0)

    def mpf(q):
        return mp.mpf(q.numerator) / q.denominator

    def weights(nodes):
        rows = [[2 * x ** (2 * i) if x else int(i == 0) for x in nodes] for i in range(len(nodes))]
        return list(mp.lu_solve(mp.matrix(rows), mp.matrix([mp.mpf(2) / (2 * i + 1) for i in range(len(nodes))])))

    with mp.workdps(50):
        a = mp.lu_solve(
            mp.matrix([[mpf(moment(2 * i + 2 * j + 1)) for j in range(4)] for i in range(4)]),
            mp.matrix([-mpf(moment(2 * i + 9)) for i in range(4)]),
        )
        new = [mp.sqrt(t) for t in mp.polyroots([1, a[3], a[2], a[1], a[0]], maxsteps=200, extraprec=200)]
        gauss = [mp.sqrt(t) for t in mp.polyroots([429, -693, 315, -35], maxsteps=200, extraprec=200)]
        gauss = sorted(gauss, reverse=True) + [mp.mpf(0)]
        kronrod = sorted(new + gauss, reverse=True)
        return kronrod, weights(kronrod), gauss, weights(gauss)


def test_gk15_constants_are_correctly_rounded():
    xk, wk, xg, wg = _gk15_from_scratch()
    assert _XK == tuple(float(x) for x in xk)
    assert _WK == tuple(float(w) for w in wk)
    assert _XK[1::2] == tuple(float(x) for x in xg)  # the Gauss nodes
    assert _WG == tuple(float(w) for w in wg)


def test_gk15_exact_on_monomials():
    # Kronrod is exact through degree 22, its Gauss rule through 13; in
    # doubles both land within 4 ulp of 2/(k+1) (odd k cancel exactly)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, _ = _gk15(lambda x: x**k, -1.0, 1.0)
        assert abs(kronrod - exact) <= 4 * math.ulp(exact), k
        if k <= 13:
            gauss = _WG[3] * 0.0**k + sum(w * ((-x) ** k + x**k) for w, x in zip(_WG[:3], _XK[1::2]))
            assert abs(gauss - exact) <= 4 * math.ulp(exact), k
