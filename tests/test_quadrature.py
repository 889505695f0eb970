"""Quadrature engine sanity checks against closed-form integrals."""

import cmath
import math

import pytest

from hodge_degen.quadrature import adaptive_quad, double_integral


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


def test_double_integral_separable():
    got = double_integral(lambda s, t: s * cmath.exp(1j * t), tol=1e-11)
    want = 0.5 * (cmath.exp(1j) - 1) / 1j
    assert abs(got - want) < 1e-10
