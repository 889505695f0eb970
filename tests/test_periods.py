"""Dilogarithm, functional equations, and the membrane period integral.

Oracles: mpmath's independent polylog implementation, the raw power
series inside its disk of fast convergence, and plain Gauss-Kronrod
quadrature of the integrands.  Frozen values below were produced by
those oracles.

Frozen oracle values:
    Cl2(2 pi/3)          = 0.6766277376064357
    Cl2(pi/2) (Catalan)  = 0.9159655941772190
    6 Cl2(2 pi/3)        = 4.0597664256386145
    int_1^2 log(1+z)/z   = 0.6142793334595668
    first sweep piece    = -0.5621021368136293 - 2.2161035490186722j
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from hodge_degen.arrangement import sweep_vertices, tempered_arrangement
from hodge_degen.exactlin import cyclo_embed
from hodge_degen.periods import (
    PI,
    ZETA2,
    MU_C,
    PathSingularityError,
    aj_closed_form,
    check_functional_equations,
    clausen,
    dilog,
    log_line_integral,
    membrane_integral,
    membrane_quadrature,
    mu_instance_residuals,
)
from hodge_degen.quadrature import adaptive_quad

CL2_2PI3 = 0.6766277376064357
CATALAN = 0.9159655941772190
L_VALUE = 4.0597664256386145


def series_dilog(z, terms=300):
    """Oracle: raw power series, |z| < 0.8."""
    acc = 0j
    zp = z
    for k in range(1, terms + 1):
        acc += zp / (k * k)
        zp *= z
    return acc


@pytest.fixture(scope="module")
def tempered_verts():
    arr = tempered_arrangement()
    return [(cyclo_embed(x), cyclo_embed(y)) for x, y in sweep_vertices(arr, 4, 1, 2, 3)]


class TestDilog:
    def test_special_points(self):
        assert dilog(0) == 0
        assert dilog(1) == pytest.approx(ZETA2, abs=1e-15)

    def test_at_minus_mu(self):
        got = dilog(-MU_C)
        assert got.imag == pytest.approx(-CL2_2PI3, abs=1e-14)
        ref = complex(mp.polylog(2, mp.mpc(-MU_C.real, -MU_C.imag)))
        assert abs(got - ref) < 1e-14

    def test_series_oracle_inside_disk(self):
        rng = random.Random(2)
        for _ in range(50):
            z = cmath.rect(rng.uniform(0.05, 0.7), rng.uniform(-PI, PI))
            assert abs(dilog(z) - series_dilog(z)) < 1e-13

    def test_accuracy_against_mpmath(self):
        rng = random.Random(3)
        for _ in range(400):
            z = cmath.rect(10 ** rng.uniform(-3, 6), rng.uniform(-PI, PI))
            if abs(z - 1) < 1e-6 or z.imag == 0:
                continue
            ref = complex(mp.polylog(2, mp.mpc(z.real, z.imag)))
            assert abs(dilog(z) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_cut_side_is_upper(self):
        # on [1, oo) values continue from above: Im = +pi log x
        for x in (2.0, 10.0, 1.5):
            assert dilog(x).imag == pytest.approx(PI * math.log(x), abs=1e-13)

    def test_inversion_identity(self):
        rng = random.Random(4)
        count = 0
        while count < 1000:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.05 or (abs(z.imag) < 1e-3 and z.real > 0):
                continue
            count += 1
            lhs = dilog(z) + dilog(1.0 / z)
            lz = cmath.log(-z)
            rhs = -ZETA2 - 0.5 * lz * lz
            assert abs(lhs - rhs) < 1e-12


class TestClausen:
    def test_zero_and_catalan(self):
        assert clausen(0.0) == pytest.approx(0.0, abs=1e-15)
        assert clausen(PI / 2) == pytest.approx(CATALAN, abs=1e-14)

    def test_value_at_two_thirds_pi(self):
        assert clausen(2 * PI / 3) == pytest.approx(CL2_2PI3, abs=1e-14)

    def test_odd_and_periodic(self):
        rng = random.Random(6)
        for _ in range(40):
            th = rng.uniform(-10, 10)
            assert clausen(-th) == pytest.approx(-clausen(th), abs=1e-12)
            assert clausen(th + 2 * PI) == pytest.approx(clausen(th), abs=1e-11)

    def test_duplication(self):
        for th in (0.3, 1.1, 2.0, PI / 3):
            assert clausen(2 * th) == pytest.approx(
                2 * clausen(th) - 2 * clausen(PI - th), abs=1e-12
            )


class TestFunctionalEquations:
    def test_sampled_residuals(self):
        rep = check_functional_equations(1000, seed=0)
        assert rep.samples == 1000
        assert rep.max_residual < 1e-12

    def test_at_minus_one(self):
        z = -1.0 + 0j
        lhs = dilog((z - 1) / z) - dilog(z)
        rhs = -ZETA2 + cmath.log(z) * cmath.log(1 - z) - 0.5 * cmath.log(z) ** 2
        assert abs(lhs - rhs) < 1e-13

    def test_mu_instances(self):
        for name, res in mu_instance_residuals().items():
            assert res < 1e-13, name

    def test_seed_changes_samples_not_verdict(self):
        assert check_functional_equations(200, seed=9).max_residual < 1e-12

    def test_sampler_rejects_cut_points(self):
        from hodge_degen.periods import _off_cuts

        assert not _off_cuts(2.0 + 0j)       # on the dilog cut
        assert not _off_cuts(0.5 + 0.001j)   # too close to the axis cuts
        assert not _off_cuts(0.01 + 0.02j)   # too close to the log pole
        assert _off_cuts(-1.0 + 1.0j)


class TestLogLineIntegral:
    def test_zero_integrand(self):
        got = log_line_integral(1.0, 0.0, 1.0 + 0j, 2.0 + 0j)
        assert abs(got) < 1e-14

    def test_real_segment_frozen(self):
        got = log_line_integral(1.0, 1.0, 1.0 + 0j, 2.0 + 0j)
        assert got.real == pytest.approx(0.6142793334595668, abs=1e-12)
        assert abs(got.imag) < 1e-13
        # oracle: plain quadrature of the principal integrand
        oracle = adaptive_quad(lambda s: cmath.log(2 + s) / (1 + s), 0.0, 1.0, 1e-13)
        assert abs(got - oracle) < 1e-12
        # closed form: a dilogarithm difference
        assert got == pytest.approx(-(dilog(-2) - dilog(-1)).real, abs=1e-12)

    def test_tempered_sweep_piece(self):
        mu = MU_C
        z0, z1 = complex(0, -1 / math.sqrt(3.0)), 2 - mu
        got = log_line_integral(1.0, -mu, z0, z1)
        dz = z1 - z0
        oracle = adaptive_quad(
            lambda s: cmath.log(1 - mu * (z0 + s * dz)) / (z0 + s * dz) * dz,
            0.0,
            1.0,
            1e-13,
        )
        assert abs(got - oracle) < 1e-9
        assert got == pytest.approx(complex(-0.5621021368136293, -2.2161035490186722), abs=1e-12)

    def test_branch_transport_across_cut(self):
        # w = z - 1 crosses the negative reals upward at z = 0.5
        a, b = -1.0, 1.0
        z0, z1 = 0.5 - 1j, 0.5 + 1j
        got = log_line_integral(a, b, z0, z1)
        dz = z1 - z0

        def continued(s):
            z = z0 + s * dz
            w = z - 1
            log_w = cmath.log(w) - (2j * PI if z.imag > 0 else 0)
            return log_w / z * dz

        oracle = adaptive_quad(continued, 0.0, 0.5, 1e-13) + adaptive_quad(continued, 0.5, 1.0, 1e-13)
        assert abs(got - oracle) < 1e-10

    def test_path_through_zero(self):
        with pytest.raises(PathSingularityError):
            log_line_integral(1.0, 1.0, -1.0 + 0j, 1.0 + 0j)

    def test_log_argument_vanishes(self):
        # a + bz = 0 at z = 1.5, on the path
        with pytest.raises(PathSingularityError):
            log_line_integral(-1.5, 1.0, 1.0 + 0j, 2.0 + 0j)


class TestMembrane:
    def test_matches_closed_form(self, tempered_verts):
        m = membrane_integral(tempered_verts)
        assert abs(m + aj_closed_form()) < 1e-8

    def test_quadrature_oracle(self, tempered_verts):
        m = membrane_integral(tempered_verts)
        q = membrane_quadrature(tempered_verts)
        assert abs(m - q) < 1e-6

    def test_reversal_antisymmetry(self, tempered_verts):
        v1, v2, v3 = tempered_verts
        assert abs(membrane_integral([v3, v2, v1]) + membrane_integral([v1, v2, v3])) < 1e-9

    def test_swap_flips_imaginary_part(self, tempered_verts):
        v1, v2, v3 = tempered_verts
        base = membrane_integral([v1, v2, v3])
        for order in ([v2, v1, v3], [v1, v3, v2]):
            assert membrane_integral(order).imag == pytest.approx(-base.imag, abs=1e-9)

    def test_imaginary_part_nontrivial(self, tempered_verts):
        m = membrane_integral(tempered_verts)
        assert abs(m.imag) > 4.0

    def test_degenerate_triangle(self, tempered_verts):
        v1, v2, _ = tempered_verts
        with pytest.raises(ValueError):
            membrane_integral([v1, v2, v1])

    def test_edge_through_x_origin(self):
        # common edge x = -3 + 2y vanishes at y = 1.5 inside the sweep
        verts = [(-1 + 0j, 1 + 0j), (5 + 0j, 1.2 + 0j), (1 + 0j, 2 + 0j)]
        with pytest.raises(PathSingularityError):
            membrane_integral(verts)

    def test_sweep_through_y_origin(self):
        verts = [(1 + 0j, -1 + 0j), (2 + 1j, 0.5 + 0j), (3 + 0j, 1 + 0j)]
        with pytest.raises(PathSingularityError):
            membrane_integral(verts)


class TestClosedForm:
    def test_real_part_is_zeta2(self):
        assert aj_closed_form().real == -ZETA2

    def test_imaginary_part_frozen(self):
        aj = aj_closed_form()
        assert aj.imag == pytest.approx(L_VALUE, abs=1e-13)
        assert aj.imag == pytest.approx(6 * clausen(2 * PI / 3), abs=1e-13)
        assert abs(aj.imag) > 4.0
