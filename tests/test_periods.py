"""Dilogarithm, functional equations, and the membrane period integral.

Oracles: mpmath's independent polylog implementation, the raw power
series inside its disk of fast convergence, and plain Gauss-Kronrod
quadrature of the integrands.  Frozen values below were produced by
those oracles.

Frozen oracle values:
    Cl2(2 pi/3)          = 0.6766277376064357
    Cl2(pi/2) (Catalan)  = 0.9159655941772190
    6 Cl2(2 pi/3)        = 4.0597664256386145
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge_degen import periods
from hodge_degen.arrangement import sweep_vertices, tempered_arrangement
from hodge_degen.exactlin import cyclo_embed
from oracle import log_membrane
from hodge_degen.periods import (
    PI,
    ZETA2,
    MU_C,
    PathSingularityError,
    aj_closed_form,
    check_functional_equations,
    clausen,
    dilog,
    membrane_integral,
    membrane_quadrature,
    mu_instance_residuals,
)

CL2_2PI3 = 0.6766277376064357
CATALAN = 0.9159655941772190
L_VALUE = 4.0597664256386145


def bernoulli_numbers(n):
    """Exact B_0..B_n (B_1 = -1/2) by the recurrence sum_j C(m+1, j) B_j = 0."""
    acc = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(math.comb(m + 1, j) * acc[j] for j in range(m))
        acc.append(Fraction(-s, m + 1))
    return acc


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
    return [(cyclo_embed(x, n), cyclo_embed(y, n)) for x, y, n in sweep_vertices(arr, 4, 1, 2, 3)]


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

    def test_cut_side_is_upper(self):
        # on [1, oo) values continue from above: Im = +pi log x
        for x in (2.0, 10.0, 1.5):
            assert dilog(x).imag == pytest.approx(PI * math.log(x), abs=1e-13)

    def test_series_table_is_bernoulli(self):
        # c_k = B_2k / (2k+1)!, k = 11 down to 1, from the exact recurrence
        b = bernoulli_numbers(22)
        want = tuple(float(b[2 * k] / math.factorial(2 * k + 1)) for k in range(11, 0, -1))
        assert periods._DILOG_C == want

    def test_accuracy_against_mpmath(self):
        # 30-digit references over the regions the reductions stitch together
        rng = random.Random(3)
        points = [cmath.rect(10 ** rng.uniform(-3, 6), rng.uniform(-PI, PI)) for _ in range(400)]
        points += [cmath.rect(10 ** rng.uniform(-300, -3), rng.uniform(-PI, PI)) for _ in range(100)]
        points += [cmath.rect(10 ** rng.uniform(-8, 0), rng.uniform(-PI, PI)) for _ in range(150)]
        points += [cmath.exp(1j * rng.uniform(-PI, PI)) for _ in range(150)]  # |z| = 1
        points += [complex(0.5, rng.uniform(-3, 3)) for _ in range(100)]  # Re z = 1/2 seam
        points += [1 + cmath.rect(10 ** rng.uniform(-8, -1), rng.uniform(-PI, PI)) for _ in range(100)]
        points += [-1.0 + 0j, 0.5 + 0j, complex(0.5, math.sqrt(3) / 2), -MU_C, 1e-300 + 0j, -1e6 + 0j]
        with mp.workdps(30):
            for z in points:
                if z.imag == 0 and z.real > 1:
                    continue  # on the cut; test_cut_side_is_upper covers it
                ref = mp.polylog(2, mp.mpc(z.real, z.imag))
                got = dilog(z)
                assert abs(mp.mpc(got.real, got.imag) - ref) <= 2e-15 * abs(ref), z

    def test_series_refuses_outside_its_disk(self):
        # |u| = |log(1 - z)| above 1.0472 leaves the bounded truncation
        for z in (0.9 + 0j, cmath.exp(1j), 0.5 + 0.9j, -3.0 + 0j):
            with pytest.raises(ValueError):
                periods._dilog_series(z)
        # dilog reduces the same points first
        for z in (0.9 + 0j, cmath.exp(1j), 0.5 + 0.9j, -3.0 + 0j):
            ref = complex(mp.polylog(2, mp.mpc(z.real, z.imag)))
            assert abs(dilog(z) - ref) <= 2e-15 * abs(ref)
        # the corner of the reduced region, |u| = pi/3, is inside
        periods._dilog_series(complex(0.5, math.sqrt(3) / 2))

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
        samples, max_residual = check_functional_equations(1000, seed=0)
        assert samples == 1000
        assert max_residual < 1e-12

    def test_at_minus_one(self):
        z = -1.0 + 0j
        lhs = dilog((z - 1) / z) - dilog(z)
        rhs = -ZETA2 + cmath.log(z) * cmath.log(1 - z) - 0.5 * cmath.log(z) ** 2
        assert abs(lhs - rhs) < 1e-13

    def test_mu_instances(self):
        # mu's embedding is cyclo_embed((0, 1)), the same bits as the literal
        assert MU_C == complex(0.5, math.sqrt(3.0) / 2.0)
        assert MU_C.imag.hex() == "0x1.bb67ae8584caap-1"
        for name, res in mu_instance_residuals().items():
            assert res < 1e-13, name

    @pytest.mark.parametrize("at, slot", [(1, 0), (1000, 1)])
    def test_nan_residual_is_the_worst(self, monkeypatch, at, slot):
        # one NaN among 1,000 samples, first or last, in either identity,
        # is the worst residual, so the check on it fails
        real = periods._residuals
        calls = []

        def one_nan(z):
            calls.append(z)
            res = list(real(z))
            if len(calls) == at:
                res[slot] = math.nan
            return tuple(res)

        monkeypatch.setattr(periods, "_residuals", one_nan)
        samples, max_residual = check_functional_equations(1000, seed=0)
        assert len(calls) == samples == 1000
        assert math.isnan(max_residual)

    def test_seed_changes_samples_not_verdict(self):
        assert check_functional_equations(200, seed=9)[1] < 1e-12

    def test_sampler_rejects_cut_points(self):
        from hodge_degen.periods import _off_cuts

        assert not _off_cuts(2.0 + 0j)       # on the dilog cut
        assert not _off_cuts(0.5 + 0.001j)   # too close to the axis cuts
        assert not _off_cuts(0.01 + 0.02j)   # too close to the log pole
        assert _off_cuts(-1.0 + 1.0j)


class TestMembrane:
    def test_matches_closed_form(self, tempered_verts):
        m = membrane_integral(tempered_verts)
        assert abs(m + aj_closed_form()) <= 2e-15

    def test_membrane_bits(self, tempered_verts):
        # the value to the last bit (CPython 3.11, x86-64 Linux), the
        # closed form in logarithms and dilogarithms per leg
        assert repr(membrane_integral(tempered_verts)) == "(1.644934066848225-4.059766425638615j)"

    def test_quadrature_oracle(self, tempered_verts):
        m = membrane_integral(tempered_verts)
        q = membrane_quadrature(tempered_verts)
        assert abs(m - q) < 1e-6

    def test_quadrature_oracle_bits(self, tempered_verts):
        # the oracle's value to the last bit, as recorded before its loops
        # were restructured (CPython 3.11, x86-64 Linux): hoisting the
        # per-ruling work out of the inner integrand kept every operation
        assert repr(membrane_quadrature(tempered_verts)) == "(1.6449340668482264-4.059766425638615j)"

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

    def test_two_vertices(self, tempered_verts):
        with pytest.raises(ValueError, match="need exactly 3 vertices"):
            membrane_integral(tempered_verts[:2])

    def test_edge_zero_at_a_vertex(self):
        # the first vertex lies 1.4e-20 from x = 0, so an edge through it
        # whose x crosses its cut has no waypoint modulus to route round
        verts = [(-1e-20 + 1e-20j, 0j), (-1 - 1j, 1 + 0j), (2 + 1j, 2 + 0.5j)]
        with pytest.raises(PathSingularityError, match="edge line passes through x = 0 at a vertex"):
            membrane_integral(verts)
        with pytest.raises(PathSingularityError, match="edge line passes through x = 0 at a vertex"):
            membrane_quadrature(verts)

    def test_edge_through_x_origin(self):
        # common edge x = -3 + 2y vanishes at y = 1.5 inside the sweep
        verts = [(-1 + 0j, 1 + 0j), (5 + 0j, 1.2 + 0j), (1 + 0j, 2 + 0j)]
        with pytest.raises(PathSingularityError):
            membrane_integral(verts)

    def test_ruling_through_x_origin(self):
        # a ruling crosses x = 0 inside a leg, away from its ends
        with pytest.raises(PathSingularityError, match="ruling passes through x = 0"):
            membrane_integral(RULING_THROUGH_X_ORIGIN)

    def test_sweep_through_y_origin(self):
        verts = [(1 + 0j, -1 + 0j), (2 + 1j, 0.5 + 0j), (3 + 0j, 1 + 0j)]
        with pytest.raises(PathSingularityError):
            membrane_integral(verts)

    def test_sweep_near_y_origin(self, monkeypatch):
        # the first leg passes 1.7e-4 from y = 0, inside the margin; it used
        # to exhaust the quadrature panel budget, and is now refused before
        # any leg is integrated, by the closed form or by the oracle
        def refuse(*args):
            raise AssertionError("integrated a refused membrane")

        monkeypatch.setattr(periods, "_leg_integral", refuse)
        monkeypatch.setattr(periods, "double_integral", refuse)
        for integral in (membrane_integral, membrane_quadrature):
            with pytest.raises(PathSingularityError, match="of y = 0"):
                integral(NEAR_Y_ORIGIN)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex(self, bad):
        # refused with the vertices, before a NaN or inf reaches an edge
        verts = [(complex(bad, 0.0), 1 + 1j), (2 + 0j, 2 + 1j), (3 + 1j, 3 + 0j)]
        for integral in (membrane_integral, membrane_quadrature):
            with pytest.raises(ValueError, match="finite"):
                integral(verts)
            with pytest.raises(ValueError, match="finite"):
                integral([verts[1], verts[2], (1 + 1j, complex(0.0, bad))])

    def test_nan_leg_is_refused(self):
        # a NaN distance fails the margin tests, which compare with >=; a NaN
        # end of the y leg is refused by the y test, the first one
        leg = (1 + 0j, 1 + 0j, 2 + 0j, 1 + 0j, 1 + 1j, 2 + 1j)
        periods._check_leg(*leg)
        for i in range(6):
            bad = list(leg)
            bad[i] = complex(math.nan, 0.0)
            with pytest.raises(PathSingularityError, match="of y = 0" if i >= 4 else "through x = 0"):
                periods._check_leg(*bad)

    def test_branch_number(self):
        turn = 2j * PI
        assert periods._branch(0j) == 0
        assert periods._branch(-turn) == -1
        assert periods._branch(3 * turn + 1e-9j) == 3
        # farther than 1e-6 from an integer, NaN or inf: refused, not rounded
        for w in (0.3 * turn, 0.45 * turn, (2 + 2e-6) * turn, complex(0.0, math.nan), complex(0.0, math.inf)):
            with pytest.raises(PathSingularityError, match="branch number"):
                periods._branch(w)

    def test_tempered_legs_clear_the_margin(self, tempered_verts):
        legs = periods._membrane_legs(tempered_verts)
        assert min(periods._segment_distance_to_zero(y0, y1) for *_, y0, y1 in legs) > 100 * periods._Y_MARGIN


def leg_clearance(pl, ql, pu, qu, y0, y1, samples=2000):
    """Smallest sampled distance from x = 0 of the rulings swept along one
    leg, at samples + 1 evenly spaced points."""
    out = math.inf
    for k in range(samples + 1):
        y = y0 + (k / samples) * (y1 - y0)
        xl = pl + ql * y
        dx = pu + qu * y - xl
        t = min(1.0, max(0.0, -(xl * dx.conjugate()).real / abs(dx) ** 2)) if dx else 0.0
        out = min(out, abs(xl + t * dx))
    return out


# a grid triangle whose first leg passes 1.7e-4 from y = 0
NEAR_Y_ORIGIN = [(-1.7 - 0.2j, 2.5 + 1.3j), (0.1j, -1.4 - 2.3j), (1.1 - 0.9j, -2 + 0.5j)]
# a random triangle with a ruling through x = 0 inside a leg
RULING_THROUGH_X_ORIGIN = [
    (-0.7276790109211078 - 0.3929087559647284j, -0.6155791399106665 + 2.9374287561269607j),
    (0.09162326261485187 + 0.9009280091833443j, -1.5255907067589225 - 0.3614147539689201j),
    (-0.7648652491904935 - 0.5917240503124863j, -2.325322341114516 + 0.2539049143845382j),
]

grid = st.integers(-30, 30).map(lambda k: k / 10)
point = st.builds(complex, grid, grid)
triangles = st.lists(st.tuples(point, point), min_size=3, max_size=3, unique=True)


def seeded_triangles(seed, draw, count=3000):
    """count triangles, each vertex x and y with real and imaginary parts
    from draw(rng)."""
    rng = random.Random(seed)
    return [[(complex(draw(rng), draw(rng)), complex(draw(rng), draw(rng))) for _ in range(3)] for _ in range(count)]


# the triangle with vertices on the cut of x, where Log x_u - Log x_l is
# off from Log(x_u / x_l) by 2 pi i on both legs
VERTICES_ON_X_CUT = [(-2.9 + 0j, -3 + 2.6j), (1.4 + 0.7j, 2.3 + 3j), (-3 + 0j, -2.2 - 1j)]
# a lower edge through the chart origin: pl = 0 exactly on both legs
EDGE_THROUGH_ORIGIN = [(1 + 1j, 1 + 1j), (2 + 0.5j, 1.5 + 0j), (2 + 2j, 2 + 2j)]
# integer triangles with a leg end where -q y / p lies on the cut of Li_2
# in exact arithmetic, a waypoint (the first two) or a vertex
ENDS_ON_LI2_CUT = [
    [(1 - 1j, -1 - 3j), (-2 - 3j, 1 - 2j), (-3 + 3j, -1 + 2j)],
    [(2j, -1 - 2j), (-1 - 2j, 1 + 2j), (1 + 1j, 2 - 2j)],
    [(2 + 0j, 0.5 - 3j), (-0.5 - 3j, -2.5 + 2.5j), (-1 + 0.5j, 0.5 - 1j)],
]
# an all-real triangle: -q y / p runs along the cut of Li_2 on a leg, where
# dilog takes the upper side, so Log(1 + q y / p) is read on the lower one
ALONG_LI2_CUT = [(-2 + 0j, 2 + 0j), (-1 + 0j, 3 + 0j), (-0.5 + 0j, 1 + 0j)]


class TestMembraneClosedForm:
    """The closed form against the per-leg Log quadrature of the oracle,
    which integrates the same checked legs to within 1e-12."""

    @pytest.mark.parametrize(
        "seed, draw, accepted",
        [(5, lambda rng: rng.uniform(-3, 3), 2162), (3, lambda rng: rng.randint(-30, 30) / 10, 2136)],
        ids=["uniform", "grid"],
    )
    def test_seeded_sweeps(self, seed, draw, accepted):
        # 3,000 triangles each; about 1,500 edge legs are split at the cut
        # of Li_2 and about 1,000 have n != 0.  Every second accepted
        # membrane is compared, which keeps the oracle's cost near 2 s.
        values = []
        for verts in seeded_triangles(seed, draw):
            try:
                values.append((verts, membrane_integral(verts)))
            except PathSingularityError:
                pass
        assert len(values) == accepted
        for verts, m in values[::2]:
            assert abs(m - log_membrane(verts)) <= 1e-12 * max(1.0, abs(m)), verts

    @pytest.mark.parametrize(
        "verts",
        [VERTICES_ON_X_CUT, *ENDS_ON_LI2_CUT, ALONG_LI2_CUT],
        ids=["x-cut", "li2-cut-0", "li2-cut-1", "li2-cut-2", "along-li2-cut"],
    )
    def test_branch_cases(self, verts):
        m = membrane_integral(verts)
        assert abs(m - log_membrane(verts)) <= 1e-12 * max(1.0, abs(m))

    def test_edge_through_chart_origin(self):
        legs = periods._membrane_legs(EDGE_THROUGH_ORIGIN)
        assert [leg[0] for leg in legs] == [0, 0]
        m = membrane_integral(EDGE_THROUGH_ORIGIN)
        assert abs(m - log_membrane(EDGE_THROUGH_ORIGIN)) <= 1e-12
        assert abs(m - membrane_quadrature(EDGE_THROUGH_ORIGIN)) <= 1e-9

    @pytest.mark.parametrize("planes", [(1, 2, 3), (1, 3, 4)], ids=["4;1,2,3", "4;1,3,4"])
    def test_tempered_delta_triangles(self, planes):
        # the two delta triangles on the fourth L-plane that the chart routes
        arr = tempered_arrangement()
        verts = [(cyclo_embed(x, n), cyclo_embed(y, n)) for x, y, n in sweep_vertices(arr, 4, *planes)]
        assert abs(membrane_integral(verts) - membrane_quadrature(verts)) <= 1e-9


class TestMembraneFuzz:
    @given(triangles)
    @settings(max_examples=30, deadline=None)
    # a vertex on y = 0, refused by the y margin
    @example([(-0.1, -0.1j), (-0.2, 0.1 + 0.1j), (0, 0)])
    # a ruling through x = 0, refused by the ruling test
    @example([(-1.1 + 0j, 2.4 - 1.9j), (-2.4 + 0j, 0.9 + 2.7j), (2.3 + 0.3j, 0.7 - 1.8j)])
    # an edge's x runs along its cut; integrates to the oracle's
    # 0.36464513709043467 - 0.2525134184703326j
    @example([(-0.7 - 0.4j, -1.4 - 1.9j), (-1.8 + 0j, 0.7 - 0.5j), (-2.3 + 0j, 1.4 - 1.3j)])
    # vertices on the cut of x, whose edges leave to opposite sides of it,
    # where Log x_u - Log x_l is off from Log(x_u / x_l) by 2 pi i
    @example(VERTICES_ON_X_CUT)
    # a leg inside the y margin, on which the leg quadrature once ran out
    # of panels
    @example(NEAR_Y_ORIGIN)
    @example(RULING_THROUGH_X_ORIGIN)
    def test_agrees_with_oracle_or_refuses(self, verts):
        # random triangles, most unlike the tempered one; about half need
        # waypoint routing around a cut of x, and some exhaust its depth.
        # Every membrane that is accepted must match the oracle.
        try:
            m = membrane_integral(verts)
        except PathSingularityError:
            return
        assert abs(m - membrane_quadrature(verts)) < 1e-6

    @given(triangles)
    @settings(max_examples=50, deadline=None)
    @example(RULING_THROUGH_X_ORIGIN)
    # an all-real triangle: every ruling lies on the real line, and both
    # edges of the first leg pass x = 0 inside it, at y = 1.25 and y = 1.5
    @example([(1 + 0j, 1 + 0j), (-1 + 0j, 2 + 0j), (-7 + 0j, 3 + 0j)])
    def test_ruling_test_against_dense_sampling(self, verts):
        # each leg on its own, against 2,000 samples: no accepted leg
        # samples closer than the margin, so a leg whose sampled clearance
        # is 0 to round-off is refused, and a refused leg samples within
        # the margin plus what the rulings can move between two samples
        try:
            legs = periods._sweep_legs(verts)
        except PathSingularityError:
            return
        for leg in legs:
            _, ql, _, qu, y0, y1 = leg
            if periods._segment_distance_to_zero(y0, y1) < periods._Y_MARGIN:
                continue
            sampled = leg_clearance(*leg)
            try:
                periods._check_leg(*leg)
            except PathSingularityError:
                speed = max(abs(ql), abs(qu)) * abs(y1 - y0)
                assert sampled <= periods._X_MARGIN + speed / 4000
            else:
                assert sampled >= periods._X_MARGIN

    @given(triangles)
    @settings(max_examples=100, deadline=None)
    # three waypoints, five legs
    @example([(-2.8 + 0.5j, 0.9 - 1.1j), (-2.4 - 1.2j, 0.4 + 0.2j), (-0.9 + 3j, 0.7 - 1.2j)])
    def test_legs_cross_no_cut(self, verts):
        # the waypoint routing, which picks the membrane, must leave no
        # edge's x crossing its cut on any leg it hands out
        try:
            legs = periods._sweep_legs(verts)
        except PathSingularityError:
            return
        for pl, ql, pu, qu, y0, y1 in legs:
            for p, q in ((pl, ql), (pu, qu)):
                assert periods._cut_crossing(p + q * y0, p + q * y1) is None


class TestClosedForm:
    def test_real_part_is_zeta2(self):
        assert aj_closed_form().real == -ZETA2

    def test_imaginary_part_against_mpmath(self):
        # 6 Cl_2(2 pi/3) at 30 digits; both float routes land within 1e-15
        with mp.workdps(30):
            ref = 6 * mp.clsin(2, 2 * mp.pi / 3)
            assert abs(aj_closed_form().imag - ref) < 1e-15
            assert abs(6 * clausen(2 * PI / 3) - ref) < 1e-15

    def test_imaginary_part_frozen(self):
        aj = aj_closed_form()
        assert aj.imag == pytest.approx(L_VALUE, abs=1e-13)
        assert aj.imag == pytest.approx(6 * clausen(2 * PI / 3), abs=1e-13)
        assert abs(aj.imag) > 4.0
