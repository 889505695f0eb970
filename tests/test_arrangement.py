"""Arrangement geometry: general position, triple points, chart triangle.

The oracles compute in sympy's field Q(sqrt(-3)), which contains
mu = (1 + sqrt(-3))/2, and share no code with the package.
"""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from hodge_degen import arrangement
from hodge_degen.arrangement import (
    ChartError,
    DegenerateIntersectionError,
    chart_xy,
    form,
    general_position_failure,
    intersection_point,
    selectors,
    sweep_vertices,
    tempered_arrangement,
)
from hodge_degen.exactlin import cyclo_embed

THIRD = Fraction(1, 3)
QMU = sympy.QQ.algebraic_field(sympy.sqrt(-3))
MU = QMU.from_sympy((1 + sympy.sqrt(-3)) / 2)


@pytest.fixture(scope="module")
def tempered():
    return tempered_arrangement()


def lf(*coeffs):
    """A form from its X, Y, Z, W coefficients, an int n read as (n, 0)."""
    return tuple((c, 0) if isinstance(c, int) else c for c in coeffs)


def to_field(x):
    """a + b mu in sympy's Q(sqrt(-3)), from the pair (a, b) of exact
    scalars."""
    a, b = x
    return QMU.convert(a) + QMU.convert(b) * MU


def from_field(x):
    """The Z[mu] integer pair (a, b) of a + b mu = re + im i in Q(sqrt(-3)):
    b = 2 im / sqrt(3) and a = re - b / 2."""
    re, im = QMU.to_sympy(x).as_real_imag()
    b = 2 * im / sympy.sqrt(3)
    return (int(re - b / 2), int(b))


def quotients(chart_point):
    """The exact coordinates (X/Z, Y/Z) of a chart point (x, y, n), each
    numerator over the positive int n as a pair of Fractions."""
    x, y, n = chart_point
    assert type(n) is int and n > 0
    assert all(type(v) is int for v in (*x, *y))
    return tuple(tuple(Fraction(v, n) for v in z) for z in (x, y))


def field_matrix(rows):
    """A matrix of Z[mu] pairs as a sympy DomainMatrix over Q(sqrt(-3))."""
    return DomainMatrix([[to_field(x) for x in row] for row in rows], (len(rows), len(rows[0])), QMU)


def field_eval(coeffs, point):
    """Oracle: the form with these coefficients at a Z[mu] point, in Q(sqrt(-3))."""
    return sum((to_field(c) * to_field(x) for c, x in zip(coeffs, point)), QMU.zero)


def same_point(p, q):
    """Two nonzero homogeneous quadruples are one point of P^3 iff they
    span a line: the 2x4 matrix of both has rank 1 over Q(sqrt(-3))."""
    assert any(x != (0, 0) for x in p) and any(x != (0, 0) for x in q)
    return field_matrix([p, q]).rank() == 1


def minor_det(rows):
    """The determinant of a 3x3 or 4x4 Z[mu] matrix by the minor
    expansions: _det4 of the 2x2 minors, or the first 3x3 minor of the
    rows padded with a zero column (column triple (0, 1, 2) comes first)."""
    if len(rows) == 4:
        r, s, u, v = rows
        return arrangement._det4(arrangement._minors2(r, s), arrangement._minors2(u, v))
    r, s, u = ([*row, (0, 0)] for row in rows)
    return arrangement._minors3(r, arrangement._minors2(s, u))[0]


small_zmu = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def zmu_matrices(draw):
    """Square 3x3 or 4x4 matrices over Z[mu]; about half made singular by
    replacing the last row with a Z[mu]-combination of the others."""
    n = draw(st.sampled_from([3, 4]))
    rows = [draw(st.lists(small_zmu, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = [to_field(draw(small_zmu)) for _ in range(n - 1)]
        last = [sum((c * to_field(r[k]) for c, r in zip(coeffs, rows)), QMU.zero) for k in range(n)]
        rows[-1] = [from_field(x) for x in last]
    return rows


class TestDeterminant:
    @given(zmu_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_cyclo_laplace(self, rows):
        assert to_field(minor_det(rows)) == field_matrix(rows).det()

    def test_singular_examples(self):
        row = [(1, 2), (0, -1), (3, 0)]
        assert minor_det([row, [(2, -1), (1, 1), (0, 0)], row]) == (0, 0)
        # mu times a row: (a + b mu) mu = -b + (a + b) mu
        mu_row = [(-b, a + b) for a, b in row]
        assert minor_det([row, mu_row, [(5, 1), (0, 2), (1, -1)]]) == (0, 0)
        row4, other = [*row, (1, 1)], [(2, 0), (0, 1), (1, -1), (3, 3)]
        assert minor_det([row4, other, [(0, 0), (4, 1), (1, 0), (2, -2)], row4]) == (0, 0)
        assert minor_det([other, row4, [(5, 1), (0, 2), (1, -1), (0, 0)], [(-b, a + b) for a, b in row4]]) == (0, 0)

    def test_field_pairs_round_trip(self):
        # the oracle's own conversions, checked on mu^2 = mu - 1
        assert MU * MU == MU - QMU.one
        for x in [(0, 0), (1, 0), (0, 1), (-3, 2), (5, -7)]:
            assert from_field(to_field(x)) == x


zmu_rows = st.lists(st.lists(small_zmu, min_size=4, max_size=4), min_size=4, max_size=4)


class TestMinorExpansion:
    @given(zmu_rows)
    @settings(max_examples=150, deadline=None)
    def test_matches_laplace(self, rows):
        # every 3x3 minor and the 4x4 determinant from 2x2 minors equal
        # the determinants over Q(sqrt(-3))
        r, s, u, v = rows
        top = field_matrix(rows[:3])
        want3 = [top.extract(range(3), cols).det() for cols in combinations(range(4), 3)]
        assert [to_field(x) for x in arrangement._minors3(r, arrangement._minors2(s, u))] == want3
        m, n = arrangement._minors2(r, s), arrangement._minors2(u, v)
        assert to_field(arrangement._det4(m, n)) == field_matrix(rows).det()


def laplace_general_position(arr):
    """Oracle: the certificate over Q(sqrt(-3)), each subset of forms on
    its own: three forms share a line when their matrix has rank below 3,
    four share a point when their determinant vanishes.  Names the first
    failing subset as the package does, or returns None."""
    d = len(arr) // 2
    names = [f"L{i}" for i in range(1, d + 1)] + [f"M{l}" for l in range(1, d + 1)]
    for tri in combinations(range(2 * d), 3):
        if field_matrix([arr[n] for n in tri]).rank() < 3:
            return "three forms share a line: " + ", ".join(names[n] for n in tri)
    for quad in combinations(range(2 * d), 4):
        if not field_matrix([arr[n] for n in quad]).det():
            return "four forms share a point: " + ", ".join(names[n] for n in quad)
    return None


unit_zmu = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


@st.composite
def small_arrangements(draw):
    """d = 2 or 3 with coefficients in {-1, 0, 1} + {-1, 0, 1} mu, so that
    many draws violate general position."""
    d = draw(st.sampled_from([2, 3]))
    forms = []
    for _ in range(2 * d):
        coeffs = draw(st.lists(unit_zmu, min_size=4, max_size=4))
        if all(c == (0, 0) for c in coeffs):
            coeffs[0] = (1, 0)  # no zero form
        forms.append(tuple(coeffs))
    return tuple(forms)


class TestForms:
    def test_selectors_name_the_forms_in_order(self, tempered):
        sels = selectors(tempered)
        assert sels == [("L", 1), ("L", 2), ("L", 3), ("L", 4), ("M", 1), ("M", 2), ("M", 3), ("M", 4)]
        assert [form(tempered, s) for s in sels] == list(tempered)

    def test_bad_selectors(self, tempered):
        # ("L", 1.0) and ("M", True) equal int selectors and once selected
        # their forms; ("M", True) once made a triple with ("M", 1) degenerate
        for bad in (("L", 0), ("M", 5), ("N", 1), ("L", 1.0), ("M", True)):
            with pytest.raises(ValueError, match="bad form selector"):
                form(tempered, bad)
            with pytest.raises(ValueError, match="bad form selector"):
                intersection_point(tempered, ("L", 4), ("M", 1), bad)

    def test_unequal_families(self, tempered):
        for arr in (tempered[:7], tempered[:2]):
            with pytest.raises(ValueError, match="equally many L and M forms"):
                general_position_failure(arr)
            with pytest.raises(ValueError, match="equally many L and M forms"):
                form(arr, ("L", 1))


class TestTempered:
    def test_form_table(self, tempered):
        assert len(tempered) == 8
        assert form(tempered, ("L", 1)) == ((1, 0), (0, 0), (0, 0), (0, 0))
        assert form(tempered, ("M", 1)) == ((1, 0), (0, 1), (-1, 0), (1, 0))
        assert form(tempered, ("M", 4)) == ((1, 0), (1, 0), (1, 0), (0, -1))

    def test_certified(self, tempered):
        assert general_position_failure(tempered) is None

    def test_triple_points_distinct(self, tempered):
        pts = [
            intersection_point(tempered, ("L", i), ("L", j), ("M", l))
            for i, j in combinations(range(1, 5), 2)
            for l in range(1, 5)
        ]
        assert len(pts) == 4 * 6  # d*C(d,2) nodes, pairwise distinct in P^3
        assert not any(same_point(p, q) for p, q in combinations(pts, 2))


class TestGeneralPositionViolations:
    def test_repeated_form(self):
        f = lf(1, 0, 0, 0)
        arr = (f, lf(0, 1, 0, 0), f, lf(0, 0, 1, 0))
        assert general_position_failure(arr) == "three forms share a line: L1, L2, M1"

    def test_concurrent_planes(self):
        # all four forms vanish at [0:0:0:1]
        arr = (lf(1, 0, 0, 0), lf(0, 1, 0, 0), lf(0, 0, 1, 0), lf(1, 1, 1, 0))
        assert general_position_failure(arr) == "four forms share a point: L1, L2, M1, M2"

    # the remaining forms are generic, so the first violation is the planted one
    GENERIC_L = (lf(1, 2, 3, 5), lf(2, 1, 1, (0, 1)))
    GENERIC_M = (lf(1, (0, 1), -1, 1), lf(1, 3, 1, (0, -1)))

    def test_three_planes_through_a_line(self):
        # L2, L3 and M2 all contain the line X = Y = 0
        (l1, l4), (m1, m4) = self.GENERIC_L, self.GENERIC_M
        arr = (l1, lf(1, 0, 0, 0), lf(0, 1, 0, 0), l4, m1, lf(1, (0, 1), 0, 0), lf(-1, 1, (0, 1), 1), m4)
        failed = general_position_failure(arr)
        assert failed == "three forms share a line: L2, L3, M2"
        assert failed == laplace_general_position(arr)

    def test_four_planes_through_a_point(self):
        # L2, L3, M2 and M3 all vanish at [0:0:0:1], no three on a line
        (l1, l4), (m1, m4) = self.GENERIC_L, self.GENERIC_M
        arr = (l1, lf(1, 0, 0, 0), lf(0, 1, 0, 0), l4, m1, lf(0, 0, 1, 0), lf((0, 1), -1, 2, 0), m4)
        failed = general_position_failure(arr)
        assert failed == "four forms share a point: L2, L3, M2, M3"
        assert failed == laplace_general_position(arr)

    @given(small_arrangements())
    @settings(max_examples=100, deadline=None)
    def test_matches_laplace_certificate(self, arr):
        assert general_position_failure(arr) == laplace_general_position(arr)

    def test_tempered_matches_laplace_certificate(self, tempered):
        assert general_position_failure(tempered) is laplace_general_position(tempered) is None


class TestIntersectionPoint:
    def test_distinguished_vertex(self, tempered):
        p = intersection_point(tempered, ("L", 4), ("M", 1), ("M", 2))
        assert same_point(p, ((0, -1), (2, -1), (1, 0), (0, 0)))  # [-mu : 2 - mu : 1 : 0]

    def test_root_of_unity_vertices(self, tempered):
        # the M2/M3 point is (2 mu - 1, mu - 1); M1/M3 is ((1+mu)/3, (1-2mu)/3)
        x, y = quotients(chart_xy(intersection_point(tempered, ("L", 4), ("M", 2), ("M", 3))))
        assert x == (-1, 2) and y == (-1, 1)
        x, y = quotients(chart_xy(intersection_point(tempered, ("L", 4), ("M", 1), ("M", 3))))
        assert x == (THIRD, THIRD) and y == (THIRD, Fraction(-2, 3))

    def test_axis_planes(self):
        arr = (lf(1, 0, 0, 0), lf(0, 1, 0, 0), lf(0, 0, 1, -1), lf(0, 0, 1, 1))
        p = intersection_point(arr, ("L", 1), ("L", 2), ("M", 1))
        assert same_point(p, ((0, 0), (0, 0), (1, 0), (1, 0)))

    def test_exact_substitution(self, tempered):
        for tri in combinations(selectors(tempered), 3):
            p = intersection_point(tempered, *tri)
            for s in tri:
                assert field_eval(form(tempered, s), p) == QMU.zero

    def test_substitution_guard_fails(self, tempered, monkeypatch):
        # one perturbed minor moves W off the common point, and L4 = W sees it
        real = arrangement._minors3

        def perturbed(r, m):
            minors = real(r, m)
            a, b = minors[0]
            minors[0] = (a + 1, b)
            return minors

        monkeypatch.setattr(arrangement, "_minors3", perturbed)
        with pytest.raises(AssertionError, match="fails exact substitution"):
            intersection_point(tempered, ("L", 4), ("M", 1), ("M", 2))

    def test_degenerate_triple(self, tempered):
        with pytest.raises(DegenerateIntersectionError):
            intersection_point(tempered, ("L", 1), ("L", 1), ("M", 2))

    @given(small_arrangements())
    @settings(max_examples=50, deadline=None)
    def test_random_arrangements(self, arr):
        # degenerate exactly when every 3x3 minor vanishes; otherwise a
        # nonzero common point, and a chart that inverts x = X/Z, y = Y/Z
        for tri in combinations(selectors(arr), 3):
            if field_matrix([form(arr, s) for s in tri]).rank() < 3:
                with pytest.raises(DegenerateIntersectionError):
                    intersection_point(arr, *tri)
                continue
            p = intersection_point(arr, *tri)
            assert any(x != (0, 0) for x in p)
            assert all(field_eval(form(arr, s), p) == QMU.zero for s in tri)
            X, Y, Z, _ = map(to_field, p)
            if Z == QMU.zero:
                with pytest.raises(ChartError):
                    chart_xy(p)
            else:
                x, y = map(to_field, quotients(chart_xy(p)))
                assert x * Z == X and y * Z == Y


class TestTriangle:
    def test_tempered_triangle_set(self, tempered):
        got = sweep_vertices(tempered, 4, 1, 2, 3)
        expected = {
            ((0, -1), (2, -1)),  # (-mu, 2 - mu)
            ((-1, 2), (-1, 1)),  # (2 mu - 1, mu - 1)
            ((THIRD, THIRD), (THIRD, Fraction(-2, 3))),
        }
        assert {quotients(v) for v in got} == expected

    def test_matches_intersection_point(self, tempered):
        verts = sweep_vertices(tempered, 4, 1, 2, 3)
        pairs = [(1, 3), (1, 2), (2, 3)]
        for v, (p, q) in zip(verts, pairs):
            pt = intersection_point(tempered, ("L", 4), ("M", p), ("M", q))
            assert v == chart_xy(pt)

    def test_sweep_order(self, tempered):
        verts = sweep_vertices(tempered, 4, 1, 2, 3)
        ys = [cyclo_embed(y, n) for _, y, n in verts]
        # sweep runs -i/sqrt(3) -> 2 - mu -> mu^2
        assert ys[0] == pytest.approx(complex(0, -0.5773502691896257))
        assert ys[1] == pytest.approx(complex(1.5, -0.8660254037844386))
        assert ys[2] == pytest.approx(complex(-0.5, 0.8660254037844386))

    @pytest.mark.parametrize("indices", [(4.0, 1, 2, 3), (4, 1, True, 3), (4, 1, 2, 3.0)])
    def test_non_int_index_refused(self, tempered, indices):
        # (4.0, 1, 2, 3) once gave the tempered triangle
        with pytest.raises(ValueError, match="bad form selector"):
            sweep_vertices(tempered, *indices)

    def test_repeated_m_index(self, tempered):
        with pytest.raises(DegenerateIntersectionError):
            sweep_vertices(tempered, 4, 1, 1, 3)
        # on the L3 plane, whose vertices miss the chart, too
        with pytest.raises(DegenerateIntersectionError):
            sweep_vertices(tempered, 3, 1, 2, 2)

    def test_chart_failure(self, tempered):
        # vertices on the L3 plane have Z = 0
        with pytest.raises(ChartError):
            sweep_vertices(tempered, 3, 1, 2, 4)
