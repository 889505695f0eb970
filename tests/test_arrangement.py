"""Arrangement geometry: general position, triple points, chart triangle."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_degen import arrangement
from hodge_degen.arrangement import (
    Arrangement,
    ChartError,
    DegenerateIntersectionError,
    GeneralPositionReport,
    LinearForm,
    intersection_point,
    sweep_vertices,
    tempered_arrangement,
    validate_general_position,
)
from hodge_degen.exactlin import MU, CycloNumber, cyclo_embed

ONE = CycloNumber(1)
THIRD = Fraction(1, 3)


@pytest.fixture(scope="module")
def tempered():
    return tempered_arrangement()


def cyclo_det(rows):
    """Oracle: Laplace expansion over Q(mu) with CycloNumber arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    acc = CycloNumber(0)
    for j, x in enumerate(rows[0]):
        if x.is_zero():
            continue
        term = x * cyclo_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        acc = acc + (-term if j % 2 else term)
    return acc


def cyclo_rows(rows):
    """Z[mu] pairs (a, b) as CycloNumbers a + b mu."""
    return [[CycloNumber(a, b) for a, b in row] for row in rows]


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
        coeffs = [CycloNumber(*draw(small_zmu)) for _ in range(n - 1)]
        last = [sum((c * CycloNumber(*r[k]) for c, r in zip(coeffs, rows)), CycloNumber(0)) for k in range(n)]
        rows[-1] = [(int(x.a), int(x.b)) for x in last]
    return rows


class TestDeterminant:
    @given(zmu_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_cyclo_laplace(self, rows):
        a, b = minor_det(rows)
        assert CycloNumber(a, b) == cyclo_det(cyclo_rows(rows))

    def test_singular_examples(self):
        row = [(1, 2), (0, -1), (3, 0)]
        assert minor_det([row, [(2, -1), (1, 1), (0, 0)], row]) == (0, 0)
        # mu times a row: (a + b mu) mu = -b + (a + b) mu
        mu_row = [(-b, a + b) for a, b in row]
        assert minor_det([row, mu_row, [(5, 1), (0, 2), (1, -1)]]) == (0, 0)
        row4, other = [*row, (1, 1)], [(2, 0), (0, 1), (1, -1), (3, 3)]
        assert minor_det([row4, other, [(0, 0), (4, 1), (1, 0), (2, -2)], row4]) == (0, 0)
        assert minor_det([other, row4, [(5, 1), (0, 2), (1, -1), (0, 0)], [(-b, a + b) for a, b in row4]]) == (0, 0)

    def test_integer_scaling(self):
        form = LinearForm([Fraction(1, 2), CycloNumber(Fraction(1, 3), Fraction(-1, 4)), 0, 2])
        assert arrangement._integer_coeffs(form) == [(6, 0), (4, -3), (0, 0), (24, 0)]


zmu_rows = st.lists(st.lists(small_zmu, min_size=4, max_size=4), min_size=4, max_size=4)


class TestMinorExpansion:
    @given(zmu_rows)
    @settings(max_examples=150, deadline=None)
    def test_matches_laplace(self, rows):
        # every 3x3 minor and the 4x4 determinant from 2x2 minors equal
        # the Laplace expansion over Q(mu)
        r, s, u, v = rows
        cyclo = cyclo_rows(rows)
        want3 = [cyclo_det([[row[c] for c in cols] for row in cyclo[:3]]) for cols in combinations(range(4), 3)]
        assert [CycloNumber(*x) for x in arrangement._minors3(r, arrangement._minors2(s, u))] == want3
        m, n = arrangement._minors2(r, s), arrangement._minors2(u, v)
        assert CycloNumber(*arrangement._det4(m, n)) == cyclo_det(cyclo)


def laplace_general_position(arr):
    """Oracle: the certificate by Laplace expansion over Q(mu), each subset
    of forms on its own."""
    sels = arr.all_selectors()
    mats = dict(zip(sels, cyclo_rows(arrangement._integer_coeffs(arr.form(s)) for s in sels)))
    for tri in combinations(sels, 3):
        rows = [mats[s] for s in tri]
        if all(cyclo_det([[row[c] for c in cols] for row in rows]).is_zero() for cols in combinations(range(4), 3)):
            return GeneralPositionReport(False, tri, "three forms share a line")
    for quad in combinations(sels, 4):
        if cyclo_det([mats[s] for s in quad]).is_zero():
            return GeneralPositionReport(False, quad, "four forms share a point")
    return GeneralPositionReport(True)


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
        forms.append(LinearForm([CycloNumber(a, b) for a, b in coeffs]))
    return Arrangement(forms[:d], forms[d:])


class TestTempered:
    def test_form_table(self, tempered):
        assert tempered.L[0].coeffs == (ONE, CycloNumber(0), CycloNumber(0), CycloNumber(0))
        assert tempered.M[0].coeffs == (ONE, MU, -ONE, ONE)
        assert tempered.M[3].coeffs == (ONE, ONE, ONE, -MU)

    def test_certified(self, tempered):
        assert validate_general_position(tempered).ok

    def test_triple_points_distinct(self, tempered):
        pts = set()
        for i, j in combinations(range(1, 5), 2):
            for l in range(1, 5):
                p = intersection_point(tempered, ("L", i), ("L", j), ("M", l))
                pts.add(p.coords)
        assert len(pts) == 4 * 6  # d*C(d,2) nodes, pairwise distinct


class TestGeneralPositionViolations:
    def test_repeated_form(self):
        f = LinearForm([1, 0, 0, 0])
        arr = Arrangement([f, LinearForm([0, 1, 0, 0])], [f, LinearForm([0, 0, 1, 0])])
        report = validate_general_position(arr)
        assert not report.ok
        assert ("L", 1) in report.violation and ("M", 1) in report.violation

    def test_concurrent_planes(self):
        # all four forms vanish at [0:0:0:1]
        arr = Arrangement(
            [LinearForm([1, 0, 0, 0]), LinearForm([0, 1, 0, 0])],
            [LinearForm([0, 0, 1, 0]), LinearForm([1, 1, 1, 0])],
        )
        report = validate_general_position(arr)
        assert not report.ok
        assert len(report.violation) == 4

    # the remaining forms are generic, so the first violation is the planted one
    GENERIC_L = (LinearForm([1, 2, 3, 5]), LinearForm([2, 1, 1, MU]))
    GENERIC_M = (LinearForm([1, MU, -ONE, 1]), LinearForm([1, 3, 1, -MU]))

    def test_three_planes_through_a_line(self):
        # L2, L3 and M2 all contain the line X = Y = 0
        (l1, l4), (m1, m4) = self.GENERIC_L, self.GENERIC_M
        arr = Arrangement(
            [l1, LinearForm([1, 0, 0, 0]), LinearForm([0, 1, 0, 0]), l4],
            [m1, LinearForm([1, MU, 0, 0]), LinearForm([-ONE, 1, MU, 1]), m4],
        )
        report = validate_general_position(arr)
        assert report == GeneralPositionReport(False, (("L", 2), ("L", 3), ("M", 2)), "three forms share a line")
        assert report == laplace_general_position(arr)

    def test_four_planes_through_a_point(self):
        # L2, L3, M2 and M3 all vanish at [0:0:0:1], no three on a line
        (l1, l4), (m1, m4) = self.GENERIC_L, self.GENERIC_M
        arr = Arrangement(
            [l1, LinearForm([1, 0, 0, 0]), LinearForm([0, 1, 0, 0]), l4],
            [m1, LinearForm([0, 0, 1, 0]), LinearForm([MU, -ONE, 2, 0]), m4],
        )
        report = validate_general_position(arr)
        assert report == GeneralPositionReport(
            False, (("L", 2), ("L", 3), ("M", 2), ("M", 3)), "four forms share a point"
        )
        assert report == laplace_general_position(arr)

    @given(small_arrangements())
    @settings(max_examples=100, deadline=None)
    def test_matches_laplace_certificate(self, arr):
        assert validate_general_position(arr) == laplace_general_position(arr)

    def test_tempered_matches_laplace_certificate(self, tempered):
        want = laplace_general_position(tempered)
        assert validate_general_position(tempered) == want == GeneralPositionReport(True, None, None)


class TestIntersectionPoint:
    def test_distinguished_vertex(self, tempered):
        p = intersection_point(tempered, ("L", 4), ("M", 1), ("M", 2))
        assert p.coords == (-MU, CycloNumber(2) - MU, ONE, CycloNumber(0))

    def test_root_of_unity_vertices(self, tempered):
        # the M2/M3 point is (2 mu - 1, mu - 1); M1/M3 is ((1+mu)/3, (1-2mu)/3)
        x, y = intersection_point(tempered, ("L", 4), ("M", 2), ("M", 3)).chart_xy()
        assert x == 2 * MU - 1 and y == MU - 1
        x, y = intersection_point(tempered, ("L", 4), ("M", 1), ("M", 3)).chart_xy()
        assert x == CycloNumber(THIRD, THIRD) and y == CycloNumber(THIRD, Fraction(-2, 3))

    def test_axis_planes(self):
        arr = Arrangement(
            [LinearForm([1, 0, 0, 0]), LinearForm([0, 1, 0, 0])],
            [LinearForm([0, 0, 1, -1]), LinearForm([0, 0, 1, 1])],
        )
        p = intersection_point(arr, ("L", 1), ("L", 2), ("M", 1))
        assert p.coords == (CycloNumber(0), CycloNumber(0), ONE, ONE)

    def test_exact_substitution(self, tempered):
        sels = tempered.all_selectors()
        for tri in combinations(sels, 3):
            p = intersection_point(tempered, *tri)
            for s in tri:
                assert tempered.form(s).evaluate(p).is_zero()

    def test_degenerate_triple(self, tempered):
        with pytest.raises(DegenerateIntersectionError):
            intersection_point(tempered, ("L", 1), ("L", 1), ("M", 2))


class TestTriangle:
    def test_tempered_triangle_set(self, tempered):
        got = sweep_vertices(tempered, 4, 1, 2, 3)
        expected = {
            (-MU, CycloNumber(2) - MU),
            (2 * MU - 1, MU - 1),
            (CycloNumber(THIRD, THIRD), CycloNumber(THIRD, Fraction(-2, 3))),
        }
        assert set(got) == expected

    def test_matches_intersection_point(self, tempered):
        verts = sweep_vertices(tempered, 4, 1, 2, 3)
        pairs = [(1, 3), (1, 2), (2, 3)]
        for (x, y), (p, q) in zip(verts, pairs):
            pt = intersection_point(tempered, ("L", 4), ("M", p), ("M", q))
            assert (x, y) == pt.chart_xy()

    def test_sweep_order(self, tempered):
        verts = sweep_vertices(tempered, 4, 1, 2, 3)
        ys = [cyclo_embed(y) for _, y in verts]
        # sweep runs -i/sqrt(3) -> 2 - mu -> mu^2
        assert ys[0] == pytest.approx(complex(0, -0.5773502691896257))
        assert ys[1] == pytest.approx(complex(1.5, -0.8660254037844386))
        assert ys[2] == pytest.approx(complex(-0.5, 0.8660254037844386))

    def test_repeated_m_index(self, tempered):
        with pytest.raises(DegenerateIntersectionError):
            sweep_vertices(tempered, 4, 1, 1, 3)

    def test_chart_failure(self, tempered):
        # vertices on the L3 plane have Z = 0
        with pytest.raises(ChartError):
            sweep_vertices(tempered, 3, 1, 2, 4)
