"""Arrangement geometry: general position, triple points, chart triangle."""

from fractions import Fraction
from itertools import combinations

import pytest

from hodge_degen.arrangement import (
    Arrangement,
    ChartError,
    DegenerateIntersectionError,
    LinearForm,
    intersection_point,
    sweep_vertices,
    tempered_arrangement,
    triangle_vertices,
    validate_general_position,
)
from hodge_degen.exactlin import MU, CycloNumber, cyclo_embed

ONE = CycloNumber(1)
THIRD = Fraction(1, 3)


@pytest.fixture(scope="module")
def tempered():
    return tempered_arrangement()


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
        got = triangle_vertices(tempered, 4, 1, 2, 3)
        expected = {
            (-MU, CycloNumber(2) - MU),
            (2 * MU - 1, MU - 1),
            (CycloNumber(THIRD, THIRD), CycloNumber(THIRD, Fraction(-2, 3))),
        }
        assert set(got) == expected

    def test_matches_intersection_point(self, tempered):
        verts = triangle_vertices(tempered, 4, 1, 2, 3)
        pairs = [(1, 2), (1, 3), (2, 3)]
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
            triangle_vertices(tempered, 4, 1, 1, 3)

    def test_chart_failure(self, tempered):
        # vertices on the L3 plane have Z = 0
        with pytest.raises(ChartError):
            triangle_vertices(tempered, 3, 1, 2, 4)
