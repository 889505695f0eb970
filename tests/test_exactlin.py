"""Exact scalars, and the elimination oracle of the tests.

The package's exact scalar rule and ``QMatrix`` are tested here, and so
is the fraction-free elimination of ``tests/oracle.py`` that every rank
witness is cross-checked against: its rank and kernel results are
checked against a plain Fraction Gaussian elimination implemented here
and against sympy's exact ``Matrix.rank`` / ``nullspace``, both
independent of it.
"""

from fractions import Fraction
from math import sqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge_degen.arrangement import _signed_sum, chart_xy
from hodge_degen.cycles import express_in_B, threefold_boundary
from hodge_degen.degeneration import _combine, hodge_kernel_basis, reduce_raw
from hodge_degen.exactlin import QMatrix, _exact, cyclo_embed
from oracle import _ratio, dense, in_span, kernel_basis, phi_matrix, rank


def gauss_rank(rows):
    """Oracle: textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rk, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(len(m)):
            if r != rk and m[r][c] != 0:
                f = m[r][c] / m[rk][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
    return rk


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)

# mostly zeros, so the zero-skipping paths of mul_vector and elimination run
sparse_entry = st.integers(0, 2).flatmap(lambda k: small_fraction if k == 0 else st.just(Fraction(0)))


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 7))
    return draw(st.lists(st.lists(sparse_entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(column):
    return tuple(Fraction(int(x.p), int(x.q)) for x in column)


class TestCycloNumber:
    """Cyclotomic numbers a + b mu, given as pairs (a, b), embedded in the
    complex plane by cyclo_embed."""

    def test_sixth_root(self):
        z = cyclo_embed((0, 1))
        assert abs(z ** 6 - 1) < 1e-12
        for k in range(1, 6):
            assert abs(z ** k - 1) > 0.9

    def test_embed_examples(self):
        assert cyclo_embed((0, 1)) == pytest.approx(complex(0.5, 0.8660254037844386))
        assert cyclo_embed((-1, 1)) == pytest.approx(complex(-0.5, 0.8660254037844386))  # mu^2 = mu - 1
        assert cyclo_embed((2, -1)) == pytest.approx(complex(1.5, -0.8660254037844386))
        assert cyclo_embed((1, 1), 3) == pytest.approx(complex(0.5, 0.28867513459481287))
        assert cyclo_embed((0, 1)) ** 2 == pytest.approx(cyclo_embed((-1, 1)))

    @given(*[st.integers(-24, 24)] * 4, *[st.integers(1, 6)] * 2)
    @settings(max_examples=60, deadline=None)
    def test_embed_is_ring_hom(self, a, b, c, d, n, m):
        # x / n and y / m against the package's one Z[mu] product, over n m
        x, y = (a, b), (c, d)
        assert abs(cyclo_embed(_signed_sum(((1, x, y),)), n * m) - cyclo_embed(x, n) * cyclo_embed(y, m)) < 1e-12
        sum_xy = (a * m + c * n, b * m + d * n)
        assert abs(cyclo_embed(sum_xy, n * m) - (cyclo_embed(x, n) + cyclo_embed(y, m))) < 1e-12

    @given(*[st.integers(-(10**30), 10**30)] * 2, st.integers(1, 10**20))
    @example(1, 1, 3)
    @example(10**30 + 1, -(10**30) + 7, 10**20 - 3)
    @example(3 * (2**53 + 1), 1, 3)  # float(a) / n would round twice
    @settings(max_examples=100, deadline=None)
    def test_embed_keeps_the_bits_of_fractions(self, a, b, n):
        # int true division is correctly rounded, so the embedding of the
        # numerators over n is the embedding of the float of each Fraction
        fa, fb = float(Fraction(a, n)), float(Fraction(b, n))
        want = complex(fa + 0.5 * fb, sqrt(3.0) / 2.0 * fb)
        assert repr(cyclo_embed((a, b), n)) == repr(want)


class TestRankKernel:
    def test_identity(self):
        assert rank(QMatrix([[1, 0], [0, 1]])) == 2
        assert kernel_basis(QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []

    def test_inexact_entries_rejected(self):
        for bad in ("1/2", 0.1):
            with pytest.raises(TypeError, match="not an exact rational"):
                QMatrix([[bad]])

    def test_single_row(self):
        m = QMatrix([[1, 1]])
        assert rank(m) == 1
        basis = kernel_basis(m)
        assert len(basis) == 1
        (v,) = basis
        assert v[0] == -v[1] != 0

    def test_empty(self):
        assert rank(QMatrix([])) == 0

    def test_kernel_annihilates(self):
        m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.mul_vector(v))
        assert rank(m) == gauss_rank(m.entries)

    def test_component_pairing_matrix(self):
        # the 4x22 pairing matrix: rank 3 against the independent oracle,
        # kernel of dimension 19
        m = phi_matrix(4)
        assert rank(m) == gauss_rank(m.entries) == 3
        assert len(kernel_basis(m)) == 19

    @given(
        st.lists(
            st.lists(small_fraction, min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_and_oracle(self, rows):
        m = QMatrix(rows)
        rk = rank(m)
        basis = kernel_basis(m)
        assert rk + len(basis) == m.cols
        assert rk == gauss_rank(rows)
        for v in basis:
            assert all(x == 0 for x in m.mul_vector(v))
        assert rank(QMatrix(basis)) == len(basis) if basis else True


class TestSympyOracle:
    """rank, kernel_basis and mul_vector against sympy's exact arithmetic.

    Both kernels are built the same way from the reduced row echelon form
    (one vector per free column, 1 at that column), which is unique, so
    the bases agree vector for vector.
    """

    def assert_agrees(self, rows):
        m = QMatrix(rows)
        sm = to_sympy(m.entries)
        assert rank(m) == sm.rank()
        assert kernel_basis(m) == [from_sympy(v) for v in sm.nullspace()]

    @pytest.mark.parametrize("d", range(2, 7))
    def test_phi_matrix(self, d):
        self.assert_agrees(phi_matrix(d).entries)

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_sparse_matrices(self, rows):
        self.assert_agrees(rows)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_mul_vector(self, rows, data):
        m = QMatrix(rows)
        v = data.draw(st.lists(sparse_entry, min_size=m.cols, max_size=m.cols))
        assert m.mul_vector(v) == from_sympy(to_sympy(m.entries) * to_sympy([[x] for x in v]))


class TestInSpan:
    def test_inside(self):
        ok, coeffs = in_span([(Fraction(1), Fraction(0))], (Fraction(2), Fraction(0)))
        assert ok and coeffs == (Fraction(2),)

    def test_outside(self):
        ok, coeffs = in_span([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1)))
        assert not ok and coeffs is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_span([(Fraction(1),)], (Fraction(1), Fraction(0)))

    def test_reconstruction(self):
        vs = [(1, 0, 2), (0, 1, 1)]
        ok, coeffs = in_span(vs, (3, -2, 4))
        assert ok
        recon = [sum(c * Fraction(v[i]) for c, v in zip(coeffs, vs)) for i in range(3)]
        assert recon == [3, -2, 4]

    def test_dependent_spanning_set(self):
        vs = [(1, 0), (2, 0), (1, 1)]
        ok, coeffs = in_span(vs, (5, 3))
        assert ok
        recon = [sum(c * Fraction(v[i]) for c, v in zip(coeffs, vs)) for i in range(2)]
        assert recon == [5, 3]

    def test_empty_span(self):
        ok, coeffs = in_span([], (0, 0))
        assert ok and coeffs == ()
        ok, coeffs = in_span([], (1, 0))
        assert not ok and coeffs is None


# ints, bools, and integral and non-integral Fractions: every exact input
exact_scalar = st.one_of(
    st.integers(-6, 6),
    st.booleans(),
    st.integers(-6, 6).map(Fraction),
    small_fraction,
)


# a + b mu in Z[mu], as the pair (a, b)
zmu = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def one_format(x) -> bool:
    """The package's scalar rule: an int exactly when the value is integral,
    else a Fraction (never a bool, float or integral Fraction)."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


class TestOneScalarFormat:
    """Every store and every output holds an int exactly when the value is
    integral, and a Fraction otherwise."""

    @given(st.lists(st.lists(exact_scalar, min_size=3, max_size=3), min_size=1, max_size=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matrix_stores_and_outputs(self, rows, data):
        m = QMatrix(rows)
        assert all(one_format(x) for row in m.entries for x in row)
        assert m.entries == tuple(tuple(Fraction(x) for x in row) for row in rows)
        v = data.draw(st.lists(exact_scalar, min_size=3, max_size=3))
        assert all(one_format(x) for x in m.mul_vector(v))
        assert all(one_format(x) for k in kernel_basis(m) for x in k)
        ok, coeffs = in_span(rows, v)
        assert ok == (coeffs is not None)
        assert all(one_format(x) for x in coeffs or ())

    @given(zmu, zmu, zmu.filter(lambda z: z != (0, 0)), zmu)
    @settings(max_examples=80, deadline=None)
    def test_chart_xy_parts(self, x, y, z, w):
        # a chart point holds ints only: two Z[mu] numerators and N(Z) > 0
        cx, cy, n = chart_xy((x, y, z, w))
        assert all(type(v) is int for v in (*cx, *cy, n)) and n > 0

    @given(exact_scalar, exact_scalar, exact_scalar)
    @settings(max_examples=80, deadline=None)
    def test_h2_class_and_kernel_coordinates(self, a, b, c):
        x = reduce_raw(3, {("l", 1): a, ("l", 2): b})
        y = reduce_raw(3, {("e", 1, 2, 3): c, ("l", 3): a})
        for z in (x, y, _combine(3, ((1, x), (1, y))), _combine(3, ((1, x), (-1, y))), _combine(3, ((c, x),))):
            assert all(one_format(v) for _, v in z)
            assert all(one_format(v) for v in dense(3, z))
        basis = hodge_kernel_basis(3)
        k = _combine(3, ((a, basis[0]), (b, basis[1]), (c, basis[5])))
        scaled = express_in_B(3, k)  # the coordinates of 3k
        assert scaled is not None and all(one_format(v) for v in scaled)
        coords = [Fraction(n, 3) for n in scaled]
        assert coords[:2] == [a, b] and coords[5] == c

    @given(
        st.integers(-(10**30), 10**30) | st.fractions(max_denominator=10**6),
        st.integers(-(10**12), 10**12).filter(bool),
    )
    @example(-(10**30), 1)
    @example(10**30, -(10**15))
    @example(-7, 7)
    @example(0, -3)
    @settings(max_examples=300, deadline=None)
    def test_ratio_is_the_exact_quotient(self, n, d):
        got, want = _ratio(n, d), _exact(Fraction(n, d))
        assert got == want and type(got) is type(want)
        assert one_format(got)

    def test_threefold_boundary_lines(self):
        assert all(type(c) is int for _, c in threefold_boundary(1, 2, 3, 1)[1])

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", "1/2"])
    def test_inexact_raises_everywhere(self, bad):
        for make in (
            lambda: QMatrix([[1, bad]]),
            lambda: reduce_raw(3, {("l", 1): bad}),
            lambda: in_span([(1, 0)], (1, bad)),
            lambda: in_span([(1, bad)], (1, 0)),
        ):
            with pytest.raises(TypeError, match="not an exact rational"):
                make()
