"""Exact scalar and linear algebra tests.

Rank and kernel results are cross-checked against a plain Fraction
Gaussian elimination implemented here and against sympy's exact
``Matrix.rank`` / ``nullspace``, both independent of the package's
fraction-free routine.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_degen.degeneration import phi_matrix

from hodge_degen.exactlin import (
    MU,
    CycloNumber,
    QMatrix,
    cyclo_embed,
    in_span,
    kernel_basis,
    rank,
)


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
    def test_defining_relation(self):
        assert MU * MU == MU - 1

    def test_conjugation(self):
        assert MU.conjugate() == CycloNumber(1) - MU
        x = CycloNumber(Fraction(2, 3), Fraction(-5, 7))
        n = x * x.conjugate()
        assert n.b == 0 and n.a >= 0
        assert n.a == x.norm()

    def test_sixth_root(self):
        z = cyclo_embed(MU)
        assert abs(z ** 6 - 1) < 1e-12
        for k in range(1, 6):
            assert abs(z ** k - 1) > 0.9

    def test_embed_examples(self):
        assert cyclo_embed(MU) == pytest.approx(complex(0.5, 0.8660254037844386))
        assert cyclo_embed(MU * MU) == pytest.approx(complex(-0.5, 0.8660254037844386))
        assert cyclo_embed(CycloNumber(2) - MU) == pytest.approx(complex(1.5, -0.8660254037844386))
        # mu^2 = mu - 1 numerically too
        assert cyclo_embed(MU * MU) == pytest.approx(cyclo_embed(MU - 1))

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycloNumber(0).inverse()

    def test_inexact_scalars_rejected(self):
        # an exact scalar is an int, a Fraction or a CycloNumber
        for bad in ("1", "1/2", 0.5):
            with pytest.raises(TypeError, match="not an exact rational"):
                CycloNumber(bad)
            with pytest.raises(TypeError, match="not an exact rational"):
                MU * bad

    @given(a=small_fraction, b=small_fraction, c=small_fraction, d=small_fraction,
           e=small_fraction, f=small_fraction)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c, d, e, f):
        x = CycloNumber(a, b)
        y = CycloNumber(c, d)
        z = CycloNumber(e, f)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == CycloNumber(1)

    @given(a=small_fraction, b=small_fraction, c=small_fraction, d=small_fraction)
    @settings(max_examples=60, deadline=None)
    def test_embed_is_ring_hom(self, a, b, c, d):
        x = CycloNumber(a, b)
        y = CycloNumber(c, d)
        assert abs(cyclo_embed(x * y) - cyclo_embed(x) * cyclo_embed(y)) < 1e-12
        assert abs(cyclo_embed(x + y) - (cyclo_embed(x) + cyclo_embed(y))) < 1e-12

    def test_conjugate_matches_complex_conjugation(self):
        x = CycloNumber(Fraction(3, 5), Fraction(-2, 3))
        assert cyclo_embed(x.conjugate()) == pytest.approx(cyclo_embed(x).conjugate())


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
        from hodge_degen.degeneration import phi_matrix

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
