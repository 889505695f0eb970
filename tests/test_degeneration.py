"""Presentation, component pairing and kernel basis tests.

Dimension counts are cross-checked by an independent route: the number of
generators minus the exact rank of the relation matrix.
"""

from fractions import Fraction

import pytest

from hodge_degen.degeneration import (
    H2Class,
    canonical_generators,
    coordinate_dim,
    hodge_kernel_basis,
    independence_certificate,
    kernel_dim,
    kernel_of_phi,
    phi_matrix,
    presentation,
    reduce_raw,
)
from hodge_degen.exactlin import QMatrix, rank


def relation_rank(d):
    """Oracle: rank of the relation matrix over the full generator list."""
    gens, relations, _ = presentation(d)
    idx = {g: k for k, g in enumerate(gens)}
    rows = []
    for rel in relations:
        row = [Fraction(0)] * len(gens)
        for g, c in rel.items():
            row[idx[g]] = c
        rows.append(row)
    return len(gens), rank(QMatrix(rows))


class TestPresentation:
    @pytest.mark.parametrize("d,dim", [(2, 3), (3, 9), (4, 22), (5, 45), (6, 81)])
    def test_dimension_formula(self, d, dim):
        _, _, got = presentation(d)
        assert got == dim
        assert 2 * got == d * (2 + (d - 1) ** 2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_dimension_via_relation_rank(self, d):
        ngens, rk = relation_rank(d)
        _, relations, dim = presentation(d)
        assert rk == len(relations)  # relations independent
        assert dim == ngens - rk

    def test_d2_generators(self):
        gens, relations, dim = presentation(2)
        assert gens == [("l", 1), ("l", 2), ("e", 1, 2, 1), ("e", 1, 2, 2)]
        assert len(relations) == 1
        assert dim == 3

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            presentation(1)


class TestReduce:
    def test_eliminates_last_column(self):
        got = reduce_raw(4, {("e", 1, 2, 4): Fraction(1)})
        want = H2Class(
            4,
            {
                ("l", 2): Fraction(1),
                ("l", 1): Fraction(-1),
                ("e", 1, 2, 1): Fraction(-1),
                ("e", 1, 2, 2): Fraction(-1),
                ("e", 1, 2, 3): Fraction(-1),
            },
        )
        assert got == want

    def test_fixes_canonical(self):
        got = reduce_raw(4, {("l", 1): Fraction(1)})
        assert got == H2Class(4, {("l", 1): Fraction(1)})

    def test_relation_collapses(self):
        raw = {("e", 1, 2, l): Fraction(1) for l in range(1, 5)}
        got = reduce_raw(4, raw)
        assert got == H2Class(4, {("l", 2): Fraction(1), ("l", 1): Fraction(-1)})

    def test_idempotent_and_linear(self):
        raw = {("e", 2, 3, 4): Fraction(5, 3), ("l", 2): Fraction(-1, 2), ("e", 1, 2, 1): Fraction(7)}
        once = reduce_raw(4, raw)
        again = reduce_raw(4, {g: c for g, c in once.coords})
        assert once == again
        doubled = reduce_raw(4, {g: 2 * c for g, c in raw.items()})
        assert doubled == once + once

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_raw(4, {("e", 1, 5, 1): Fraction(1)})


class TestPhi:
    def test_d4_line_column(self):
        m = phi_matrix(4)
        col = [m.entries[r][0] for r in range(4)]  # l_1 column
        assert col == [-3, 1, 1, 1]

    def test_d4_exceptional_column(self):
        m = phi_matrix(4)
        gens = canonical_generators(4)
        j = gens.index(("e", 1, 2, 1))
        col = [m.entries[r][j] for r in range(4)]
        assert col == [1, -1, 0, 0]

    @pytest.mark.parametrize("d", range(2, 7))
    def test_relations_annihilated(self, d):
        _, relations, _ = presentation(d)
        for rel in relations:
            assert all(x == 0 for x in phi_matrix(d).mul_vector(reduce_raw(d, rel).vector()))

    def test_well_defined_on_raw_coordinates(self):
        # phi after reduction equals the direct intersection table, so the
        # map descends to the quotient
        import random

        rng = random.Random(3)
        d = 4
        gens, _, _ = presentation(d)
        for _ in range(20):
            raw = {g: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for g in rng.sample(gens, 6)}
            direct = [Fraction(0)] * d
            for g, c in raw.items():
                if g[0] == "l":
                    for comp in range(1, d + 1):
                        direct[comp - 1] += c * (-(d - 1) if comp == g[1] else 1)
                else:
                    _, i, j, _ = g
                    direct[i - 1] += c
                    direct[j - 1] -= c
            assert list(phi_matrix(d).mul_vector(reduce_raw(d, raw).vector())) == direct

    @pytest.mark.parametrize("d", range(2, 9))
    def test_rank(self, d):
        assert rank(phi_matrix(d)) == d - 1

    def test_shape(self):
        m = phi_matrix(4)
        assert (m.rows, m.cols) == (4, 22)
        assert coordinate_dim(4) == 22

    def test_built_once_per_d(self):
        assert phi_matrix(5) is phi_matrix(5)
        with pytest.raises(ValueError):
            phi_matrix(1)


class TestKernelBasis:
    @pytest.mark.parametrize("d,n", [(2, 2), (3, 7), (4, 19), (5, 41)])
    def test_cardinality(self, d, n):
        assert len(hodge_kernel_basis(d)) == n == kernel_dim(d)

    def test_d2_explicit(self):
        basis = hodge_kernel_basis(2)
        assert basis[0] == H2Class(2, {("l", 1): Fraction(1), ("l", 2): Fraction(1)})
        # second element is e^{12}_1 - e^{12}_2 in canonical coordinates
        assert basis[1] == reduce_raw(2, {("e", 1, 2, 1): Fraction(1), ("e", 1, 2, 2): Fraction(-1)})

    @pytest.mark.parametrize("d", range(2, 9))
    def test_spans_kernel_exactly(self, d):
        basis = hodge_kernel_basis(d)
        elim = kernel_of_phi(d)
        assert len(elim) == len(basis)
        stacked = QMatrix([b.vector() for b in basis] + list(elim))
        assert rank(stacked) == len(basis)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_in_kernel(self, d):
        phi = phi_matrix(d)
        for b in hodge_kernel_basis(d):
            assert all(x == 0 for x in phi.mul_vector(b.vector()))

    def test_built_once_per_d(self):
        basis = hodge_kernel_basis(5)
        assert isinstance(basis, tuple)
        assert hodge_kernel_basis(5) is basis

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            hodge_kernel_basis(1)


class TestIndependenceCertificate:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_accepts_basis(self, d):
        assert independence_certificate(d, hodge_kernel_basis(d))

    def test_rejects_duplicated_pair_class(self):
        basis = list(hodge_kernel_basis(4))
        basis[2] = basis[1]
        assert rank(QMatrix([b.vector() for b in basis])) < len(basis)
        assert not independence_certificate(4, basis)

    def test_rejects_zero_total_class(self):
        basis = list(hodge_kernel_basis(4))
        basis[0] = H2Class(4, {})
        assert rank(QMatrix([b.vector() for b in basis])) < len(basis)
        assert not independence_certificate(4, basis)

    def test_rejects_total_with_exceptional_part(self):
        basis = list(hodge_kernel_basis(4))
        basis[0] = basis[0] + basis[1]
        assert not independence_certificate(4, basis)

    def test_rejects_wrong_length(self):
        assert not independence_certificate(4, hodge_kernel_basis(4)[:-1])


class TestH2Class:
    def test_to_json_document(self):
        x = H2Class(4, {("e", 1, 3, 2): Fraction(1, 4), ("l", 2): Fraction(-7, 3)})
        assert x.to_json() == (
            '{"d": 4, "coords": [{"gen": "l_2", "val": "-7/3"}, {"gen": "e_1_3_2", "val": "1/4"}]}'
        )

    def test_canonical_rejects_last_column(self):
        with pytest.raises(ValueError):
            H2Class(4, {("e", 1, 2, 4): Fraction(1)})

    def test_arithmetic(self):
        x = H2Class(3, {("l", 1): Fraction(1)})
        y = H2Class(3, {("l", 1): Fraction(-1), ("e", 1, 2, 1): Fraction(2)})
        assert (x + y) == H2Class(3, {("e", 1, 2, 1): Fraction(2)})
        assert (x - x).is_zero()
        assert x.scale(Fraction(3, 2)) == H2Class(3, {("l", 1): Fraction(3, 2)})
