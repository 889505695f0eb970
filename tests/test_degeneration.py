"""Presentation, component pairing and kernel basis tests.

Dimension counts are cross-checked by an independent route: the number of
generators minus the exact rank of the relation matrix.  Every rank
witness is checked against exact elimination for d <= 10, and tampered
witnesses must fail.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge_degen.degeneration import (
    H2Class,
    canonical_generators,
    coordinate_dim,
    hodge_kernel_basis,
    in_kernel,
    independence_certificate,
    kernel_dim,
    kernel_of_phi,
    phi_columns,
    phi_matrix,
    phi_rank_holds,
    presentation,
    reduce_raw,
    relation_block_holds,
    spans_kernel,
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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_dimension_via_relation_rank(self, d):
        ngens, rk = relation_rank(d)
        gens, relations, dim = presentation(d)
        assert rk == len(relations)  # relations independent
        assert relation_block_holds(d, gens, relations)  # and the witness says so
        assert dim == ngens - rk

    def test_relation_sign_slip_breaks_block(self):
        # relation 2 is the pair (1, 4); +1 at its own e^{14}_4 column
        gens, relations, _ = presentation(4)
        relations[2] = {**relations[2], ("e", 1, 4, 4): 1}
        assert not relation_block_holds(4, gens, relations)

    def test_duplicated_relation_breaks_block(self):
        gens, relations, _ = presentation(4)
        relations[1] = relations[0]
        assert not relation_block_holds(4, gens, relations)

    def test_d2_generators(self):
        gens, relations, dim = presentation(2)
        assert gens == [("l", 1), ("l", 2), ("e", 1, 2, 1), ("e", 1, 2, 2)]
        assert len(relations) == 1
        assert dim == 3

    @pytest.mark.parametrize("d", range(2, 9))
    def test_relations_written_out(self, d):
        # l_j - l_i - sum_l e^{ij}_l per pair i < j in lex order, written
        # out here without the generator table, key order included
        _, relations, _ = presentation(d)
        by_hand = [
            {("l", j): 1, ("l", i): -1, **{("e", i, j, l): -1 for l in range(1, d + 1)}}
            for i, j in combinations(range(1, d + 1), 2)
        ]
        assert [list(rel.items()) for rel in relations] == [list(rel.items()) for rel in by_hand]

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

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            reduce_raw(4, {("e", 1, 2, 4): 0.5})


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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_rank(self, d):
        assert rank(phi_matrix(d)) == d - 1
        assert phi_rank_holds(d, phi_columns(d))

    @pytest.mark.parametrize("g,comp", [(("e", 1, 4, 1), 1), (("e", 2, 3, 2), 3), (("l", 2), 3)])
    def test_column_off_by_one_breaks_witness(self, g, comp):
        cols = {h: dict(col) for h, col in phi_columns(4).items()}
        cols[g][comp] = cols[g].get(comp, 0) + 1
        assert not phi_rank_holds(4, cols)

    def test_sparse_membership_matches_dense_product(self):
        import random

        rng = random.Random(11)
        for d in (3, 5):
            gens = canonical_generators(d)
            basis = hodge_kernel_basis(d)
            for _ in range(30):
                x = H2Class(d, {g: rng.randint(-3, 3) for g in rng.sample(gens, 4)})
                if rng.random() < 0.5:  # half of them on the kernel
                    x = sum((b.scale(rng.randint(-2, 2)) for b in rng.sample(basis, 3)), H2Class(d, {}))
                assert in_kernel(x) == (not any(phi_matrix(d).mul_vector(x.vector())))

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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_spans_kernel_exactly(self, d):
        basis = hodge_kernel_basis(d)
        elim = kernel_of_phi(d)
        assert len(elim) == len(basis)
        stacked = QMatrix([b.vector() for b in basis] + list(elim))
        assert rank(stacked) == len(basis)
        assert spans_kernel(d, basis)

    def test_element_off_kernel_breaks_witness(self):
        basis = list(hodge_kernel_basis(4))
        basis[5] = basis[5] + H2Class(4, {("l", 1): 1})
        assert independence_certificate(4, basis)  # still independent
        assert not in_kernel(basis[5])
        assert not spans_kernel(4, basis)
        # elimination sees the direction outside the kernel
        stacked = QMatrix([b.vector() for b in basis] + list(kernel_of_phi(4)))
        assert rank(stacked) == len(basis) + 1

    def test_short_basis_breaks_witness(self):
        assert not spans_kernel(4, hodge_kernel_basis(4)[:-1])

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
        doc = x.to_json_dict()
        assert doc == {"d": 4, "coords": [{"gen": "l_2", "val": "-7/3"}, {"gen": "e_1_3_2", "val": "1/4"}]}
        assert json.dumps(doc) == (
            '{"d": 4, "coords": [{"gen": "l_2", "val": "-7/3"}, {"gen": "e_1_3_2", "val": "1/4"}]}'
        )

    def test_canonical_rejects_last_column(self):
        with pytest.raises(ValueError):
            H2Class(4, {("e", 1, 2, 4): Fraction(1)})

    def test_float_coefficient_rejected(self):
        # the same error as QMatrix([[0.1]]), not a silent binary fraction;
        # a string is not an exact scalar either
        with pytest.raises(TypeError, match="not an exact rational"):
            H2Class(4, {("l", 1): 0.1})
        with pytest.raises(TypeError, match="not an exact rational"):
            H2Class(4, {("l", 1): 1}).scale(0.5)
        with pytest.raises(TypeError, match="not an exact rational"):
            H2Class(3, {("l", 1): "1/2"})

    def test_integral_coefficients_are_int(self):
        x = H2Class(4, {("l", 1): Fraction(6, 3), ("l", 2): Fraction(1, 2), ("l", 3): 3})
        assert [type(c) for _, c in x.coords] == [int, Fraction, int]
        assert x == H2Class(4, {("l", 1): 2, ("l", 2): Fraction(1, 2), ("l", 3): Fraction(3)})
        assert all(type(c) is int for b in hodge_kernel_basis(5) for _, c in b.coords)

    def test_arithmetic(self):
        x = H2Class(3, {("l", 1): Fraction(1)})
        y = H2Class(3, {("l", 1): Fraction(-1), ("e", 1, 2, 1): Fraction(2)})
        assert (x + y) == H2Class(3, {("e", 1, 2, 1): Fraction(2)})
        assert (x - x).is_zero()
        assert x.scale(Fraction(3, 2)) == H2Class(3, {("l", 1): Fraction(3, 2)})


def is_canonical(g, d):
    """Oracle: l_i, or e^{ij}_l with i < j and l < d."""
    if g[0] == "l":
        return len(g) == 2 and 1 <= g[1] <= d
    return g[0] == "e" and len(g) == 4 and 1 <= g[1] < g[2] <= d and 1 <= g[3] < d


def is_presented(g, d):
    """Oracle: a canonical generator or some e^{ij}_d."""
    return is_canonical(g, d) or (g[0] == "e" and len(g) == 4 and 1 <= g[1] < g[2] <= d and g[3] == d)


@st.composite
def generators(draw):
    """(d, tuple): well-formed lines and exceptionals (l = d included), and
    arbitrary tags, lengths and indices around the valid range."""
    d = draw(st.integers(2, 6))
    i, j = sorted(draw(st.lists(st.integers(1, d), min_size=2, max_size=2, unique=True)))
    g = draw(
        st.one_of(
            st.tuples(st.just("l"), st.integers(1, d)),
            st.tuples(st.just("e"), st.just(i), st.just(j), st.integers(1, d)),
            st.tuples(st.sampled_from(("l", "e", "x")), st.lists(st.integers(-1, d + 1), max_size=4)).map(
                lambda t: (t[0], *t[1])
            ),
        )
    )
    return d, g


@st.composite
def raw_maps(draw):
    """(d, a coefficient on every presentation generator of d)."""
    d = draw(st.integers(2, 6))
    gens = presentation(d)[0]
    return d, dict(zip(gens, draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))))


class TestGeneratorTable:
    @given(generators(), st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    @example((4, ("x", 1)), 1)  # wrong tag
    @example((4, ("l", 1, 2)), 1)  # wrong length
    @example((4, ("e", 1, 2)), 1)
    @example((4, ("l", 5)), 1)  # out of range
    @example((4, ("e", 0, 2, 1)), 1)
    @example((4, ("e", 1, 2, 5)), 1)
    @example((4, ("e", 2, 2, 1)), 1)  # i >= j
    @example((4, ("e", 3, 2, 1)), 1)
    @example((4, ("e", 1, 2, 4)), 0)  # l = d, zero coefficient
    def test_table_is_the_only_validator(self, dg, c):
        d, g = dg
        if is_canonical(g, d):
            assert H2Class(d, {g: c}).coords == (((g, c),) if c else ())
        else:
            with pytest.raises(ValueError):
                H2Class(d, {g: c})
        if is_presented(g, d):
            assert reduce_raw(d, {g: c}) == reduce_raw(d, {g: 1}).scale(c)
        else:
            with pytest.raises(ValueError):
                reduce_raw(d, {g: c})

    @given(raw_maps())
    @settings(max_examples=100, deadline=None)
    def test_coords_follow_vector_columns(self, d_raw):
        d, raw = d_raw
        x = reduce_raw(d, raw)
        v = x.vector()
        nonzero = [k for k, c in enumerate(v) if c]
        assert [g for g, _ in x.coords] == [canonical_generators(d)[k] for k in nonzero]
        assert [c for _, c in x.coords] == [v[k] for k in nonzero]
