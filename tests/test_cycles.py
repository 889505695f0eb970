"""Cycle construction, marker cancellation, residue classes, span checks.

The residue derivation goes through the local blow-up rules; the closed
forms (exceptional three-term class for gamma, line degeneration class
for lambda) serve as oracles here.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hodge_degen import degeneration
from hodge_degen.cycles import (
    HigherCycle,
    MarkerCancellationError,
    Precycle,
    build_cycle,
    express_in_B,
    family_cycles,
    pair_kernel_class,
    singularity_at_zero,
    span_rank,
    threefold_boundary,
)
from hodge_degen.degeneration import H2Class, hodge_kernel_basis, phi_matrix, reduce_raw
from hodge_degen.exactlin import in_span


def gamma_closed_form(d, i, j, k, l):
    """Oracle: the three-term exceptional class."""
    return reduce_raw(
        d,
        {("e", i, j, l): Fraction(1), ("e", j, k, l): Fraction(1), ("e", i, k, l): Fraction(-1)},
    )


def lambda_closed_form(d, i, l):
    """Oracle: strict transform plus the higher-index exceptional curves."""
    raw = {("l", i): Fraction(1)}
    for a in range(1, i):
        raw[("e", a, i, l)] = Fraction(-1)
    for a in range(i + 1, d + 1):
        raw[("e", i, a, l)] = Fraction(1)
    return reduce_raw(d, raw)


class TestBuildCycle:
    def test_gamma_terms(self):
        g = build_cycle("gamma", (1, 2, 3, 1))
        assert [t.support for t in g.terms] == [(1, 1), (2, 1), (3, 1)]
        assert [t.func_zero for t in g.terms] == [("L", 2), ("L", 3), ("L", 1)]
        assert [t.func_pole for t in g.terms] == [("L", 3), ("L", 1), ("L", 2)]

    def test_delta_swaps_roles(self):
        dl = build_cycle("delta", (4, 1, 2, 3))
        assert [t.support for t in dl.terms] == [(4, 1), (4, 2), (4, 3)]
        assert [t.func_zero for t in dl.terms] == [("M", 2), ("M", 3), ("M", 1)]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            build_cycle("gamma", (2, 1, 3, 1))
        with pytest.raises(ValueError):
            build_cycle("delta", (1, 3, 2, 4))

    def test_lambda(self):
        lam = build_cycle("lambda", (2, 3))
        assert lam.terms[0].support == (2, 3)
        assert lam.terms[0].func_zero is None


class TestBoundary:
    def test_single_term(self):
        # the zero and the pole of a lone ratio term stay as markers
        term = Precycle((1, 2), ("L", 2), ("L", 3))
        with pytest.raises(MarkerCancellationError) as exc:
            singularity_at_zero(HigherCycle("gamma", (), (term,)), 4)
        assert str(exc.value) == (
            "markers do not cancel: {('p', 1, 2, 2): Fraction(1, 1), ('p', 1, 3, 2): Fraction(-1, 1)}"
        )

    @pytest.mark.parametrize("d", range(3, 7))
    def test_gamma_and_delta_close(self, d):
        # every cycle closes, and dropping any one of its terms breaks that
        for c in family_cycles(d, "gamma") + family_cycles(d, "delta"):
            singularity_at_zero(c, d)
            for k in range(len(c.terms)):
                part = HigherCycle(c.kind, c.indices, c.terms[:k] + c.terms[k + 1 :])
                with pytest.raises(MarkerCancellationError):
                    singularity_at_zero(part, d)

    def test_lambda_closes(self):
        # the pencil parameter carries no markers, so a lambda term joins
        # a closed gamma cycle without breaking it, and classes add
        g = build_cycle("gamma", (1, 2, 3, 1))
        lam = build_cycle("lambda", (1, 1))
        both = HigherCycle("gamma", g.indices, g.terms + lam.terms)
        assert singularity_at_zero(both, 4) == singularity_at_zero(g, 4) + singularity_at_zero(lam, 4)


class TestSingularity:
    def test_gamma_example(self):
        got = singularity_at_zero(build_cycle("gamma", (1, 2, 3, 1)), 4)
        assert got == gamma_closed_form(4, 1, 2, 3, 1)
        assert got == H2Class(
            4,
            {("e", 1, 2, 1): Fraction(1), ("e", 2, 3, 1): Fraction(1), ("e", 1, 3, 1): Fraction(-1)},
        )

    def test_lambda_example(self):
        got = singularity_at_zero(build_cycle("lambda", (1, 1)), 4)
        assert got == H2Class(
            4,
            {
                ("l", 1): Fraction(1),
                ("e", 1, 2, 1): Fraction(1),
                ("e", 1, 3, 1): Fraction(1),
                ("e", 1, 4, 1): Fraction(1),
            },
        )

    @pytest.mark.parametrize("d", range(3, 7))
    def test_gamma_closed_form_all(self, d):
        for i, j, k in combinations(range(1, d + 1), 3):
            for l in range(1, d + 1):
                got = singularity_at_zero(build_cycle("gamma", (i, j, k, l)), d)
                assert got == gamma_closed_form(d, i, j, k, l)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_lambda_closed_form_all(self, d):
        for i in range(1, d + 1):
            for l in range(1, d + 1):
                got = singularity_at_zero(build_cycle("lambda", (i, l)), d)
                assert got == lambda_closed_form(d, i, l)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_delta_trivial_all(self, d):
        for c in family_cycles(d, "delta"):
            assert singularity_at_zero(c, d).is_zero()

    @pytest.mark.parametrize("d", range(2, 7))
    def test_lambda_column_sums(self, d):
        total_lines = H2Class(d, {("l", i): Fraction(1) for i in range(1, d + 1)})
        for l in range(1, d + 1):
            acc = H2Class(d, {})
            for i in range(1, d + 1):
                acc = acc + singularity_at_zero(build_cycle("lambda", (i, l)), d)
            assert acc == total_lines

    def test_marker_cancellation_enforced(self):
        lone = HigherCycle("gamma", (), (Precycle((1, 1), ("L", 2), ("L", 3)),))
        with pytest.raises(MarkerCancellationError):
            singularity_at_zero(lone, 4)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            singularity_at_zero(build_cycle("gamma", (1, 2, 5, 1)), 4)


class TestExpressInB:
    def test_gamma_quarter_pattern(self):
        cls = singularity_at_zero(build_cycle("gamma", (1, 2, 3, 1)), 4)
        # basis order: total, then (i,j) lex with l = 1..3
        expected = [Fraction(0)] * 19
        expected[1] = Fraction(1, 4)   # pair (1,2), l=1
        expected[4] = Fraction(-1, 4)  # pair (1,3), l=1
        expected[10] = Fraction(1, 4)  # pair (2,3), l=1
        assert list(express_in_B(cls, 4)) == expected

    def test_lambda_quarter_pattern(self):
        cls = singularity_at_zero(build_cycle("lambda", (1, 1)), 4)
        expected = [Fraction(0)] * 19
        expected[0] = Fraction(1, 4)
        expected[1] = Fraction(1, 4)   # (1,2), l=1
        expected[4] = Fraction(1, 4)   # (1,3), l=1
        expected[7] = Fraction(1, 4)   # (1,4), l=1
        assert list(express_in_B(cls, 4)) == expected

    def test_zero_class(self):
        coeffs = express_in_B(H2Class(4, {}), 4)
        assert coeffs is not None and all(c == 0 for c in coeffs)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_left_inverse(self, d):
        # closed-form coordinates against the generic elimination oracle
        rng = random.Random(5 + d)
        basis = hodge_kernel_basis(d)
        vectors = [b.vector() for b in basis]
        for _ in range(2):
            coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) for _ in basis]
            combo = H2Class(d, {})
            for c, b in zip(coeffs, basis):
                combo = combo + b.scale(c)
            assert any(g[0] == "e" and g[2] == d for g, _ in combo.coords)
            ok, oracle = in_span(vectors, combo.vector())
            assert ok
            assert list(express_in_B(combo, d)) == list(oracle) == coeffs

    def test_combination_checked_against_class(self, monkeypatch):
        # a basis that disagrees with the closed form is caught by the
        # exact reconstruction, not returned as coordinates
        basis = list(hodge_kernel_basis(4))
        basis[1] = basis[1].scale(Fraction(2))
        monkeypatch.setattr(degeneration, "hodge_kernel_basis", lambda d: tuple(basis))
        cls = singularity_at_zero(build_cycle("gamma", (1, 2, 3, 1)), 4)
        with pytest.raises(AssertionError):
            express_in_B(cls, 4)

    def test_off_kernel_residual(self):
        # l_1 pairs nontrivially with the components: no coordinates
        x = H2Class(4, {("l", 1): Fraction(1)})
        assert any(phi_matrix(4).mul_vector(x.vector()))
        assert express_in_B(x, 4) is None


class TestSpanRank:
    @pytest.mark.parametrize("d,expected", [(3, 7), (4, 19), (5, 41)])
    def test_full_family_spans(self, d, expected):
        res = span_rank(d, "both")
        assert res.rank == res.expected == expected
        assert res.spanning and res.combination_verified

    def test_lambda_only_falls_short(self):
        res = span_rank(4, "lambda")
        assert res.rank == 10 and not res.spanning

    def test_gamma_only_falls_short(self):
        res = span_rank(4, "gamma")
        assert res.rank == 9 and not res.spanning

    def test_gamma_needs_three_planes(self):
        with pytest.raises(ValueError):
            span_rank(2, "both")

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_explicit_combination_directly(self, d):
        # the corrected-sign combination reproduces each pair class
        for i, j in combinations(range(1, d + 1), 2):
            for l in range(1, d + 1):
                acc = singularity_at_zero(build_cycle("lambda", (i, l)), d)
                acc = acc - singularity_at_zero(build_cycle("lambda", (j, l)), d)
                for k in range(1, i):
                    acc = acc + singularity_at_zero(build_cycle("gamma", (k, i, j, l)), d)
                for k in range(i + 1, j):
                    acc = acc - singularity_at_zero(build_cycle("gamma", (i, k, j, l)), d)
                for k in range(j + 1, d + 1):
                    acc = acc + singularity_at_zero(build_cycle("gamma", (i, j, k, l)), d)
                assert acc == pair_kernel_class(d, i, j, l)


class TestThreefoldBoundary:
    def test_three_term_shape(self):
        tb = threefold_boundary(1, 2, 3, 1)
        assert tb.lines == (((1, 2, 1), Fraction(1)), ((2, 3, 1), Fraction(1)), ((1, 3, 1), Fraction(-1)))
        assert tb.side == "L"

    def test_coefficient_sum(self):
        assert threefold_boundary(2, 3, 5, 4).coefficient_sum() == 1

    def test_ordering(self):
        with pytest.raises(ValueError):
            threefold_boundary(2, 1, 3, 1)

    def test_mirrored_side(self):
        tb = threefold_boundary(1, 2, 4, 3, side="M")
        assert tb.side == "M"
        assert [c for _, c in tb.lines] == [1, 1, -1]
