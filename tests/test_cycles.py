"""Cycle construction, marker cancellation, residue classes, span checks.

The residue derivation goes through the local blow-up rules; the closed
forms (exceptional three-term class for gamma, line degeneration class
for lambda) serve as oracles here.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hodge_degen import cycles, degeneration
from hodge_degen.cycles import (
    MarkerCancellationError,
    build_cycle,
    express_in_B,
    family_cycles,
    pair_combination,
    singularity_at_zero,
    span_rank,
    threefold_boundary,
)
from hodge_degen.degeneration import _combine, hodge_kernel_basis, reduce_raw
from hodge_degen.exactlin import QMatrix
from oracle import dense, in_span, phi_matrix, rank


def pair_class(d, i, j, l):
    """Oracle: the pair class sum_{l'} (e^{ij}_l - e^{ij}_{l'}), any 1 <= l <= d."""
    raw = {("e", i, j, lp): -1 for lp in range(1, d + 1)}
    raw["e", i, j, l] += d
    return reduce_raw(d, raw)


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
        assert g == ("gamma", (1, 2, 3, 1))
        assert [support for support, _, _ in cycles._terms(g)] == [(1, 1), (2, 1), (3, 1)]
        assert [zero for _, zero, _ in cycles._terms(g)] == [("L", 2), ("L", 3), ("L", 1)]
        assert [pole for _, _, pole in cycles._terms(g)] == [("L", 3), ("L", 1), ("L", 2)]

    def test_delta_swaps_roles(self):
        dl = build_cycle("delta", (4, 1, 2, 3))
        assert dl == ("delta", (4, 1, 2, 3))
        assert [support for support, _, _ in cycles._terms(dl)] == [(4, 1), (4, 2), (4, 3)]
        assert [zero for _, zero, _ in cycles._terms(dl)] == [("M", 2), ("M", 3), ("M", 1)]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            build_cycle("gamma", (2, 1, 3, 1))
        with pytest.raises(ValueError):
            build_cycle("delta", (1, 3, 2, 4))

    def test_lambda(self):
        lam = build_cycle("lambda", (2, 3))
        assert lam == ("lambda", (2, 3))
        assert cycles._terms(lam) == (((2, 3), None, None),)

    def test_family_cycles_are_valid_keys(self):
        for family in ("both", "delta"):
            keys = family_cycles(4, family)
            assert keys == [build_cycle(*key) for key in keys]
            assert len(set(keys)) == len(keys)
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            family_cycles(4, "bogus")


class TestBoundary:
    def test_single_term(self, monkeypatch):
        # the zero and the pole of a lone ratio term stay as markers
        monkeypatch.setattr(cycles, "_terms", lambda key: (((1, 2), ("L", 2), ("L", 3)),))
        with pytest.raises(MarkerCancellationError) as exc:
            singularity_at_zero(4, ("gamma", (1, 2, 3, 1)))
        assert str(exc.value) == (
            "markers do not cancel: {('p', 1, 2, 2): 1, ('p', 1, 3, 2): -1}"
        )

    @pytest.mark.parametrize("d", range(3, 7))
    def test_gamma_and_delta_close(self, d, monkeypatch):
        # every cycle closes, and dropping any one of its terms breaks that
        real = cycles._terms
        for c in family_cycles(d, "gamma") + family_cycles(d, "delta"):
            singularity_at_zero(d, c)
            terms = real(c)
            assert len(terms) == 3
            for k in range(len(terms)):
                monkeypatch.setattr(cycles, "_terms", lambda key, k=k: real(key)[:k] + real(key)[k + 1 :])
                with pytest.raises(MarkerCancellationError):
                    singularity_at_zero(d, c)
            monkeypatch.setattr(cycles, "_terms", real)

    def test_lambda_closes(self, monkeypatch):
        # the pencil parameter carries no markers, so a lambda term joins
        # a closed gamma cycle without breaking it, and classes add
        g = build_cycle("gamma", (1, 2, 3, 1))
        lam = build_cycle("lambda", (1, 1))
        separate = _combine(4, ((1, singularity_at_zero(4, g)), (1, singularity_at_zero(4, lam))))
        real = cycles._terms
        monkeypatch.setattr(cycles, "_terms", lambda key: real(g) + real(lam))
        assert singularity_at_zero(4, g) == separate


class TestSingularity:
    def test_gamma_example(self):
        got = singularity_at_zero(4, build_cycle("gamma", (1, 2, 3, 1)))
        assert got == gamma_closed_form(4, 1, 2, 3, 1)
        assert got == ((("e", 1, 2, 1), 1), (("e", 1, 3, 1), -1), (("e", 2, 3, 1), 1))

    def test_lambda_example(self):
        got = singularity_at_zero(4, build_cycle("lambda", (1, 1)))
        assert got == ((("l", 1), 1), (("e", 1, 2, 1), 1), (("e", 1, 3, 1), 1), (("e", 1, 4, 1), 1))

    @pytest.mark.parametrize("d", range(3, 7))
    def test_gamma_closed_form_all(self, d):
        for i, j, k in combinations(range(1, d + 1), 3):
            for l in range(1, d + 1):
                got = singularity_at_zero(d, build_cycle("gamma", (i, j, k, l)))
                assert got == gamma_closed_form(d, i, j, k, l)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_lambda_closed_form_all(self, d):
        for i in range(1, d + 1):
            for l in range(1, d + 1):
                got = singularity_at_zero(d, build_cycle("lambda", (i, l)))
                assert got == lambda_closed_form(d, i, l)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_delta_trivial_all(self, d):
        for c in family_cycles(d, "delta"):
            assert not singularity_at_zero(d, c)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_lambda_column_sums(self, d):
        total_lines = reduce_raw(d, {("l", i): Fraction(1) for i in range(1, d + 1)})
        for l in range(1, d + 1):
            acc = _combine(d, ((1, singularity_at_zero(d, build_cycle("lambda", (i, l)))) for i in range(1, d + 1)))
            assert acc == total_lines

    def test_marker_cancellation_enforced(self, monkeypatch):
        monkeypatch.setattr(cycles, "_terms", lambda key: (((1, 1), ("L", 2), ("L", 3)),))
        with pytest.raises(MarkerCancellationError):
            singularity_at_zero(4, ("gamma", (1, 2, 3, 1)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            singularity_at_zero(4, build_cycle("gamma", (1, 2, 5, 1)))

    @pytest.mark.parametrize(
        "key",
        [
            ("foo", (1, 2, 3, 4)),  # unknown kind, once read as delta
            ("delta", (1, 3, 2, 4)),  # unordered l < m < n, once the zero class
            ("gamma", (3, 2, 1, 1)),  # unordered i < j < k, once minus gamma(1,2,3;1)
            ("gamma", (0, 1, 2, 1)),
            ("lambda", (1, 2, 3)),
        ],
    )
    def test_malformed_key_refused(self, key):
        # the key is read through build_cycle, which refuses each of these
        with pytest.raises(ValueError):
            build_cycle(*key)
        with pytest.raises(ValueError):
            singularity_at_zero(4, key)

    @pytest.mark.parametrize(
        "key",
        [
            ("lambda", (True, 2)),  # once read as lambda(1; 2)
            ("gamma", (1, 2, 3.0, 1)),  # once the class of gamma(1,2,3; 1)
            ("delta", (1, 1, 2, 3.5)),
        ],
    )
    def test_non_int_index_refused(self, key):
        # a bool or a float equals an int and would pass for it as a key
        with pytest.raises(TypeError, match="indices must be ints"):
            build_cycle(*key)
        with pytest.raises(TypeError, match="indices must be ints"):
            singularity_at_zero(4, key)


def unscaled(d, scaled):
    """The coordinates of x from express_in_B(d, x), which gives those of d*x."""
    return [Fraction(n, d) for n in scaled]


class TestExpressInB:
    def test_gamma_quarter_pattern(self):
        cls = singularity_at_zero(4, build_cycle("gamma", (1, 2, 3, 1)))
        # basis order: total, then (i,j) lex with l = 1..3
        expected = [Fraction(0)] * 19
        expected[1] = Fraction(1, 4)   # pair (1,2), l=1
        expected[4] = Fraction(-1, 4)  # pair (1,3), l=1
        expected[10] = Fraction(1, 4)  # pair (2,3), l=1
        scaled = express_in_B(4, cls)
        assert all(type(n) is int for n in scaled)
        assert unscaled(4, scaled) == expected

    def test_lambda_quarter_pattern(self):
        cls = singularity_at_zero(4, build_cycle("lambda", (1, 1)))
        expected = [Fraction(0)] * 19
        expected[0] = Fraction(1, 4)
        expected[1] = Fraction(1, 4)   # (1,2), l=1
        expected[4] = Fraction(1, 4)   # (1,3), l=1
        expected[7] = Fraction(1, 4)   # (1,4), l=1
        scaled = express_in_B(4, cls)
        assert all(type(n) is int for n in scaled)
        assert unscaled(4, scaled) == expected

    def test_zero_class(self):
        coeffs = express_in_B(4, ())
        assert coeffs is not None and all(c == 0 for c in coeffs)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_left_inverse(self, d):
        # closed-form coordinates against the generic elimination oracle
        rng = random.Random(5 + d)
        basis = hodge_kernel_basis(d)
        vectors = [dense(d, b) for b in basis]
        for _ in range(2):
            coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) for _ in basis]
            combo = _combine(d, zip(coeffs, basis))
            assert any(g[0] == "e" and g[2] == d for g, _ in combo)
            ok, oracle = in_span(vectors, dense(d, combo))
            assert ok
            assert unscaled(d, express_in_B(d, combo)) == list(oracle) == coeffs

    def test_combination_checked_against_class(self, monkeypatch):
        # a basis that disagrees with the closed form is caught by the
        # exact reconstruction: no coordinates come back, and no exception
        cls = singularity_at_zero(4, build_cycle("gamma", (1, 2, 3, 1)))
        assert express_in_B(4, cls) is not None
        basis = list(hodge_kernel_basis(4))
        basis[1] = _combine(4, ((2, basis[1]),))
        monkeypatch.setattr(degeneration, "hodge_kernel_basis", lambda d: tuple(basis))
        assert express_in_B(4, cls) is None

    def test_basis_of_another_length_gives_none(self, monkeypatch):
        # the basis without its last class: the 19 closed-form coordinates
        # once checked against the 18 classes alone and came back
        cls = singularity_at_zero(4, build_cycle("gamma", (1, 2, 3, 1)))
        monkeypatch.setattr(degeneration, "hodge_kernel_basis", lambda d: hodge_kernel_basis(d)[:-1])
        assert express_in_B(4, cls) is None

    def test_unknown_generator_is_named(self):
        # a hand-written class goes through reduce_raw: e^{12}_5 is no
        # generator at d = 4, and the error says which
        x = ((("l", 1), 1), (("e", 1, 2, 5), 1))
        with pytest.raises(ValueError, match=r"not a presentation generator for d=4: \('e', 1, 2, 5\)"):
            express_in_B(4, x)

    def test_class_out_of_column_order(self):
        # the pairs of a kernel class reversed, and e^{12}_4 left to its
        # rewrite: the same coordinates as the canonical class
        cls = singularity_at_zero(4, build_cycle("gamma", (1, 2, 3, 1)))
        assert list(express_in_B(4, tuple(reversed(cls)))) == list(express_in_B(4, cls))
        pair = hodge_kernel_basis(4)[3]  # the pair class (1, 2; 3)
        raw = ((("e", 1, 2, 4), -1), (("e", 1, 2, 2), -1), (("e", 1, 2, 1), -1), (("e", 1, 2, 3), 3))
        assert reduce_raw(4, dict(raw)) == pair
        assert unscaled(4, express_in_B(4, raw)) == [0, 0, 0, 1] + [0] * 15
        # a generator listed twice counts with the sum of its coefficients
        split = ((("l", 1), 1), (("e", 1, 2, 3), 1), (("l", 2), -1), (("e", 1, 2, 3), 3))
        assert express_in_B(4, split) == express_in_B(4, hodge_kernel_basis(4)[3])
        assert unscaled(4, express_in_B(4, split)) == [0, 0, 0, 1] + [0] * 15

    def test_off_kernel_residual(self):
        # l_1 pairs nontrivially with the components: no coordinates
        x = reduce_raw(4, {("l", 1): Fraction(1)})
        assert any(phi_matrix(4).mul_vector(dense(4, x)))
        assert express_in_B(4, x) is None


class TestSpanRank:
    @pytest.mark.parametrize("d,expected", [(3, 7), (4, 19), (5, 41)])
    def test_full_family_spans(self, d, expected):
        rk, expected_rank, failed, _, _, _ = span_rank(d, "both")
        assert rk == expected_rank == expected
        assert rk == degeneration.kernel_dim(d) and failed is None

    def test_lambda_only_falls_short(self):
        rk = span_rank(4, "lambda")[0]
        assert rk == 10 and rk != degeneration.kernel_dim(4)

    def test_gamma_only_falls_short(self):
        rk = span_rank(4, "gamma")[0]
        assert rk == 9 and rk != degeneration.kernel_dim(4)

    def test_gamma_needs_three_planes(self):
        with pytest.raises(ValueError):
            span_rank(2, "both")

    def test_delta_needs_three_planes(self):
        with pytest.raises(ValueError, match="delta cycles need d >= 3"):
            family_cycles(2, "delta")
        with pytest.raises(ValueError, match="delta cycles need d >= 3"):
            span_rank(2, "delta")

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_explicit_combination_directly(self, d):
        # the corrected-sign combination reproduces each pair class
        for i, j in combinations(range(1, d + 1), 2):
            for l in range(1, d + 1):
                terms = [(1, ("lambda", (i, l))), (-1, ("lambda", (j, l)))]
                terms += [(1, ("gamma", (k, i, j, l))) for k in range(1, i)]
                terms += [(-1, ("gamma", (i, k, j, l))) for k in range(i + 1, j)]
                terms += [(1, ("gamma", (i, j, k, l))) for k in range(j + 1, d + 1)]
                acc = _combine(d, ((c, singularity_at_zero(d, build_cycle(*key))) for c, key in terms))
                assert acc == pair_class(d, i, j, l)


def residues(d):
    return {c: singularity_at_zero(d, c) for c in family_cycles(d, "both")}


class TestSpanWitness:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_witness_rank_matches_elimination(self, d):
        rk, expected, _, witness, witness_size, _ = span_rank(d, "both")
        assert witness == "replay + membership + diagonal certificate"
        assert witness_size == d * (d * (d - 1) // 2) + d
        nonzero = [dense(d, cl) for cl in residues(d).values() if cl]
        assert rk == rank(QMatrix(nonzero)) == expected

    def test_residue_coordinates_are_int(self):
        assert all(type(c) is int for cl in residues(5).values() for _, c in cl)

    def test_dropped_gamma_term_fails_replay(self):
        d, sing = 5, residues(5)
        combo, target = pair_combination(d, 2, 4, 1), pair_class(d, 2, 4, 1)
        assert cycles._replay_failure(d, sing, [(("pair", (2, 4, 1)), combo, target)]) is None
        for k, (_, key) in enumerate(combo):
            if key[0] == "gamma":
                dropped = [(("pair", (2, 4, 1)), combo[:k] + combo[k + 1 :], target)]
                assert cycles._replay_failure(d, sing, dropped) == "replay pair(2,4;1)"

    def test_total_replay_missing_lambda_fails(self):
        d, sing = 5, residues(5)
        total = hodge_kernel_basis(d)[0]
        for l in range(1, d + 1):
            combo = [(1, ("lambda", (i, l))) for i in range(1, d + 1)]
            assert cycles._replay_failure(d, sing, [(("total", (l,)), combo, total)]) is None
            assert cycles._replay_failure(d, sing, [(("total", (l,)), combo[1:], total)]) == f"replay total({l})"

    def test_kernel_replays_in_order(self):
        # every pair i < j in lex order with l = 1..d, then the totals; the
        # target at l = d is the pair class there, by the sum-zero identity
        d = 4
        replays = list(cycles._kernel_replays(d, hodge_kernel_basis(d)))
        pairs = [(i, j, l) for i, j in combinations(range(1, d + 1), 2) for l in range(1, d + 1)]
        assert [key for key, _, _ in replays] == [("pair", p) for p in pairs] + [("total", (l,)) for l in range(1, d + 1)]
        assert [target for _, _, target in replays[: len(pairs)]] == [pair_class(d, *p) for p in pairs]
        assert len(replays) == span_rank(d, "both")[4]

    def test_replay_reads_only_known_and_replayed_keys(self):
        # a replayed key stands for its target; a key neither known nor
        # replayed before fails the replay that reads it, also when a later
        # replay defines it
        d = 4
        a, b, c = ("lambda", (1, 1)), ("lambda", (2, 1)), ("lambda", (3, 1))
        sing = {key: singularity_at_zero(d, key) for key in (a, b, c)}
        known = {a: sing[a]}
        replays = [(b, [(1, a)], sing[a]), (c, [(1, b)], sing[a])]
        assert cycles._replay_failure(d, known, replays) is None
        assert cycles._replay_failure(d, known, replays[1:]) == "replay lambda(3;1)"
        assert cycles._replay_failure(d, known, replays[::-1]) == "replay lambda(3;1)"
        assert cycles._replay_failure(d, known, [(b, [(1, a)], sing[b])]) == "replay lambda(2;1)"

    def tampered_rank(self, monkeypatch, d, shift):
        """span_rank over residues shifted by shift(d, cycle), and the
        oracle's elimination rank of the shifted classes."""
        real = cycles.singularity_at_zero

        def shifted(d, c):
            return _combine(d, ((1, real(d, c)), (1, shift(d, c))))

        monkeypatch.setattr(cycles, "singularity_at_zero", shifted)
        res = span_rank(d, "both")
        classes = [shifted(d, c) for c in family_cycles(d, "both")]
        return res, rank(QMatrix([dense(d, cl) for cl in classes if cl]))

    def test_class_off_kernel_fails_membership(self, monkeypatch):
        # l_1 times the boundary of the tetrahedron 1234 on the gammas with
        # l = 2: every pair replay cancels it, only membership sees it
        signs = {(1, 2, 3, 2): 1, (1, 2, 4, 2): -1, (1, 3, 4, 2): 1, (2, 3, 4, 2): -1}

        def shift(d, c):
            kind, indices = c
            return reduce_raw(d, {("l", 1): signs.get(indices, 0) if kind == "gamma" else 0})

        (rk, expected, failed, _, _, _), oracle = self.tampered_rank(monkeypatch, 5, shift)
        assert failed == "membership"  # the kernel basis and every replay held
        assert rk is None
        assert oracle == expected + 1

    def test_total_class_missing_fails_total_replay(self, monkeypatch):
        # every lambda_il minus B_0 / d: pair replays and membership hold,
        # but the lambda column sums vanish and B_0 leaves the span
        def shift(d, c):
            return _combine(d, ((Fraction(-1, d), hodge_kernel_basis(d)[0]),)) if c[0] == "lambda" else ()

        (rk, expected, failed, _, _, _), oracle = self.tampered_rank(monkeypatch, 5, shift)
        assert failed == "replay total(1)"
        assert rk is None
        assert oracle == expected - 1

    def test_broken_witness_fails(self, monkeypatch):
        # a slipped sign fails the witness, and no other route states a rank
        real = cycles.pair_combination

        def slipped(d, i, j, l):
            c, key = real(d, i, j, l)[0]
            return [(-c, key)] + real(d, i, j, l)[1:]

        monkeypatch.setattr(cycles, "pair_combination", slipped)
        rk, _, failed, witness, _, _ = span_rank(4, "both")
        assert failed == "replay pair(1,2;1)"
        assert rk is None
        assert witness == "replay + membership + diagonal certificate"

    def test_broken_kernel_basis_names_its_clause(self, monkeypatch):
        real = degeneration._kernel_basis
        monkeypatch.setattr(degeneration, "_kernel_basis", lambda d: real(d)[:-1])
        # the replays read the basis, so they do not run
        monkeypatch.setattr(cycles, "_kernel_replays", lambda d, basis: pytest.fail("replays ran"))
        rk, _, failed, _, _, _ = span_rank(4, "both")
        assert failed == "kernel basis count" and rk is None

    def test_single_family_witness(self):
        for family, witness, rk in (
            ("gamma", "cocycle replay + diagonal certificate", 9),
            ("lambda", "row and column sums + diagonal certificate", 10),
        ):
            got, _, failed, got_witness, _, _ = span_rank(4, family)
            assert (got_witness, got, failed) == (witness, rk, None)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_delta_witness_names_a_nonzero_class(self, d, monkeypatch):
        real = cycles.singularity_at_zero

        def shifted(d, c):
            return _combine(d, ((1, real(d, c)), (int(c == ("delta", (2, 1, 2, 3))), reduce_raw(d, {("l", 1): 1}))))

        monkeypatch.setattr(cycles, "singularity_at_zero", shifted)
        rk, _, failed, _, _, _ = span_rank(d, "delta")
        assert failed == "nonzero class delta(2;1,2,3)" and rk is None

    @pytest.mark.parametrize("d", range(3, 8))
    def test_delta_rank_zero_without_elimination(self, d):
        rk, _, _, witness, witness_size, residues = span_rank(d, "delta")
        assert rk == 0 and rk != degeneration.kernel_dim(d)
        assert witness == "all classes zero"
        assert witness_size == len(residues) == d * math.comb(d, 3)

    def test_residues_are_keyed_by_plain_tuples(self):
        for d in range(3, 7):
            for family in ("both", "gamma", "lambda", "delta"):
                keys = [key for key, _ in span_rank(d, family)[-1]]
                assert keys == family_cycles(d, family), (d, family)
                assert all(type(key) is tuple and type(key[1]) is tuple for key in keys), (d, family)


def derived_span(d, family):
    """The cycles of a single family that no membership replay defines."""
    replayed = {key for key, _ in cycles.membership_replays(d, family)}
    return [key for key in family_cycles(d, family) if key not in replayed]


def drop_replays(monkeypatch, keep):
    """membership_replays cut down to the replays that keep(k, replays) keeps."""
    real = cycles.membership_replays

    def cut(d, family):
        replays = real(d, family)
        return [r for k, r in enumerate(replays) if keep(k, replays)]

    monkeypatch.setattr(cycles, "membership_replays", cut)


class TestSingleFamilyWitness:
    """The gamma and lambda witnesses: the replays alone (and T for
    lambda).  S is derived, the cycles no replay defines; the diagonal
    certificate derives the generator each class of S owns."""

    @pytest.mark.parametrize("family,d", [("gamma", d) for d in range(3, 9)] + [("lambda", d) for d in range(2, 9)])
    def test_spanning_set_owns_its_generators(self, family, d):
        # S is gamma(1,j,k; l) owning e^{jk}_l, or lambda(i; l) owning
        # e^{id}_l, for l < d; T = sum_i l_i has no e-coordinate
        span = derived_span(d, family)
        rk, expected, failed, _, _, residues = span_rank(d, family)
        assert rk == expected == len(span) + (family == "lambda") and failed is None
        if family == "gamma":
            pairs = combinations(range(2, d + 1), 2)
            owners = {("gamma", (1, j, k, l)): ("e", j, k, l) for j, k in pairs for l in range(1, d)}
        else:
            owners = {("lambda", (i, l)): ("e", i, d, l) for i in range(1, d) for l in range(1, d)}
        assert sorted(span) == sorted(owners)
        sing = dict(residues)
        for key, g in owners.items():
            assert [k for k in span if dict(sing[k]).get(g)] == [key]

    @pytest.mark.parametrize("d", range(3, 11))
    def test_replay_counts(self, d):
        gamma = len(cycles.membership_replays(d, "gamma"))
        assert gamma == math.comb(d - 1, 3) * (d - 1) + math.comb(d, 3) == span_rank(d, "gamma")[4]
        assert len(cycles.membership_replays(d, "lambda")) == 2 * d - 1 == span_rank(d, "lambda")[4]

    def test_flipped_cocycle_sign_fails_the_replay(self, monkeypatch):
        real = cycles.cocycle_combination

        def flipped(i, j, k, l):
            (c, key), *rest = real(i, j, k, l)
            return [(-c, key), *rest]

        monkeypatch.setattr(cycles, "cocycle_combination", flipped)
        rk, expected, failed, _, _, _ = span_rank(5, "gamma")
        assert failed == "replay gamma(2,3,4;1)"
        assert rk is None and rk != expected

    def test_dropped_total_fails_the_replay(self, monkeypatch):
        # without T the column sums leave the span of S
        real = cycles.membership_replays

        def without_total(d, family):
            return [(key, [t for t in combination if t[1] != cycles.TOTAL]) for key, combination in real(d, family)]

        monkeypatch.setattr(cycles, "membership_replays", without_total)
        rk, _, failed, _, _, _ = span_rank(4, "lambda")
        assert failed == "replay lambda(4;1)" and rk is None

    @pytest.mark.parametrize("family", ["gamma", "lambda"])
    def test_duplicated_element_fails_the_certificate(self, family, monkeypatch):
        # a class of S listed twice owns nothing; nor does the cycle of the
        # first replay, which joins S once its replay is dropped: every
        # generator it carries, another element carries too
        sing = dict(span_rank(5, family)[-1])
        classes = [sing[key] for key in derived_span(5, family)]
        total = hodge_kernel_basis(5)[0] if family == "lambda" else None
        assert degeneration.independence_failure(classes, total) is None
        assert degeneration.independence_failure([*classes, classes[0]], total) == "diagonal certificate"
        drop_replays(monkeypatch, lambda k, replays: k > 0)
        rk, _, failed, _, _, _ = span_rank(5, family)
        assert failed == "diagonal certificate" and rk is None

    def test_replaced_element_leaves_a_class_outside_the_span(self, monkeypatch):
        # a replay of gamma(1,3,4;3), appended last, takes it out of S; the
        # replay of gamma(2,3,4;3), which reads it, then fails
        real = cycles.membership_replays
        moved = (("gamma", (1, 3, 4, 3)), [(1, ("gamma", (1, 2, 3, 1)))])
        monkeypatch.setattr(cycles, "membership_replays", lambda d, family: [*real(d, family), moved])
        rk, _, failed, _, _, _ = span_rank(4, "gamma")
        assert failed == "replay gamma(2,3,4;3)" and rk is None

    def test_unreplayed_class_fails(self, monkeypatch):
        # lambda(4;4) joins S, where it owns no generator
        drop_replays(monkeypatch, lambda k, replays: k < len(replays) - 1)
        rk, _, failed, _, _, _ = span_rank(4, "lambda")
        assert failed == "diagonal certificate" and rk is None

    @pytest.mark.parametrize("family,d", [("gamma", 4), ("gamma", 5), ("lambda", 3), ("lambda", 5)])
    def test_every_dropped_replay_fails(self, family, d, monkeypatch):
        # whichever replay is dropped, its cycle joins S and the witness fails
        count = len(cycles.membership_replays(d, family))
        for dropped in range(count):
            with monkeypatch.context() as m:
                drop_replays(m, lambda k, replays: k != dropped)
                rk, _, failed, _, _, _ = span_rank(d, family)
            assert failed == "diagonal certificate" and rk is None, dropped

    def test_lambda_at_d2_builds_no_gamma(self, monkeypatch):
        families = []
        real = cycles.family_cycles

        def recorded(d, family):
            families.append(family)
            return real(d, family)

        monkeypatch.setattr(cycles, "family_cycles", recorded)
        rk, expected, failed, _, _, _ = span_rank(2, "lambda")
        assert families == ["lambda"]
        assert (rk, expected, rk == degeneration.kernel_dim(2), failed) == (2, 2, True, None)


class TestThreefoldBoundary:
    def test_three_term_shape(self):
        side, lines = threefold_boundary(1, 2, 3, 1)
        assert lines == (((1, 2, 1), Fraction(1)), ((2, 3, 1), Fraction(1)), ((1, 3, 1), Fraction(-1)))
        assert side == "L"

    def test_ordering(self):
        with pytest.raises(ValueError):
            threefold_boundary(2, 1, 3, 1)

    def test_mirrored_side(self):
        side, lines = threefold_boundary(1, 2, 4, 3, side="M")
        assert side == "M"
        assert [c for _, c in lines] == [1, 1, -1]
        with pytest.raises(ValueError, match="side must be 'L' or 'M', got 'X'"):
            threefold_boundary(1, 2, 4, 3, side="X")

    @pytest.mark.parametrize("indices", [(1.5, 2, 3, 1), (1, 2, 3, True), (1, 2.0, 3, 1)])
    def test_non_int_index_refused(self, indices):
        # once lines over (1.5, 2, 1): the same rule as build_cycle
        for side in ("L", "M"):
            with pytest.raises(TypeError, match="indices must be ints"):
                threefold_boundary(*indices, side=side)

    @pytest.mark.parametrize("indices", [(0, 1, 2, -5), (0, 1, 2, 1), (1, 2, 3, 0), (-2, -1, 0, 1)])
    def test_index_below_one_refused(self, indices):
        # the same rule as build_cycle: planes and forms count from 1
        for side in ("L", "M"):
            with pytest.raises(ValueError, match="indices must be >= 1"):
                threefold_boundary(*indices, side=side)
