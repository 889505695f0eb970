"""Frame algebra, conjugation rules, pairing limits, independence matrix."""

import cmath
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from hodge_degen import limits
from hodge_degen.degeneration import kernel_dim
from hodge_degen.limits import (
    DEFAULT_DK,
    T_SEQUENCE,
    ExtrapolationError,
    conjugate_at,
    eta,
    imag_log_coeff,
    imaginary_part,
    independence_matrix,
    limit_of_pairing,
    limit_type,
    pair,
    singular_type,
)
from oracle import monodromy, reference_independence_matrix, reference_limit_of_pairing

L_VALUE = 4.0597664256386145
T_UNIT = cmath.exp(-2 * math.pi)  # |t| with Im(l) = 1


def close(u, v):
    """np.allclose on frame vectors: |u_k - v_k| <= 1e-8 + 1e-5 |v_k|."""
    return len(u) == len(v) and all(abs(a - b) <= 1e-8 + 1e-5 * abs(b) for a, b in zip(u, v))


def zero(dk):
    return (0j,) * (3 + dk)


def basis(dk, name, j=0):
    """Unit frame vector: name in e0|e1|e2, or 'd' with 1-based j."""
    k = 2 + j if name == "d" else {"e0": 0, "e1": 1, "e2": 2}[name]
    return tuple(1 + 0j if i == k else 0j for i in range(3 + dk))


def combo(*terms):
    """sum of c * v over (c, v) pairs, coordinate by coordinate."""
    return tuple(sum(c * v[k] for c, v in terms) for k in range(len(terms[0][1])))


def random_vector(rng, n):
    return tuple(map(complex, rng.standard_normal(n), rng.standard_normal(n)))


# the d-class count of a small frame
SMALL_DK = 3


class TestFrameAlgebra:
    def test_default_frame_has_one_d_class_per_kernel_basis_class(self):
        # the d = 4 kernel dimension of the presentation, 19
        assert DEFAULT_DK == kernel_dim(4) == 19

    def test_gram_entries(self):
        e0, e1, e2 = (basis(DEFAULT_DK, name) for name in ("e0", "e1", "e2"))
        assert pair(e0, e2) == -1
        assert pair(e2, e0) == -1
        assert pair(e1, e1) == 1
        assert pair(e0, e0) == 0
        assert pair(e0, basis(DEFAULT_DK, "d", 1)) == 0
        assert pair(basis(DEFAULT_DK, "d", 2), basis(DEFAULT_DK, "d", 2)) == 1

    def test_matches_gram_matrix(self):
        # the closed form against u @ G @ v with the Gram matrix written out
        n = 3 + DEFAULT_DK
        gram = np.eye(n)
        gram[0, 0] = gram[2, 2] = 0.0
        gram[0, 2] = gram[2, 0] = -1.0
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = random_vector(rng, n), random_vector(rng, n)
            want = complex(np.array(u) @ gram @ np.array(v))
            assert abs(pair(u, v) - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("u, v", [((0j,) * 4, (0j,) * 5), ((0j,) * 2, (0j,) * 2), ((), ())])
    def test_pair_refuses_bad_lengths(self, u, v):
        # unequal lengths, or too short to hold e0, e1, e2
        with pytest.raises(ValueError):
            pair(u, v)

    def test_monodromy_chain(self):
        e2 = basis(DEFAULT_DK, "e2")
        e1 = monodromy(e2)
        e0 = monodromy(e1)
        assert close(e1, basis(DEFAULT_DK, "e1"))
        assert close(e0, basis(DEFAULT_DK, "e0"))
        assert close(monodromy(e0), zero(DEFAULT_DK))
        assert close(monodromy(basis(DEFAULT_DK, "d", 7)), zero(DEFAULT_DK))

    def test_nilpotent_cube(self):
        rng = np.random.default_rng(0)
        v = random_vector(rng, 3 + DEFAULT_DK)
        assert close(monodromy(monodromy(monodromy(v))), zero(DEFAULT_DK))

    def test_infinitesimal_isometry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = random_vector(rng, 3 + DEFAULT_DK)
            v = random_vector(rng, 3 + DEFAULT_DK)
            lhs = pair(monodromy(u), v) + pair(u, monodromy(v))
            assert abs(lhs) < 1e-12


class TestConjugation:
    def test_e0_and_d_fixed(self):
        t = 0.01 * cmath.exp(0.3j)
        assert close(conjugate_at(basis(DEFAULT_DK, "e0"), t), basis(DEFAULT_DK, "e0"))
        assert close(conjugate_at(basis(DEFAULT_DK, "d", 1), t), basis(DEFAULT_DK, "d", 1))

    def test_e1_rule_at_unit_iml(self):
        got = conjugate_at(basis(DEFAULT_DK, "e1"), T_UNIT)
        want = combo((1, basis(DEFAULT_DK, "e1")), (2j, basis(DEFAULT_DK, "e0")))
        assert close(got, want)

    def test_e2_rule(self):
        t = 0.003 * cmath.exp(1.1j)
        iml = imag_log_coeff(t)
        e0, e1, e2 = (basis(DEFAULT_DK, name) for name in ("e0", "e1", "e2"))
        got = conjugate_at(e2, t)
        want = combo((1, e2), (2j * iml, e1), (-2 * iml * iml, e0))
        assert close(got, want)

    def test_nilpotent_orbit(self):
        # conj at t is exp(2i m N) on conj(v), m = Im(l) = imag_log_coeff(t),
        # and N^3 = 0 cuts the series to 1 + 2i m N + (2i m)^2 / 2 N^2
        # (Schmid's nilpotent orbit); exact, in the same operation order
        rng = np.random.default_rng(23)
        for t in (*T_SEQUENCE, 0.7 - 0.2j):
            m = imag_log_coeff(t)
            for _ in range(5):
                w = tuple(x.conjugate() for x in random_vector(rng, 3 + DEFAULT_DK))
                nw = monodromy(w)
                n2w = monodromy(nw)
                want = tuple(a + 2j * m * b + (2j * m) ** 2 / 2 * c for a, b, c in zip(w, nw, n2w))
                got = conjugate_at(tuple(x.conjugate() for x in w), t)
                assert max(abs(x - y) for x, y in zip(got, want)) == 0

    def test_involution(self):
        rng = np.random.default_rng(2)
        t = 1e-4 * cmath.exp(0.3j)
        for _ in range(10):
            v = random_vector(rng, 3 + DEFAULT_DK)
            assert close(conjugate_at(conjugate_at(v, t), t), v)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            conjugate_at(basis(DEFAULT_DK, "e1"), 0.0)

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            conjugate_at((1j, 2j), T_UNIT)


class TestEta:
    def test_zero_tails_unit_modulus(self):
        v = eta(DEFAULT_DK)(cmath.exp(0.4j))  # |t| = 1 so Im(l) = 0
        assert close(v, basis(DEFAULT_DK, "e2"))

    def test_zero_tails_unit_iml(self):
        v = eta(DEFAULT_DK)(T_UNIT)
        assert close(v, combo((1, basis(DEFAULT_DK, "e2")), (1j, basis(DEFAULT_DK, "e1"))))

    def test_reality_zero_tails(self):
        at = eta(DEFAULT_DK)
        for t in T_SEQUENCE:
            v = at(t)
            assert math.hypot(*(abs(x - y) for x, y in zip(conjugate_at(v, t), v))) < 1e-12


class TestModels:
    def test_limit_type_leading_term(self):
        kind, at = limit_type(L_VALUE, DEFAULT_DK)
        v = at(1e-6 * cmath.exp(0.3j))
        assert kind == "R"
        assert v[0] == pytest.approx(1j * L_VALUE)
        assert close(v[1:], zero(DEFAULT_DK)[1:])

    def test_singular_type_log_term(self):
        kind, at = singular_type(4, DEFAULT_DK)
        t = 1e-5 * cmath.exp(0.3j)
        v = at(t)
        assert kind == "Ri"
        assert v[3 + 3] == pytest.approx(1j * cmath.log(t))

    def test_zero_tail_pairing_is_exact(self):
        # Q(Im R(t), eta) = -L for every t, no extrapolation needed
        _, at = limit_type(L_VALUE, DEFAULT_DK)
        eta_at = eta(DEFAULT_DK)
        for t in T_SEQUENCE:
            got = pair(imaginary_part(at(t), t), eta_at(t))
            assert abs(got - (-L_VALUE)) < 1e-12

    def test_singular_index_range(self):
        # True and 1.0 equal 1 and once built R_1
        for i in (0, DEFAULT_DK + 1, True, 1.0):
            with pytest.raises(ValueError, match="singularity index out of range"):
                singular_type(i, DEFAULT_DK)

    def test_imaginary_part_bits_match_conjugation(self):
        # the one-pass imaginary part does the arithmetic of conjugate_at
        rng = np.random.default_rng(21)
        for t in (*T_SEQUENCE, T_UNIT, 0.7 - 0.2j):
            v = random_vector(rng, 3 + DEFAULT_DK)
            want = tuple(-0.5j * (x - y) for x, y in zip(v, conjugate_at(v, t)))
            assert repr(imaginary_part(v, t)) == repr(want)
        with pytest.raises(ValueError):
            imaginary_part((0j,) * 2, T_UNIT)

    def test_imaginary_part_matches_conjugation_matrix(self):
        # Im v = (v - C conj(v)) / 2i with the conjugation matrix C written
        # out: conj(e1) = e1 + 2i m e0, conj(e2) = e2 + 2i m e1 - 2 m^2 e0,
        # m = -log|t| / 2 pi, every other basis vector real
        rng = np.random.default_rng(22)
        n = 3 + DEFAULT_DK
        for t in (*T_SEQUENCE, T_UNIT, 0.7 - 0.2j):
            m = -math.log(abs(t)) / (2 * math.pi)
            conj = np.eye(n, dtype=complex)
            conj[0, 1] = conj[1, 2] = 2j * m
            conj[0, 2] = -2 * m * m
            v = np.array(random_vector(rng, n))
            want = (v - conj @ v.conj()) / 2j
            got = np.array(imaginary_part(tuple(v), t))
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_tails_of_other_length_refused(self):
        # eta and a model of different frames cannot be paired
        with pytest.raises(ValueError):
            limit_of_pairing(limit_type(L_VALUE, SMALL_DK), eta(DEFAULT_DK))


class TestPairingLimits:
    def test_limit_vs_eta(self):
        rng = np.random.default_rng(11)
        model = limit_type(L_VALUE, DEFAULT_DK, rng)
        eta_at = eta(DEFAULT_DK, rng)
        value, _ = limit_of_pairing(model, eta_at)
        assert abs(value - (-L_VALUE)) < 1e-4

    def test_limit_vs_d(self):
        rng = np.random.default_rng(12)
        model = limit_type(L_VALUE, DEFAULT_DK, rng)
        for j in (1, 7, 19):
            value, _ = limit_of_pairing(model, j)
            assert abs(value) < 1e-4

    def test_singular_vs_d_delta(self):
        rng = np.random.default_rng(13)
        model = singular_type(3, DEFAULT_DK, rng)
        assert abs(limit_of_pairing(model, 3)[0] - 1.0) < 1e-4
        assert abs(limit_of_pairing(model, 8)[0]) < 1e-4

    def test_singular_vs_eta_finite(self):
        rng = np.random.default_rng(14)
        model = singular_type(2, DEFAULT_DK, rng)
        eta_at = eta(DEFAULT_DK, rng)
        value, residuals = limit_of_pairing(model, eta_at)
        assert abs(value) < 10.0
        assert residuals[-1] < 1e-3

    @pytest.mark.parametrize("target", [0, SMALL_DK + 1, 1.5, "1", None, True])
    def test_target_neither_eta_nor_d_index_refused(self, target):
        # 1.5 once gave the d_1 limit, since int(1.5) is 1, and so did True
        model = singular_type(1, SMALL_DK, np.random.default_rng(15))
        with pytest.raises(ValueError):
            limit_of_pairing(model, target)

    def test_seed_invariance(self):
        vals = []
        for seed in (0, 99):
            rng = np.random.default_rng(seed)
            model = singular_type(5, DEFAULT_DK, rng)
            vals.append(limit_of_pairing(model, 5)[0])
        assert abs(vals[0] - vals[1]) < 1e-6

    def test_fixed_t_sequence(self):
        # six samples at argument 0.3, |t| = 1e-2 .. 1e-12 strictly decreasing
        mags = [abs(t) for t in T_SEQUENCE]
        assert len(T_SEQUENCE) == 6
        assert all(m1 > m2 > 0 for m1, m2 in zip(mags, mags[1:]))
        assert mags[0] == pytest.approx(1e-2) and mags[-1] == pytest.approx(1e-12)
        assert all(cmath.phase(t) == pytest.approx(0.3) for t in T_SEQUENCE)

    def test_divergent_series_detected(self):
        # a model violating holomorphy of the tails defeats the
        # extrapolation; the residual trend diagnostic must fire
        def oscillating(t):
            v = [0j] * (3 + SMALL_DK)
            v[3] = 1j * cmath.log(t) * math.sin(1.0 / abs(t)) * 5.0
            return tuple(v)

        with pytest.raises(ExtrapolationError):
            limit_of_pairing(("Ri", oscillating), 1)

    def test_tiny_first_residual_converges(self):
        # pairing 1 + slope/log|t| + |t|: the |t| term is not polynomial in
        # 1/log|t|, and slope is chosen so the first two samples agree exactly,
        # giving a first residual of 0 before the tail settles
        t0, t1 = T_SEQUENCE[:2]
        x0, x1 = 1.0 / math.log(abs(t0)), 1.0 / math.log(abs(t1))
        slope = (abs(t1) - abs(t0)) / (x0 - x1)

        def first_samples_agree(t):
            v = [0j] * (3 + SMALL_DK)
            v[3] = 1j * cmath.log(t) * (1 + slope / math.log(abs(t)) + abs(t))
            return tuple(v)

        value, residuals = limit_of_pairing(("Ri", first_samples_agree), 1)
        assert residuals[0] < 1e-15 < 1e-6 < residuals[-1] < 1e-3
        assert abs(value - 1.0) < 1e-4


def scalar_neville(xs, ys):
    """Oracle: one Neville tableau to x = 0; its diagonal."""
    tab = [list(ys)]
    for k in range(1, len(xs)):
        prev = tab[-1]
        tab.append(
            [(xs[i + k] * prev[i] - xs[i] * prev[i + 1]) / (xs[i + k] - xs[i]) for i in range(len(xs) - k)]
        )
    return [row[0] for row in tab]


class TestNevilleColumns:
    @pytest.mark.parametrize("kind", ["R", "Ri"])
    def test_columns_match_scalar_tableaux(self, kind):
        # each column of the joint tableau is its own scalar tableau, bit for bit
        rng = np.random.default_rng(31)
        xs = limits._XS[kind]
        samples = [random_vector(rng, 7) for _ in xs]
        diag = limits._neville_diagonal(xs, samples)
        for c in range(7):
            want = scalar_neville(xs, [row[c] for row in samples])
            assert repr([row[c] for row in diag]) == repr(want)

    def test_one_failing_column_raises(self):
        # a column whose last step moves by more than 1e-3 fails the row
        xs = limits._XS["R"]
        samples = [(1 + 0j, x * 1e12 + 0j) for x in xs[:-1]] + [(1 + 0j, 0j)]
        with pytest.raises(ExtrapolationError):
            limits._extrapolate("R", samples)
        good = limits._extrapolate("R", [(1 + 0j, 2 + 0j)] * len(xs))
        assert [value for value, _ in good] == [1 + 0j, 2 + 0j]
        assert good[0][1] == (0.0,) * (len(xs) - 1)


def off_diagonal_error(matrix):
    """The largest entry of the singular rows' d-block minus the identity."""
    n = len(matrix)
    return max(abs(matrix[i][j] - (i == j)) for i in range(1, n) for j in range(1, n))


class TestIndependenceMatrix:
    def test_zero_tails_structural(self):
        matrix, det, max_residual = independence_matrix(L_VALUE, seed=None)
        assert abs(det + L_VALUE) < 1e-10
        assert abs(det) > 0.1 * L_VALUE
        assert len(matrix) == 1 + DEFAULT_DK
        assert off_diagonal_error(matrix) < 1e-10
        assert max(abs(x) for x in matrix[0][1:]) < 1e-10
        assert max_residual == 0.0

    def test_seeded(self):
        matrix, det, _ = independence_matrix(L_VALUE, seed=7)
        assert abs(det + L_VALUE) < 1e-3
        assert abs(det) > 0.1 * L_VALUE
        assert off_diagonal_error(matrix) < 1e-4

    def test_small_frame(self):
        matrix, det, max_residual = independence_matrix(2.5, seed=3, dk=SMALL_DK)
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        assert all(isinstance(x, complex) for row in matrix for x in row)
        assert abs(det + 2.5) < 1e-3
        assert 0 < max_residual < 1e-3

    def test_zero_L_rejected(self):
        with pytest.raises(ValueError):
            independence_matrix(0.0)

    @pytest.mark.parametrize("seed", [None, 0, 1, 7])
    def test_matches_entrywise_limits(self, seed):
        # sharing the pairing vectors of a model across its row gives the
        # matrix of separate limit_of_pairing calls bit for bit
        rng = None if seed is None else random.Random(seed)
        eta_at = eta(DEFAULT_DK, rng)
        r_model = limit_type(L_VALUE, DEFAULT_DK, rng)
        singular = [singular_type(i, DEFAULT_DK, rng) for i in range(1, DEFAULT_DK + 1)]
        targets = [eta_at, *range(1, DEFAULT_DK + 1)]
        lims = [[limit_of_pairing(model, tg) for tg in targets] for model in (r_model, *singular)]
        want = tuple(tuple(value for value, _ in row) for row in lims)
        matrix, det, max_residual = independence_matrix(L_VALUE, seed=seed)
        assert repr(matrix) == repr(want)
        assert det == limits._det(want)
        assert max_residual == max(residuals[-1] for row in lims for _, residuals in row)

    @pytest.mark.parametrize(
        "seed, det, max_residual",
        [
            (None, "(-4.059766425638615-0j)", "0.0"),
            (0, "(-4.059766425565685-1.7127960527483743e-27j)", "0.0002317513197465099"),
            (299, "(-4.0597664256066945+6.583747826811873e-29j)", "0.00030068406476866445"),
        ],
    )
    def test_bits_pinned(self, seed, det, max_residual):
        # det and worst residual to the last bit, as recorded from the
        # scalar Neville tableaux (CPython 3.11, x86-64 Linux)
        _, got_det, got_residual = independence_matrix(L_VALUE, seed=seed)
        assert (repr(got_det), repr(got_residual)) == (det, max_residual)

    @pytest.mark.parametrize(
        "generator, seed",
        [("numpy", s) for s in (10, 25, 38, 48, 91, 113, 168, 177, 195, 198, 232)]
        + [("random", s) for s in (71, 141, 142, 143, 161, 193, 197, 222, 228, 244, 253)],
    )
    def test_misfired_seeds_settle(self, monkeypatch, generator, seed):
        # tails on which the old residual-trend test raised ExtrapolationError
        if generator == "numpy":
            monkeypatch.setattr(limits, "random", SimpleNamespace(Random=np.random.default_rng))
        _, det, max_residual = independence_matrix(L_VALUE, seed=seed)
        assert abs(det) > 0.1 * L_VALUE
        assert abs(det + L_VALUE) < 1e-6 * L_VALUE
        assert 0 < max_residual < 1e-3

    def test_one_pairing_vector_per_model_and_t(self, monkeypatch):
        # each model is evaluated once per t, its row shared by every column
        calls = []

        def counted(build):
            def built(*args):
                kind, at = build(*args)

                def counted_at(t):
                    calls.append((at, t))
                    return at(t)

                return kind, counted_at

            return built

        for name in ("limit_type", "singular_type"):
            monkeypatch.setattr(limits, name, counted(getattr(limits, name)))
        independence_matrix(L_VALUE, seed=0)
        assert len(calls) == len(set(calls)) == (1 + DEFAULT_DK) * len(T_SEQUENCE)

    @pytest.mark.parametrize("dk", [DEFAULT_DK, SMALL_DK])
    @pytest.mark.parametrize("seed", [None, *range(10)])
    def test_matches_complex_reference(self, seed, dk):
        # the real d-columns give the matrix of the complex full-vector path:
        # equal entries (a zero imaginary part may differ in sign), and the
        # determinant and worst residual to the last bit
        matrix, det, max_residual = independence_matrix(L_VALUE, seed=seed, dk=dk)
        want, want_det, want_residual = reference_independence_matrix(L_VALUE, seed=seed, dk=dk)
        assert len(matrix) == len(want) and all(len(row) == len(w) for row, w in zip(matrix, want))
        assert all(x == y for row, w in zip(matrix, want) for x, y in zip(row, w))
        assert repr(det) == repr(want_det)
        assert repr(max_residual) == repr(want_residual)
        rng = None if seed is None else random.Random(seed)
        eta_at = eta(dk, rng)
        models = [limit_type(L_VALUE, dk, rng), singular_type(1, dk, rng), singular_type(dk, dk, rng)]
        for model in models:
            for target in (eta_at, *range(1, dk + 1)):
                got, residuals = limit_of_pairing(model, target)
                value, want_residuals = reference_limit_of_pairing(model, target)
                assert got == value and residuals == want_residuals


class TestDeterminant:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(100 + n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = complex(np.linalg.det(m))
        got = limits._det([[complex(x) for x in row] for row in m])
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_singular(self):
        rows = [[1 + 2j, 3.0, -1j], [0.5, 1j, 2.0], [1 + 2j, 3.0, -1j]]
        assert limits._det(rows) == 0
        assert limits._det([[0j, 1.0], [0j, 2.0]]) == 0


class TestSeededTails:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 299])
    def test_same_draws_as_vectorised(self, seed):
        # each tail draws its 4 real parts, then its 4 imaginary parts
        tails = limits._seeded_tails(np.random.default_rng(seed), 5)
        rng = np.random.default_rng(seed)
        for tail in tails:
            want = rng.uniform(-0.7, 0.7, 4) + 1j * rng.uniform(-0.7, 0.7, 4)
            assert tail == tuple(complex(c) for c in want)
