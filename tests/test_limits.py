"""Frame algebra, conjugation rules, pairing limits, independence matrix."""

import cmath
import math

import numpy as np
import pytest

from hodge_degen import limits
from hodge_degen.limits import (
    EtaModel,
    ExtrapolationError,
    Frame,
    NormalFunctionModel,
    PolyTail,
    conjugate_at,
    default_t_sequence,
    imag_log_coeff,
    imaginary_part,
    independence_matrix,
    limit_of_pairing,
    monodromy,
    pair,
)

L_VALUE = 4.0597664256386145
T_UNIT = cmath.exp(-2 * math.pi)  # |t| with Im(l) = 1


def close(u, v):
    """np.allclose on frame vectors: |u_k - v_k| <= 1e-8 + 1e-5 |v_k|."""
    return len(u) == len(v) and all(abs(a - b) <= 1e-8 + 1e-5 * abs(b) for a, b in zip(u, v))


def zero(frame):
    return (0j,) * frame.dim


def combo(*terms):
    """sum of c * v over (c, v) pairs, coordinate by coordinate."""
    return tuple(sum(c * v[k] for c, v in terms) for k in range(len(terms[0][1])))


def random_vector(rng, n):
    return tuple(map(complex, rng.standard_normal(n), rng.standard_normal(n)))


@pytest.fixture(scope="module")
def frame():
    return Frame()


@pytest.fixture(scope="module")
def small_frame():
    return Frame(dk=3)


class TestFrameAlgebra:
    def test_gram_entries(self, frame):
        e0, e1, e2 = frame.basis("e0"), frame.basis("e1"), frame.basis("e2")
        assert pair(e0, e2, frame) == -1
        assert pair(e2, e0, frame) == -1
        assert pair(e1, e1, frame) == 1
        assert pair(e0, e0, frame) == 0
        assert pair(e0, frame.basis("d", 1), frame) == 0
        assert pair(frame.basis("d", 2), frame.basis("d", 2), frame) == 1

    def test_matches_gram_matrix(self, frame):
        # the closed form against u @ G @ v with the Gram matrix written out
        gram = np.eye(frame.dim)
        gram[0, 0] = gram[2, 2] = 0.0
        gram[0, 2] = gram[2, 0] = -1.0
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = random_vector(rng, frame.dim), random_vector(rng, frame.dim)
            want = complex(np.array(u) @ gram @ np.array(v))
            assert abs(pair(u, v, frame) - want) < 1e-12 * max(1.0, abs(want))

    def test_monodromy_chain(self, frame):
        e2 = frame.basis("e2")
        e1 = monodromy(e2)
        e0 = monodromy(e1)
        assert close(e1, frame.basis("e1"))
        assert close(e0, frame.basis("e0"))
        assert close(monodromy(e0), zero(frame))
        assert close(monodromy(frame.basis("d", 7)), zero(frame))

    def test_nilpotent_cube(self, frame):
        rng = np.random.default_rng(0)
        v = random_vector(rng, frame.dim)
        assert close(monodromy(monodromy(monodromy(v))), zero(frame))

    def test_infinitesimal_isometry(self, frame):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = random_vector(rng, frame.dim)
            v = random_vector(rng, frame.dim)
            lhs = pair(monodromy(u), v, frame) + pair(u, monodromy(v), frame)
            assert abs(lhs) < 1e-12


class TestConjugation:
    def test_e0_and_d_fixed(self, frame):
        t = 0.01 * cmath.exp(0.3j)
        assert close(conjugate_at(frame.basis("e0"), t, frame), frame.basis("e0"))
        assert close(conjugate_at(frame.basis("d", 1), t, frame), frame.basis("d", 1))

    def test_e1_rule_at_unit_iml(self, frame):
        got = conjugate_at(frame.basis("e1"), T_UNIT, frame)
        want = combo((1, frame.basis("e1")), (2j, frame.basis("e0")))
        assert close(got, want)

    def test_e2_rule(self, frame):
        t = 0.003 * cmath.exp(1.1j)
        iml = imag_log_coeff(t)
        got = conjugate_at(frame.basis("e2"), t, frame)
        want = combo(
            (1, frame.basis("e2")), (2j * iml, frame.basis("e1")), (-2 * iml * iml, frame.basis("e0"))
        )
        assert close(got, want)

    def test_involution(self, frame):
        rng = np.random.default_rng(2)
        t = 1e-4 * cmath.exp(0.3j)
        for _ in range(10):
            v = random_vector(rng, frame.dim)
            assert close(conjugate_at(conjugate_at(v, t, frame), t, frame), v)

    def test_t_zero_rejected(self, frame):
        with pytest.raises(ValueError):
            conjugate_at(frame.basis("e1"), 0.0, frame)


class TestEta:
    def test_zero_tails_unit_modulus(self, frame):
        eta = EtaModel.build(frame, None)
        v = eta.at(cmath.exp(0.4j), frame)  # |t| = 1 so Im(l) = 0
        assert close(v, frame.basis("e2"))

    def test_zero_tails_unit_iml(self, frame):
        eta = EtaModel.build(frame, None)
        v = eta.at(T_UNIT, frame)
        assert close(v, combo((1, frame.basis("e2")), (1j, frame.basis("e1"))))

    def test_reality_zero_tails(self, frame):
        eta = EtaModel.build(frame, None)
        for t in default_t_sequence():
            assert eta.reality_residual(t, frame) < 1e-12


class TestModels:
    def test_limit_type_leading_term(self, frame):
        model = NormalFunctionModel.limit_type(L_VALUE, frame, None)
        v = model.at(1e-6 * cmath.exp(0.3j), frame)
        assert v[0] == pytest.approx(1j * L_VALUE)
        assert close(v[1:], zero(frame)[1:])

    def test_singular_type_log_term(self, frame):
        model = NormalFunctionModel.singular_type(4, frame, None)
        t = 1e-5 * cmath.exp(0.3j)
        v = model.at(t, frame)
        assert v[3 + 3] == pytest.approx(1j * cmath.log(t))

    def test_zero_tail_pairing_is_exact(self, frame):
        # Q(Im R(t), eta) = -L for every t, no extrapolation needed
        model = NormalFunctionModel.limit_type(L_VALUE, frame, None)
        eta = EtaModel.build(frame, None)
        for t in default_t_sequence():
            got = pair(imaginary_part(model.at(t, frame), t, frame), eta.at(t, frame), frame)
            assert abs(got - (-L_VALUE)) < 1e-12

    def test_singular_index_range(self, frame):
        with pytest.raises(ValueError):
            NormalFunctionModel.singular_type(0, frame, None)


class TestPairingLimits:
    def test_limit_vs_eta(self, frame):
        rng = np.random.default_rng(11)
        model = NormalFunctionModel.limit_type(L_VALUE, frame, rng)
        eta = EtaModel.build(frame, rng)
        res = limit_of_pairing(model, eta, frame)
        assert abs(res.value - (-L_VALUE)) < 1e-4

    def test_limit_vs_d(self, frame):
        rng = np.random.default_rng(12)
        model = NormalFunctionModel.limit_type(L_VALUE, frame, rng)
        for j in (1, 7, 19):
            res = limit_of_pairing(model, j, frame)
            assert abs(res.value) < 1e-4

    def test_singular_vs_d_delta(self, frame):
        rng = np.random.default_rng(13)
        model = NormalFunctionModel.singular_type(3, frame, rng)
        assert abs(limit_of_pairing(model, 3, frame).value - 1.0) < 1e-4
        assert abs(limit_of_pairing(model, 8, frame).value) < 1e-4

    def test_singular_vs_eta_finite(self, frame):
        rng = np.random.default_rng(14)
        model = NormalFunctionModel.singular_type(2, frame, rng)
        eta = EtaModel.build(frame, rng)
        res = limit_of_pairing(model, eta, frame)
        assert abs(res.value) < 10.0
        assert res.residuals[-1] < 1e-3

    def test_seed_invariance(self, frame):
        vals = []
        for seed in (0, 99):
            rng = np.random.default_rng(seed)
            model = NormalFunctionModel.singular_type(5, frame, rng)
            vals.append(limit_of_pairing(model, 5, frame).value)
        assert abs(vals[0] - vals[1]) < 1e-6

    def test_bad_t_sequence(self, frame):
        model = NormalFunctionModel.limit_type(L_VALUE, frame, None)
        eta = EtaModel.build(frame, None)
        with pytest.raises(ValueError):
            limit_of_pairing(model, eta, frame, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            limit_of_pairing(model, eta, frame, [0.1, 0.01])

    def test_divergent_series_detected(self, small_frame):
        # a model violating holomorphy of the tails defeats the
        # extrapolation; the residual trend diagnostic must fire
        class Oscillating(NormalFunctionModel):
            def at(self, t, frame):
                v = [0j] * frame.dim
                v[3] = 1j * cmath.log(t) * math.sin(1.0 / abs(t)) * 5.0
                return tuple(v)

        model = Oscillating("Ri", i=1, b=(PolyTail(),) * small_frame.dk)
        with pytest.raises(ExtrapolationError):
            limit_of_pairing(model, 1, small_frame)


class TestIndependenceMatrix:
    def test_zero_tails_structural(self, frame):
        res = independence_matrix(frame, L_VALUE, seed=None)
        assert abs(res.det + L_VALUE) < 1e-10
        assert res.verdict == "independent"
        n = 1 + frame.dk
        assert max(abs(res.matrix[i][j] - (i == j)) for i in range(1, n) for j in range(1, n)) < 1e-10
        assert max(abs(x) for x in res.matrix[0][1:]) < 1e-10

    def test_seeded(self, frame):
        res = independence_matrix(frame, L_VALUE, seed=7)
        assert abs(res.det + L_VALUE) < 1e-3
        assert abs(res.det) > 0.1 * L_VALUE
        assert res.verdict == "independent"
        n = 1 + frame.dk
        assert max(abs(res.matrix[i][j] - (i == j)) for i in range(1, n) for j in range(1, n)) < 1e-4

    def test_small_frame(self, small_frame):
        res = independence_matrix(small_frame, 2.5, seed=3)
        assert len(res.matrix) == 4 and all(len(row) == 4 for row in res.matrix)
        assert abs(res.det + 2.5) < 1e-3

    def test_zero_L_rejected(self, frame):
        with pytest.raises(ValueError):
            independence_matrix(frame, 0.0)

    @pytest.mark.parametrize("seed", [None, 0, 1, 7])
    def test_matches_entrywise_limits(self, frame, seed):
        # sharing the pairing vectors of a model across its row gives the
        # matrix of separate limit_of_pairing calls bit for bit
        rng = None if seed is None else np.random.default_rng(seed)
        eta = EtaModel.build(frame, rng)
        r_model = NormalFunctionModel.limit_type(L_VALUE, frame, rng)
        singular = [NormalFunctionModel.singular_type(i, frame, rng) for i in range(1, frame.dk + 1)]
        targets = [eta, *range(1, frame.dk + 1)]
        want = tuple(
            tuple(limit_of_pairing(model, tg, frame).value for tg in targets) for model in (r_model, *singular)
        )
        res = independence_matrix(frame, L_VALUE, seed=seed)
        assert repr(res.matrix) == repr(want)
        assert res.det == limits._det(want)

    def test_unsettled_seed_raises(self, frame):
        with pytest.raises(ExtrapolationError):
            independence_matrix(frame, L_VALUE, seed=10)

    def test_one_pairing_vector_per_model_and_t(self, frame, monkeypatch):
        calls = []
        real = NormalFunctionModel.pairing_vector

        def counted(self, t, frame):
            calls.append((self.kind, self.i, t))
            return real(self, t, frame)

        monkeypatch.setattr(NormalFunctionModel, "pairing_vector", counted)
        independence_matrix(frame, L_VALUE, seed=0)
        assert len(calls) == len(set(calls)) == (1 + frame.dk) * len(default_t_sequence())

    def test_json_dict_schema(self, small_frame):
        ts = default_t_sequence()
        res = independence_matrix(small_frame, 1.5, seed=0, t_sequence=ts)
        doc = res.to_json_dict(ts)
        assert set(doc) == {"matrix", "det", "L", "verdict", "t_sequence"}
        assert len(doc["matrix"]) == 4 and len(doc["matrix"][0]) == 4
        assert all(isinstance(x, float) for x in doc["det"])


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
            assert tail.coeffs == tuple(complex(c) for c in want)
