import numpy as np
import pytest

from rkmpc.weights import WeightConfig, forward_weights, partition_clusters, signed_log_weights


def cem(quantile=0.01, beta=1.0):
    return WeightConfig(backend="cem", quantile=quantile, beta=beta)


def mppi(temperature=1.0, beta=1.0):
    return WeightConfig(backend="mppi", temperature=temperature, beta=beta)


class TestWeightConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "nope"},
            {"quantile": 0.0},
            {"quantile": 1.0},
            {"temperature": 0.0},
            {"beta": -0.1},
            {"beta": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WeightConfig(**kwargs)


class TestForwardWeights:
    def test_mppi_symmetry(self):
        w = forward_weights(np.full(7, 3.2), mppi())
        assert np.allclose(w, 1.0)

    def test_cem_unique_minimum(self):
        rng = np.random.default_rng(0)
        J = rng.uniform(1.0, 2.0, 100)
        J[37] = 0.0
        w = forward_weights(J, cem(quantile=0.01))
        # sort-based oracle: exactly the single elite carries all the mass
        order = np.argsort(J, kind="stable")
        assert order[0] == 37
        assert w[37] == pytest.approx(100.0)
        assert np.count_nonzero(w) == 1

    def test_mppi_hand_case(self):
        T = 2.0
        w = forward_weights(np.array([0.0, T * np.log(3.0)]), mppi(temperature=T))
        assert np.allclose(w, [1.5, 0.5])

    @pytest.mark.parametrize("config", [cem(quantile=0.1), mppi()])
    def test_sum_is_n(self, config):
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 256):
            J = rng.normal(0, 10, n)
            w = forward_weights(J, config)
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(n, abs=1e-9 * n)

    @pytest.mark.parametrize("config", [cem(quantile=0.1), mppi()])
    def test_constant_shift_invariance(self, config):
        rng = np.random.default_rng(5)
        J = rng.normal(0, 5, 64)
        assert np.allclose(forward_weights(J, config), forward_weights(J + 123.4, config))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            forward_weights(np.array([0.0, np.inf]), mppi())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            forward_weights(np.array([]), mppi())

    def test_cem_threshold_ties_broken_by_index(self):
        J = np.array([1.0, 0.0, 0.0, 2.0])
        w = forward_weights(J, cem(quantile=0.25))
        assert w[1] == pytest.approx(4.0)
        assert w[2] == 0.0


class TestSignedLogWeights:
    def test_all_equal_beta_one_is_zero(self):
        for config in (cem(quantile=0.5), mppi()):
            lnH = signed_log_weights(np.full(10, 1.0), config)
            assert np.allclose(lnH, 0.0)

    @pytest.mark.parametrize("backend", ["cem", "mppi"])
    def test_beta_zero_reduces_to_forward(self, backend):
        config = WeightConfig(backend=backend, quantile=0.1, beta=0.0)
        rng = np.random.default_rng(7)
        J = rng.normal(0, 3, 50)
        assert np.allclose(signed_log_weights(J, config), forward_weights(J, config))

    def test_mppi_hand_case(self):
        J = np.array([-1.0, 0.0, 1.0])
        lnH = signed_log_weights(J, mppi())

        def softmax(x):
            e = np.exp(x - x.max())
            return e / e.sum()

        expected = 3.0 * softmax(-J) - 3.0 * softmax(J)
        assert np.allclose(lnH, expected)
        assert abs(lnH[1]) < 1e-12
        assert lnH[0] == pytest.approx(-lnH[2])
        assert lnH.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("backend", ["cem", "mppi"])
    def test_sum_identity(self, beta, backend):
        config = WeightConfig(backend=backend, quantile=0.1, beta=beta)
        rng = np.random.default_rng(int(beta * 100) + 1)
        for n in (8, 100, 321):
            J = rng.normal(0, 4, n)
            lnH = signed_log_weights(J, config)
            assert lnH.sum() == pytest.approx((1.0 - beta) * n, abs=1e-9 * n)

    def test_cost_spread_past_the_float_max(self):
        # the gap min J - J overflows to -inf, whose exp is the right weight, 0
        J = np.array([-1e308, 1e308, 0.0])
        with np.errstate(over="raise", invalid="raise"):
            assert np.array_equal(forward_weights(J, mppi()), [3.0, 0.0, 0.0])
            assert np.array_equal(signed_log_weights(J, mppi()), [3.0, -3.0, 0.0])

    def test_mppi_monotone(self):
        rng = np.random.default_rng(13)
        J = rng.normal(0, 2, 40)
        lnH = signed_log_weights(J, mppi())
        order = np.argsort(J)
        assert np.all(np.diff(lnH[order]) <= 1e-12)


class TestPartitionClusters:
    def test_sign_boundary(self):
        pos, neg = partition_clusters(np.array([0.5, -0.3, 0.0]))
        assert pos.tolist() == [0]
        assert neg.tolist() == [1]

    def test_all_positive(self):
        pos, neg = partition_clusters(np.array([1.0, 2.0]))
        assert neg.size == 0
        assert pos.size == 2

    def test_antisymmetric_costs_balance(self):
        lnH = signed_log_weights(np.array([-1.0, 1.0]), mppi())
        pos, neg = partition_clusters(lnH)
        assert pos.size == neg.size == 1

    def test_disjoint(self):
        rng = np.random.default_rng(19)
        lnH = rng.normal(0, 1, 100)
        pos, neg = partition_clusters(lnH)
        assert not set(pos) & set(neg)
