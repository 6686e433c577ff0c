import numpy as np
import pytest

from rkmpc.envs import REGISTRY, make_env
from rkmpc.policy import (
    SIGMA_FLOOR,
    PolicyParams,
    kl_divergence,
    log_density,
    mirror_inverse,
    mirror_map,
    sample_batch,
    squash,
    standard_prior,
)


def params_1d(mu, sigma):
    return PolicyParams(np.array([[mu]]), np.array([[sigma]]))


def random_params(rng, shape=(2, 3), sigma_range=(0.1, 10.0)):
    mu = rng.normal(0.0, 3.0, shape)
    sigma = rng.uniform(*sigma_range, shape)
    return PolicyParams(mu, sigma)


class TestPolicyParams:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            PolicyParams(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            PolicyParams(np.zeros((1, 1)), np.full((1, 1), np.nan))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolicyParams(np.zeros((2, 3)), np.ones((2, 2)))

    def test_rejects_1d_arrays(self):
        with pytest.raises(ValueError, match=r"expected 2-D \(action_dim, horizon\) arrays, got \(3,\)"):
            PolicyParams(np.zeros(3), np.ones(3))

    def test_rejects_nonfinite_mu(self):
        with pytest.raises(ValueError):
            PolicyParams(np.full((1, 1), np.inf), np.ones((1, 1)))

    def test_stores_frozen_copies_of_the_callers_arrays(self):
        mu, sigma = np.zeros((1, 3)), np.ones((1, 3))
        p = PolicyParams(mu, sigma)
        assert mu.flags.writeable and sigma.flags.writeable
        mu[0, 0], sigma[0, 0] = 5.0, 2.0
        assert p.mu[0, 0] == 0.0 and p.sigma[0, 0] == 1.0
        assert not (p.mu.flags.writeable or p.sigma.flags.writeable)


class TestSampleBatch:
    def test_degenerate_scale_collapses_to_mean(self):
        p = PolicyParams(np.full((2, 3), 1.7), np.full((2, 3), SIGMA_FLOOR))
        u = sample_batch(p, 50, np.random.default_rng(0))
        assert np.allclose(u, 1.7, atol=1e-4)

    def test_standard_normal_moments(self):
        p = standard_prior(2, 1)
        u = sample_batch(p, 10**5, np.random.default_rng(7))
        assert np.all(np.abs(u.mean(axis=0)) < 0.02)
        assert np.all(np.abs(u.std(axis=0) - 1.0) < 0.02)

    def test_deterministic_given_seed(self):
        p = random_params(np.random.default_rng(3))
        a = sample_batch(p, 4, np.random.default_rng(42))
        b = sample_batch(p, 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_batch(standard_prior(1, 1), 0, np.random.default_rng(0))


class TestSquash:
    def test_midpoint(self):
        out = squash(np.zeros((1, 1)), [-1.0], [1.0])
        assert out == pytest.approx(0.0)
        out = squash(np.zeros((1, 1)), [0.0], [4.0])
        assert out == pytest.approx(2.0)

    def test_saturation(self):
        out = squash(np.full((1, 1), 10.0), [-1.0], [1.0])
        assert out == pytest.approx(1.0, abs=1e-8)
        assert out < 1.0  # approaches the bound from inside

    def test_tanh_closed_form(self):
        out = squash(np.ones((1, 1)), [-1.0], [1.0])
        assert out == pytest.approx(np.tanh(1.0), rel=1e-12)

    def test_odd_symmetry_about_midpoint(self):
        u = np.linspace(-3, 3, 11).reshape(1, -1)
        lo, hi = [1.0], [5.0]
        mid = 3.0
        assert np.allclose(squash(u, lo, hi) - mid, -(squash(-u, lo, hi) - mid))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            squash(np.full((1, 1), np.nan), [-1.0], [1.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            squash(np.zeros((1, 1)), [1.0], [1.0])

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_builtin_bounds_skip_the_clamp(self, monkeypatch, name):
        # their mid +- half rounds onto the bounds, so the clamp could change no value
        env = make_env(name)
        clipped = []
        monkeypatch.setattr(np, "clip", lambda *args, **kwargs: clipped.append(1))
        u = np.array([-50.0, 50.0])[:, None, None] * np.ones((2, env.action_dim, 4))
        out = squash(u, env.action_low, env.action_high)
        assert not clipped
        assert (out[0] == env.action_low[:, None]).all() and (out[1] == env.action_high[:, None]).all()


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        val = log_density(standard_prior(1, 1), np.zeros((1, 1)))
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-12)

    def test_mode_is_maximal(self):
        rng = np.random.default_rng(11)
        p = random_params(rng)
        at_mode = log_density(p, p.mu)
        for _ in range(50):
            assert log_density(p, p.mu + rng.normal(0, 1, p.mu.shape)) <= at_mode

    def test_doubling_sigma_at_mode(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, shape=(2, 4))
        doubled = PolicyParams(p.mu, 2.0 * p.sigma)
        drop = log_density(p, p.mu) - log_density(doubled, p.mu)
        assert drop == pytest.approx(8 * np.log(2.0), rel=1e-12)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        batch = rng.normal(0, 2, (16,) + p.mu.shape)
        vals = log_density(p, batch)
        perm = rng.permutation(16)
        assert np.array_equal(vals[perm], log_density(p, batch[perm]))


def mc_kl_estimate(theta, theta_i, n, seed):
    """Monte-Carlo KL oracle: E_theta[ln pi_theta - ln pi_theta_i]."""
    rng = np.random.default_rng(seed)
    u = sample_batch(theta, n, rng)
    diffs = log_density(theta, u) - log_density(theta_i, u)
    return diffs.mean(), diffs.std(ddof=1) / np.sqrt(n)


class TestKLDivergence:
    def test_identity_is_zero(self):
        p = random_params(np.random.default_rng(1))
        assert kl_divergence(p, p) == 0.0

    def test_unit_mean_shift(self):
        kl = kl_divergence(params_1d(1.0, 1.0), params_1d(0.0, 1.0))
        assert kl == pytest.approx(0.5, rel=1e-12)
        est, se = mc_kl_estimate(params_1d(1.0, 1.0), params_1d(0.0, 1.0), 10**5, 0)
        assert abs(est - kl) < 3 * se

    def test_hand_case(self):
        kl = kl_divergence(params_1d(0.5, 2.0), params_1d(0.0, 1.0))
        expected = 0.5 * (np.log(0.25) + 4.0 + 0.25 - 1.0)
        assert kl == pytest.approx(expected, rel=1e-12)
        assert kl == pytest.approx(0.93185, abs=5e-6)
        est, se = mc_kl_estimate(params_1d(0.5, 2.0), params_1d(0.0, 1.0), 10**5, 1)
        assert abs(est - kl) < 3 * se

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = random_params(rng), random_params(rng)
            assert kl_divergence(a, b) >= 0.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(23)
        a = random_params(rng)
        b = PolicyParams(a.mu + 1e-3, a.sigma)
        assert kl_divergence(a, b) > 0.0


class TestMirrorMaps:
    def test_unit_reference_scale(self):
        theta = random_params(np.random.default_rng(2))
        ref = PolicyParams(np.zeros(theta.mu.shape), np.ones(theta.mu.shape))
        z_mu, _ = mirror_map(theta.mu, theta.sigma, ref.sigma)
        assert np.allclose(z_mu, theta.mu)

    def test_scale_fixed_point(self):
        p = random_params(np.random.default_rng(4))
        _, z_sigma = mirror_map(p.mu, p.sigma, p.sigma)
        assert np.allclose(z_sigma, 0.0)

    def test_hand_substitution(self):
        z_mu, _ = mirror_map(np.array([[3.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert z_mu[0, 0] == pytest.approx(0.75, rel=1e-12)

    def test_inverse_fixed_point(self):
        ref = params_1d(0.0, 1.7)
        _, sigma = mirror_inverse(np.zeros((1, 1)), np.zeros((1, 1)), ref.sigma)
        assert sigma[0, 0] == pytest.approx(1.7, rel=1e-12)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            theta = random_params(rng)
            ref = random_params(rng)
            mu, sigma = mirror_inverse(*mirror_map(theta.mu, theta.sigma, ref.sigma), ref.sigma)
            assert np.allclose(mu, theta.mu, rtol=1e-9, atol=1e-12)
            assert np.allclose(sigma, theta.sigma, rtol=1e-9)

    def test_hand_round_trip(self):
        ref = params_1d(0.0, 2.0)
        mu, sigma = mirror_inverse(np.zeros((1, 1)), np.full((1, 1), 0.25), ref.sigma)
        expected = 0.5 * (1.0 + 2.0 * np.sqrt(4.25))
        assert sigma[0, 0] == pytest.approx(expected, rel=1e-12)
        assert sigma[0, 0] == pytest.approx(2.56155, abs=5e-6)
        _, z_sigma = mirror_map(mu, sigma, ref.sigma)
        assert z_sigma[0, 0] == pytest.approx(0.25, rel=1e-9)

    def test_inverse_sigma_always_positive(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            ref = random_params(rng)
            scale = 10.0 ** rng.uniform(-3, 9)
            _, sigma = mirror_inverse(rng.normal(0, 1, ref.mu.shape), rng.normal(0, scale, ref.mu.shape), ref.sigma)
            assert np.all(sigma > 0.0)
            assert np.all(np.isfinite(sigma))

    def test_matches_kl_finite_differences(self):
        # The mirror map is the KL gradient up to the anchor-dependent
        # constant in the mu component, which cancels in every MD update.
        rng = np.random.default_rng(41)
        h = 1e-5
        for _ in range(20):
            theta = random_params(rng, sigma_range=(0.5, 3.0))
            ref = random_params(rng, sigma_range=(0.5, 3.0))
            z_mu, z_sigma = mirror_map(theta.mu, theta.sigma, ref.sigma)
            z0_mu, z0_sigma = mirror_map(ref.mu, ref.sigma, ref.sigma)
            for idx in np.ndindex(theta.mu.shape):
                mu_p, mu_m = theta.mu.copy(), theta.mu.copy()
                mu_p[idx] += h
                mu_m[idx] -= h
                fd = (
                    kl_divergence(PolicyParams(mu_p, theta.sigma), ref)
                    - kl_divergence(PolicyParams(mu_m, theta.sigma), ref)
                ) / (2 * h)
                assert fd == pytest.approx(z_mu[idx] - z0_mu[idx], rel=1e-6, abs=1e-8)
                sg_p, sg_m = theta.sigma.copy(), theta.sigma.copy()
                sg_p[idx] += h
                sg_m[idx] -= h
                fd = (
                    kl_divergence(PolicyParams(theta.mu, sg_p), ref)
                    - kl_divergence(PolicyParams(theta.mu, sg_m), ref)
                ) / (2 * h)
                assert fd == pytest.approx(z_sigma[idx] - z0_sigma[idx], rel=1e-6, abs=1e-8)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda a, b: kl_divergence(PolicyParams(a, a + 1.0), PolicyParams(b, b + 1.0)), "parameter shapes must match"),
        (lambda a, b: mirror_map(b, a + 1.0, a + 1.0), "parameter shapes must match"),
        (lambda a, b: mirror_map(a, b + 1.0, a + 1.0), "parameter shapes must match"),
        (lambda a, b: mirror_inverse(b, a, a + 1.0), "mirror point shape does not match reference"),
        (lambda a, b: mirror_inverse(a, b, a + 1.0), "mirror point shape does not match reference"),
    ],
    ids=["kl_divergence", "mirror_map_mu", "mirror_map_sigma", "mirror_inverse_mu", "mirror_inverse_sigma"],
)
def test_shape_mismatch_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call(np.zeros((1, 3)), np.zeros((1, 4)))
