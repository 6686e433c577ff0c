import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rkmpc
import rkmpc.solvers as solvers
from rkmpc.bench import ExperimentConfig, run_experiment
from rkmpc.envs import BLOCK_ROWS, EnvSpec, make_env, rollout_batch
from rkmpc.policy import (
    SIGMA_FLOOR,
    PolicyParams,
    kl_divergence,
    log_density,
    mirror_inverse,
    mirror_map,
    standard_prior,
)
from rkmpc.prefetch import Drawn
from rkmpc.solvers import (
    PREV_CEILING,
    VARIANTS,
    SolverConfig,
    SolverState,
    accel_update,
    agd_plus_step,
    compose_and_sample,
    forward_update,
    md_gradient,
    noise_strength,
    reject_update,
    reverse_update,
    selection_log_scores,
    solve,
    step_size_advance,
    warm_start,
)
from rkmpc.weights import WeightConfig, forward_weights, partition_clusters, signed_log_weights


def params_1d(mu, sigma):
    return PolicyParams(np.array([[float(mu)]]), np.array([[float(sigma)]]))


def state_of(plus, minus, tilde_plus, tilde_minus, **accumulators):
    """A SolverState holding the given per-side policies."""
    return SolverState(
        np.stack((plus.mu, minus.mu)), np.stack((plus.sigma, minus.sigma)),
        np.stack((tilde_plus.mu, tilde_minus.mu)), np.stack((tilde_plus.sigma, tilde_minus.sigma)), **accumulators,
    )


def one_sided(theta):
    """A SolverState whose four policies are all theta, for the theta+ updates."""
    return state_of(theta, theta, theta, theta)


def agd(theta, tilde, *args, anchor=None):
    """agd_plus_step on PolicyParams."""
    new, new_tilde = agd_plus_step(
        (theta.mu, theta.sigma), (tilde.mu, tilde.sigma), *args, anchor=None if anchor is None else anchor.sigma
    )
    return PolicyParams(*new), PolicyParams(*new_tilde)


DIVERGING_VIOLATION = 5.0


def diverging_env():
    """Any positive action sends the state to +inf; every finite rollout
    violates the constraint by DIVERGING_VIOLATION at each step."""
    return EnvSpec(
        name="diverging",
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        dynamics=lambda x, u: np.where(u > 0.0, np.inf, x),
        stage_cost=lambda x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        constraint=lambda x, u: np.full(x.shape[0], DIVERGING_VIOLATION),
    )


def sleeping_env(seconds):
    """quadratic_bowl whose dynamics sleep `seconds` per call, so one rollout
    of horizon H, and so one solver iteration, takes at least H * seconds."""

    def dynamics(x, u):
        time.sleep(seconds)
        return x

    return replace(make_env("quadratic_bowl"), name="sleeping", dynamics=dynamics)


def check_deadline_contract(deadline):
    """Every iteration sleeps 3 * 2 ms in the dynamics, so how many fit in the
    deadline does not depend on the speed of the machine."""
    sleep, horizon, max_iterations = 0.002, 3, 10**6
    env = sleeping_env(sleep)
    config = quick_config(horizon=horizon, deadline=deadline, max_iterations=max_iterations)
    result, _ = solve(env, env.initial_state, config, variant="accel", seed=0)
    assert min(result.iteration_times) >= horizon * sleep
    if deadline < horizon * sleep:
        assert result.iterations == 1
    else:
        assert 2 <= result.iterations < max_iterations
    # overshoot is at most one iteration, plus the loop's own bookkeeping
    assert result.wall_time <= deadline + max(result.iteration_times) + 0.002


class TestForwardUpdate:
    def test_symmetric_candidates(self):
        u = np.array([[[-1.0]], [[1.0]]])
        start = one_sided(params_1d(0.3, 1.0))
        out = forward_update(start, u, np.array([1.0, 1.0]), 1.0)
        assert out is not start
        theta = out.theta_plus
        assert theta.mu[0, 0] == pytest.approx(0.0)
        assert theta.sigma[0, 0] == pytest.approx(1.0)  # weighted std of {-1, 1}

    def test_hand_weighted_mean(self):
        u = np.array([[[-1.0]], [[1.0]]])
        theta = forward_update(one_sided(params_1d(0.0, 1.0)), u, np.array([2.0, 0.0]), 1.0).theta_plus
        assert theta.mu[0, 0] == pytest.approx(-1.0)

    def test_zero_step(self):
        u = np.random.default_rng(0).normal(0, 1, (8, 1, 1))
        start = params_1d(0.2, 0.7)
        theta = forward_update(one_sided(start), u, np.ones(8), 0.0).theta_plus
        assert np.array_equal(theta.mu, start.mu)
        assert np.array_equal(theta.sigma, start.sigma)

    def test_all_zero_weights_flagged(self):
        u = np.zeros((4, 1, 1))
        start = one_sided(params_1d(0.5, 1.0))
        assert forward_update(start, u, np.zeros(4), 0.5) is start

    def test_minus_side_kept(self):
        u = np.array([[[-1.0]], [[1.0]]])
        start = state_of(params_1d(0.3, 1.0), params_1d(-2.0, 0.5), params_1d(1.0, 2.0), params_1d(4.0, 3.0))
        out = forward_update(start, u, np.array([1.0, 1.0]), 0.5)
        assert np.array_equal(out.mu[1], start.mu[1]) and np.array_equal(out.sigma[1], start.sigma[1])
        assert np.array_equal(out.tilde_mu, start.tilde_mu) and np.array_equal(out.tilde_sigma, start.tilde_sigma)


class TestMdGradient:
    def test_zero_weights_zero_gradient(self):
        theta = standard_prior(2, 3)
        u = np.random.default_rng(1).normal(0, 1, (6, 2, 3))
        g_mu, g_sigma = md_gradient(theta.mu, theta.sigma, u, np.zeros(6), np.arange(6))
        assert np.allclose(g_mu, 0.0)
        assert np.allclose(g_sigma, 0.0)

    def test_sign_pulls_mean_toward_good_candidate(self):
        theta = params_1d(0.0, 1.0)
        u = np.array([[[0.8]]])
        g_mu, _ = md_gradient(theta.mu, theta.sigma, u, np.array([1.0]), np.array([0]))
        assert g_mu[0, 0] < 0.0  # the MD step mu <- mu - alpha*g then increases mu

    def test_empty_cluster_raises(self):
        with pytest.raises(ValueError, match="empty cluster"):
            md_gradient(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((2, 1, 1)), np.ones(2), np.array([], dtype=int))

    def test_finite_difference_oracle(self):
        # objective: (1/|C|) sum_C (-lnH^n) ln pi(U^n; theta)
        rng = np.random.default_rng(3)
        theta = PolicyParams(rng.normal(0, 1, (2, 2)), rng.uniform(0.5, 2.0, (2, 2)))
        u = rng.normal(0, 2, (10, 2, 2))
        lnH = rng.normal(0, 1, 10)
        cluster = np.array([0, 2, 3, 7, 9])

        def objective(mu, sigma):
            p = PolicyParams(mu, sigma)
            vals = log_density(p, u[cluster])
            return float((-lnH[cluster] * vals).mean())

        g_mu, g_sigma = md_gradient(theta.mu, theta.sigma, u, lnH, cluster)
        h = 1e-5
        for idx in np.ndindex(theta.mu.shape):
            mu_p, mu_m = theta.mu.copy(), theta.mu.copy()
            mu_p[idx] += h
            mu_m[idx] -= h
            fd = (objective(mu_p, theta.sigma) - objective(mu_m, theta.sigma)) / (2 * h)
            assert fd == pytest.approx(g_mu[idx], rel=1e-6, abs=1e-8)
            sg_p, sg_m = theta.sigma.copy(), theta.sigma.copy()
            sg_p[idx] += h
            sg_m[idx] -= h
            fd = (objective(theta.mu, sg_p) - objective(theta.mu, sg_m)) / (2 * h)
            assert fd == pytest.approx(g_sigma[idx], rel=1e-6, abs=1e-8)


class TestReverseUpdate:
    def test_zero_gradient_fixed_point(self):
        theta = params_1d(0.4, 1.3)
        u = np.full((4, 1, 1), 0.0)
        start = one_sided(theta)
        out = reverse_update(start, u, np.zeros(4), 0.5)
        assert out is start
        assert np.allclose(out.theta_plus.mu, theta.mu)
        assert np.allclose(out.theta_plus.sigma, theta.sigma)

    def test_step_scales_linearly_with_alpha(self):
        rng = np.random.default_rng(5)
        theta = params_1d(0.0, 1.0)
        u = rng.normal(0, 1, (16, 1, 1))
        lnH = signed_log_weights(np.abs(u[:, 0, 0]), WeightConfig())
        deltas = []
        alphas = [0.2, 0.1, 0.05, 0.025]
        for alpha in alphas:
            out = reverse_update(one_sided(theta), u, lnH, alpha).theta_plus
            deltas.append(abs(out.mu[0, 0] - theta.mu[0, 0]) + abs(out.sigma[0, 0] - theta.sigma[0, 0]))
        deltas = np.array(deltas)
        assert np.all(np.diff(deltas) < 0)
        ratios = deltas[:-1] / deltas[1:]
        assert np.all(np.abs(ratios - 2.0) < 0.2)  # O(alpha) continuity

    def test_hand_mirror_step(self):
        # single candidate at U = 1 with lnH = 1 gives g_mu = -1, g_sigma = 0
        theta = params_1d(0.0, 1.0)
        out = reverse_update(one_sided(theta), np.array([[[1.0]]]), np.array([1.0]), 0.1).theta_plus
        assert out.mu[0, 0] == pytest.approx(0.1, rel=1e-12)
        assert out.sigma[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_hand_sigma_step_shrinks_a_tight_cluster(self):
        # two candidates in C+, 0.4 and 0.3 from mu, both nearer than sigma = 0.8.
        # By hand: g_mu = (1/2)(-1.5 * 0.4 - 0.5 * -0.3) / 0.64 = -0.3515625 and
        # g_sigma = (1/2)(-1.5 * (0.16 - 0.64) - 0.5 * (0.09 - 0.64)) / 0.512 = 0.9716796875.
        # The mirror point of sigma at its own scale is 0, so sigma' is the positive root
        # of s'^2 - z s^2 s' - s^2 = 0 with z = -alpha * g_sigma, below sigma.
        mu, sigma, alpha = 0.1, 0.8, 0.1
        theta = params_1d(mu, sigma)
        u, lnH = np.array([[[0.5]], [[-0.2]]]), np.array([1.5, 0.5])
        g_mu, g_sigma = md_gradient(theta.mu, theta.sigma, u, lnH, np.array([0, 1]))
        assert g_mu[0, 0] == pytest.approx(-0.3515625, rel=1e-15)
        assert g_sigma[0, 0] == pytest.approx(0.9716796875, rel=1e-15)
        z_mu, z_sigma = mirror_map(theta.mu, theta.sigma, theta.sigma)
        mu_new, sigma_new = mirror_inverse(z_mu - alpha * g_mu, z_sigma - alpha * g_sigma, theta.sigma)
        z = -alpha * 0.9716796875
        closed = 0.5 * (sigma * sigma * z + math.sqrt((sigma * sigma * z) ** 2 + 4.0 * sigma * sigma))
        assert sigma_new[0, 0] == pytest.approx(closed, rel=1e-14) and closed < sigma
        assert mu_new[0, 0] == pytest.approx(mu + alpha * sigma * sigma * 0.3515625, rel=1e-14)
        out = reverse_update(one_sided(theta), u, lnH, alpha).theta_plus
        assert out.mu.tobytes() == mu_new.tobytes() and out.sigma.tobytes() == sigma_new.tobytes()

    @pytest.mark.parametrize("env_name", ["overlap_trap", "pendulum_swingup"])
    def test_beta_zero_mu_step_is_the_smoothed_forward_refit(self, env_name):
        # at beta = 0, lnH is forward's weights, summing to N, and the mirror map at
        # sigma_i = sigma gives mu' = mu + (alpha / N) sum lnH (u - mu) = (1 - alpha) mu
        # + alpha mu*: one reverse iteration from the prior moves mu+ as forward's
        # refit on the same batch does, to within rounding (sigma's steps differ)
        env = make_env(env_name)
        config = SolverConfig(max_iterations=1, weights=WeightConfig(beta=0.0))
        _, reverse = solve(env, env.initial_state, config, "reverse", seed=3)
        _, forward = solve(env, env.initial_state, config, "forward", seed=3)
        assert not np.array_equal(reverse.mu[0], standard_prior(env.action_dim, config.horizon).mu)
        np.testing.assert_allclose(reverse.mu[0], forward.mu[0], rtol=0,
                                   atol=16 * np.spacing(np.abs(forward.mu[0]).max()))

    def test_trust_region_shrinks_with_alpha(self):
        rng = np.random.default_rng(7)
        theta = params_1d(0.0, 1.0)
        u = rng.normal(0, 1, (32, 1, 1))
        lnH = signed_log_weights((u[:, 0, 0] - 0.5) ** 2, WeightConfig())
        kls = []
        for alpha in [0.4, 0.2, 0.1, 0.05, 0.025]:
            out = reverse_update(one_sided(theta), u, lnH, alpha).theta_plus
            kl = kl_divergence(out, theta)
            assert math.isfinite(kl)
            kls.append(kl)
        assert np.all(np.diff(kls) < 0)

    def test_beta_zero_mppi_stationary_at_weighted_mle(self):
        rng = np.random.default_rng(9)
        config = WeightConfig(backend="mppi", beta=0.0)
        u = rng.normal(0, 1, (64, 1, 1))
        J = (u[:, 0, 0] - 0.3) ** 2
        w = forward_weights(J, config)
        mle = forward_update(one_sided(standard_prior(1, 1)), u, w, 1.0).theta_plus
        lnH = signed_log_weights(J, config)
        g_mu, g_sigma = md_gradient(mle.mu, mle.sigma, u, lnH, np.arange(64))
        assert np.allclose(g_mu, 0.0, atol=1e-10)
        assert np.allclose(g_sigma, 0.0, atol=1e-10)


class TestRejectUpdate:
    """The two-sided step, pinned for reject and for accel alike."""

    def make_state(self):
        return state_of(
            params_1d(0.0, 1.0),
            params_1d(0.0, 1.0),
            params_1d(0.0, 1.0),
            params_1d(0.0, 1.0),
            a_i=0.05,
            A_i=0.05,
        )

    def updates(self, u, lnH, J, alpha):
        """The start state, and the state after one reject and one accel update."""
        state = self.make_state()
        return state, {
            "reject": reject_update(state, u, lnH, alpha),
            "accel": accel_update(state, u, lnH, J, SolverConfig(alpha=alpha))[0],
        }

    def test_beta_zero_never_updates_minus(self):
        rng = np.random.default_rng(11)
        u = rng.normal(0, 1, (16, 1, 1))
        J = np.abs(u[:, 0, 0])
        lnH = signed_log_weights(J, WeightConfig(beta=0.0))
        assert partition_clusters(lnH)[1].size == 0
        state, outs = self.updates(u, lnH, J, 0.1)
        for variant, out in outs.items():
            for name in ("theta_minus", "theta_tilde_minus"):
                before, after = getattr(state, name), getattr(out, name)
                assert np.array_equal(after.mu, before.mu) and np.array_equal(after.sigma, before.sigma), (variant, name)
            assert not np.array_equal(out.theta_plus.mu, state.theta_plus.mu), variant

    def test_antisymmetric_batch_directions(self):
        u = np.array([[[-1.0]], [[1.0]]])
        # low cost at U = -1, high cost at U = +1
        J = np.array([-3.0, 3.0])
        _, outs = self.updates(u, signed_log_weights(J, WeightConfig()), J, 0.2)
        for variant, out in outs.items():
            assert out.theta_plus.mu[0, 0] < 0.0, variant  # toward the good candidate
            assert out.theta_minus.mu[0, 0] > 0.0, variant  # toward the bad candidate

    def test_degenerate_batch_no_change(self):
        u = np.zeros((4, 1, 1))
        state, outs = self.updates(u, np.zeros(4), np.zeros(4), 0.2)
        for variant, out in outs.items():
            assert np.array_equal(out.theta_plus.mu, state.theta_plus.mu), variant
            assert np.array_equal(out.theta_minus.mu, state.theta_minus.mu), variant
        # flat costs: s = 0, so accel's step grows by the full alpha, once
        assert (outs["accel"].a_i, outs["accel"].A_i) == (0.05 + 0.2, 0.05 + (0.05 + 0.2))
        assert (outs["reject"].a_i, outs["reject"].A_i) == (0.05, 0.05)


def normal_pdf(x, mu, sigma):
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


class TestComposeAndSample:
    def test_far_mode_scores_near_uniform(self):
        plus = params_1d(0.0, 1.0)
        minus = params_1d(8.0, 0.5)
        rng = np.random.default_rng(0)
        u = plus.mu + plus.sigma * rng.standard_normal((512, 1, 1))
        scores = selection_log_scores(plus, minus, u, kappa=1.0)
        assert scores.max() - scores.min() < 1e-6

    def test_large_kappa_recovers_uniform_selection(self):
        plus = params_1d(0.0, 1.0)
        minus = params_1d(0.5, 0.8)  # overlapping on purpose
        rng = np.random.default_rng(1)
        u = plus.mu + plus.sigma * rng.standard_normal((512, 1, 1))
        scores = selection_log_scores(plus, minus, u, kappa=1e5)
        assert scores.max() - scores.min() < 1e-4

    def test_direct_density_oracle(self):
        plus = params_1d(0.0, 1.0)
        minus = params_1d(2.0, 0.5)
        u = np.array([[[0.0]], [[2.0]]])
        scores = selection_log_scores(plus, minus, u, kappa=1.0)
        anchor = normal_pdf(2.0, 0.0, 1.0)
        expected0 = -math.log(normal_pdf(0.0, 2.0, 0.5) + anchor)
        expected2 = -math.log(normal_pdf(2.0, 2.0, 0.5) + anchor)
        assert scores[0] == pytest.approx(expected0, rel=1e-9)
        assert scores[1] == pytest.approx(expected2, rel=1e-9)
        assert scores[0] > scores[1]  # the candidate at the bad mode loses

    def test_selection_probabilities_valid_and_scale_invariant(self):
        plus = params_1d(0.0, 1.0)
        minus = params_1d(1.0, 0.7)
        rng = np.random.default_rng(2)
        u = plus.mu + plus.sigma * rng.standard_normal((64, 1, 1))
        scores = selection_log_scores(plus, minus, u, kappa=1.0)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0)
        # common positive rescaling of all densities shifts every log score
        # equally, leaving the distribution unchanged
        q = np.exp((scores + 123.0) - (scores + 123.0).max())
        q /= q.sum()
        assert np.allclose(p, q)

    def test_deterministic_given_seed(self):
        plus = params_1d(0.0, 1.0)
        minus = params_1d(1.5, 0.5)
        a = compose_and_sample(plus, minus, 64, 16, 1.0, np.random.default_rng(5))
        b = compose_and_sample(plus, minus, 64, 16, 1.0, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert a.shape == (16, 1, 1)

    def test_avoids_bad_mode_statistically(self):
        plus = params_1d(0.0, 1.5)
        minus = params_1d(1.5, 0.4)
        hits_selected = 0
        hits_baseline = 0
        for seed in range(50):
            sel = compose_and_sample(plus, minus, 256, 64, 1.0, np.random.default_rng(seed))
            hits_selected += np.sum(np.abs(sel[:, 0, 0] - 1.5) < 0.4)
            base = plus.mu + plus.sigma * np.random.default_rng(1000 + seed).standard_normal((64, 1, 1))
            hits_baseline += np.sum(np.abs(base[:, 0, 0] - 1.5) < 0.4)
        assert hits_selected < 0.5 * hits_baseline

    def test_oversample_validation(self):
        plus = params_1d(0.0, 1.0)
        with pytest.raises(ValueError):
            compose_and_sample(plus, plus, 8, 16, 1.0, np.random.default_rng(0))


class TestNoiseStrength:
    def test_two_point_symmetric_is_exactly_zero(self):
        J = np.array([-2.0, 2.0] * 8)
        s, new_max = noise_strength(J, 0.0)
        assert s == 0.0
        assert new_max == 2.0

    def test_gaussian_ratio(self):
        J = np.random.default_rng(0).standard_normal(10**5)
        std = J.std()
        s, _ = noise_strength(J, std)  # sigma_max pinned at sigma_std
        assert s == pytest.approx(1.0 - np.sqrt(2.0 / np.pi), abs=0.02)
        assert s == pytest.approx(0.2, abs=0.02)

    def test_constant_costs(self):
        s, new_max = noise_strength(np.full(10, 3.0), 0.5)
        assert s == 0.0
        assert new_max == 0.5

    def test_running_max_monotone(self):
        rng = np.random.default_rng(3)
        running = 0.0
        for _ in range(20):
            _, new_max = noise_strength(rng.normal(0, rng.uniform(0.1, 5.0), 100), running)
            assert new_max >= running
            running = new_max

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            noise_strength(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_cost_rejected(self, bad):
        # scaling never made the overflowed sum finite, so this recursed until RecursionError
        with pytest.raises(ValueError, match="costs must be finite"):
            noise_strength(np.array([0.0, bad]), 0.0)


class TestStepSizeAdvance:
    def test_gamma_zero_pure_nag(self):
        a, A = 0.05, 0.05
        for i in range(2, 10):
            a, A = step_size_advance(a, A, 0.7, 0.05, 0.0)
            assert a == pytest.approx(0.05 * i, rel=1e-12)
            assert A == pytest.approx(0.05 * i * (i + 1) / 2, rel=1e-12)

    def test_zero_noise_increment(self):
        a, A = step_size_advance(0.1, 0.1, 0.0, 0.05, 0.5)
        assert a == pytest.approx(0.15)
        assert A == pytest.approx(0.25)

    def test_hand_slowdown(self):
        a, _ = step_size_advance(0.1, 0.1, 0.2, 0.05, 0.5)
        assert a - 0.1 == pytest.approx(0.05 / 1.5, rel=1e-12)

    def test_a_strictly_increasing_and_A_consistent(self):
        rng = np.random.default_rng(5)
        a, A = 0.05, 0.05
        total = a
        for _ in range(50):
            a_new, A_new = step_size_advance(a, A, rng.uniform(0, 1), 0.05, 0.5)
            assert a_new > a
            total += a_new
            assert A_new == pytest.approx(total, rel=1e-12)
            a, A = a_new, A_new

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            step_size_advance(0.0, 0.0, 0.0, 0.05, 0.5)


def agd_original_oracle(theta1, anchor, grads, alpha):
    """Three-variable AGD+ recursion on a static mirror space (test oracle)."""
    z_mu, z_sigma = mirror_map(theta1.mu, theta1.sigma, anchor.sigma)
    y_mu, y_sigma = theta1.mu.copy(), theta1.sigma.copy()
    theta = theta1
    out = [theta1]
    A_prev = 0.0
    for i, (g_mu, g_sigma) in enumerate(grads, start=1):
        a_i = alpha * i
        A_i = A_prev + a_i
        a_next = alpha * (i + 1)
        A_next = A_i + a_next
        z_mu = z_mu - a_i * g_mu
        z_sigma = z_sigma - a_i * g_sigma
        inv = PolicyParams(*mirror_inverse(z_mu, z_sigma, anchor.sigma))
        y_mu = (A_prev / A_i) * y_mu + (a_i / A_i) * inv.mu
        y_sigma = (A_prev / A_i) * y_sigma + (a_i / A_i) * inv.sigma
        theta = PolicyParams(
            (A_i / A_next) * y_mu + (a_next / A_next) * inv.mu,
            (A_i / A_next) * y_sigma + (a_next / A_next) * inv.sigma,
        )
        out.append(theta)
        A_prev = A_i
    return out


def agd_momentum_oracle(theta1, anchor, grads, alpha):
    """Momentum-form AGD+ recursion on a static mirror space (test oracle)."""
    z_mu, z_sigma = mirror_map(theta1.mu, theta1.sigma, anchor.sigma)
    inv_prev = theta1
    theta = theta1
    out = [theta1]
    A_prev = 0.0
    for i, (g_mu, g_sigma) in enumerate(grads, start=1):
        a_i = alpha * i
        A_i = A_prev + a_i
        a_next = alpha * (i + 1)
        A_next = A_i + a_next
        z_mu = z_mu - a_i * g_mu
        z_sigma = z_sigma - a_i * g_sigma
        inv = PolicyParams(*mirror_inverse(z_mu, z_sigma, anchor.sigma))
        theta = PolicyParams(
            (A_i / A_next) * theta.mu + (a_next / A_next) * inv.mu + (a_i / A_next) * (inv.mu - inv_prev.mu),
            (A_i / A_next) * theta.sigma
            + (a_next / A_next) * inv.sigma
            + (a_i / A_next) * (inv.sigma - inv_prev.sigma),
        )
        out.append(theta)
        inv_prev = inv
        A_prev = A_i
    return out


class TestAgdPlusStep:
    def test_zero_gradient_fixed_point(self):
        theta1 = params_1d(0.3, 1.2)
        theta, tilde = theta1, theta1
        a, A = 0.05, 0.05
        for i in range(2, 10):
            a_next, A_next = step_size_advance(a, A, 0.0, 0.05, 0.0)
            theta, tilde = agd(
                theta, tilde, np.zeros((1, 1)), np.zeros((1, 1)), a, A, a_next, A_next
            )
            a, A = a_next, A_next
        assert np.allclose(theta.mu, theta1.mu, rtol=1e-12)
        assert np.allclose(theta.sigma, theta1.sigma, rtol=1e-12)

    def test_static_mirror_space_equivalence(self):
        # with the mirror maps frozen at theta_1, the implemented recursion
        # must match both classical AGD+ forms step for step
        rng = np.random.default_rng(13)
        alpha = 0.05
        theta1 = PolicyParams(rng.normal(0, 1, (2, 3)), rng.uniform(0.5, 2.0, (2, 3)))
        anchor = theta1
        grads = [
            (rng.normal(0, 0.3, (2, 3)), rng.normal(0, 0.1, (2, 3)))
            for _ in range(100)
        ]
        orig = agd_original_oracle(theta1, anchor, grads, alpha)
        mom = agd_momentum_oracle(theta1, anchor, grads, alpha)

        theta, tilde = theta1, theta1
        impl = [theta1]
        a_prev, A_prev = 0.0, 0.0
        for i, (g_mu, g_sigma) in enumerate(grads, start=1):
            a_i = alpha * i
            A_i = A_prev + a_i
            a_next = alpha * (i + 1)
            A_next = A_i + a_next
            theta, tilde = agd(
                theta, tilde, g_mu, g_sigma, a_i, A_i, a_next, A_next, anchor=anchor
            )
            impl.append(theta)
            a_prev, A_prev = a_i, A_i

        for a, b, c in zip(impl, orig, mom):
            np.testing.assert_allclose(a.mu, b.mu, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(a.mu, c.mu, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(a.sigma, c.sigma, rtol=1e-9, atol=1e-12)


def quadratic_gradient(theta, mu_star=0.8, sigma_star=0.3):
    return theta.mu - mu_star, theta.sigma - sigma_star


def iterations_to_tolerance(trace, mu_star=0.8, tol=1e-3):
    for i, theta in enumerate(trace, start=1):
        if abs(theta.mu[0, 0] - mu_star) < tol:
            return i
    return len(trace) + 1


class TestAcceleration:
    def test_accel_beats_plain_mirror_descent(self):
        # deterministic strongly convex objective; the momentum scheme
        # should need fewer iterations than the constant-step MD loop
        alpha = 0.02
        start = params_1d(-0.5, 1.5)

        theta = start
        plain = []
        for _ in range(400):
            g_mu, g_sigma = quadratic_gradient(theta)
            z_mu, z_sigma = mirror_map(theta.mu, theta.sigma, theta.sigma)
            theta = PolicyParams(*mirror_inverse(z_mu - alpha * g_mu, z_sigma - alpha * g_sigma, theta.sigma))
            plain.append(theta)

        theta, tilde = start, start
        a_i, A_i = alpha, alpha
        accel = []
        for i in range(1, 401):
            a_next = a_i + alpha
            A_next = A_i + a_next
            g_mu, g_sigma = quadratic_gradient(theta)
            theta, tilde = agd(theta, tilde, g_mu, g_sigma, a_i, A_i, a_next, A_next)
            accel.append(theta)
            a_i, A_i = a_next, A_next

        n_plain = iterations_to_tolerance(plain)
        n_accel = iterations_to_tolerance(accel)
        assert n_accel <= 400
        assert n_plain / n_accel >= 2.0


class TestWarmStart:
    def test_eta_zero_cold_start(self):
        prior = standard_prior(2, 6)
        star = PolicyParams(np.full((2, 6), 0.7), np.full((2, 6), 0.4))
        (mu1, sigma1), a1, A1 = warm_start((star.mu, star.sigma), prior, a_prv=0.9, eta=0.0, alpha=0.05)
        assert np.array_equal(mu1, prior.mu)
        assert np.array_equal(sigma1, prior.sigma)
        assert a1 == pytest.approx(0.05)
        assert A1 == pytest.approx(0.05)

    def test_hand_accumulators(self):
        prior = standard_prior(1, 4)
        star = standard_prior(1, 4)
        _, a1, A1 = warm_start((star.mu, star.sigma), prior, a_prv=0.6, eta=1.0, alpha=0.05)
        assert a1 == pytest.approx(0.6, rel=1e-12)
        assert A1 == pytest.approx(3.9, rel=1e-12)

    def test_time_shifted_blend(self):
        prior = standard_prior(1, 4)
        mu_star = np.array([[10.0, 20.0, 30.0, 40.0]])
        star = PolicyParams(mu_star, np.ones((1, 4)))
        (mu1, _), _, _ = warm_start((star.mu, star.sigma), prior, a_prv=0.05, eta=0.5, alpha=0.05)
        assert np.allclose(mu1[0, :3], 0.5 * np.array([20.0, 30.0, 40.0]))
        assert mu1[0, 3] == 0.0  # last slot keeps the prior

    def test_idempotent_on_equal_inputs(self):
        prior = PolicyParams(np.full((1, 5), 0.3), np.full((1, 5), 1.1))
        (mu1, sigma1), _, _ = warm_start((prior.mu, prior.sigma), prior, a_prv=0.2, eta=0.7, alpha=0.05)
        assert np.allclose(mu1, prior.mu)
        assert np.allclose(sigma1, prior.sigma)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            warm_start((np.zeros((1, 2)), np.ones((1, 2))), standard_prior(1, 2), 0.1, 1.5, 0.05)


def quick_config(**kwargs):
    defaults = dict(
        n_candidates=32,
        n_oversample=64,
        horizon=4,
        alpha=0.5,
        max_iterations=8,
        weights=WeightConfig(backend="mppi", temperature=0.5),
    )
    defaults.update(kwargs)
    return SolverConfig(**defaults)


class TestSolve:
    def test_unknown_variant(self):
        env = make_env("quadratic_bowl")
        with pytest.raises(ValueError, match="unknown solver variant"):
            solve(env, env.initial_state, quick_config(), variant="newton")

    def test_single_iteration_zero_info(self):
        # zero-cost landscape: one iteration leaves the warm-started mean
        env = make_env("quadratic_bowl")
        env = env.__class__(**{**env.__dict__, "stage_cost": lambda x, u: np.zeros(x.shape[0])})
        config = quick_config(max_iterations=1)
        result, _ = solve(env, env.initial_state, config, variant="forward", seed=0)
        assert result.iterations == 1
        # MPPI weights are all equal, so the refit recenters on the sample
        # cloud of the prior; the first action stays near the midpoint
        assert abs(result.u[0]) < 0.5

    @pytest.mark.parametrize("variant", ["forward", "reverse", "reject", "accel"])
    def test_converges_on_quadratic(self, variant):
        env = make_env("quadratic_bowl")
        config = quick_config(
            max_iterations=25,
            horizon=1,
            weights=WeightConfig(backend="mppi", temperature=0.05),
        )
        result, state = solve(env, env.initial_state, config, variant=variant, seed=3)
        assert abs(result.u[0] - 0.5) < 0.1
        assert np.all(state.theta_plus.sigma >= SIGMA_FLOOR)

    def test_best_cost_trend_over_seeds(self):
        env = make_env("quadratic_bowl")
        config = quick_config(max_iterations=10, horizon=1)
        traces = []
        for seed in range(20):
            result, _ = solve(env, env.initial_state, config, variant="forward", seed=seed)
            traces.append(np.minimum.accumulate(result.cost_trace))
        avg = np.mean(traces, axis=0)
        assert np.all(np.diff(avg) <= 1e-12)

    @pytest.mark.parametrize("env_name, variant, n, n_oversample, horizon, prefetches", [
        ("pendulum_swingup", "accel", 32, 128, 12, False),
        ("overlap_trap", "reject", 256, 1024, 16, False),
        ("point_reacher", "forward", 1024, None, 16, True),
        ("overlap_trap", "reject", 512, 2048, 16, True),
    ])
    def test_shorter_solve_is_a_prefix_of_a_longer_one(self, env_name, variant, n, n_oversample, horizon, prefetches):
        # each batch is a function of (seed, step, iteration) alone; at the second step the
        # shorter solve takes the carried draw and the longer one draws iteration 1 itself
        env = make_env(env_name)
        config = SolverConfig(n_candidates=n, n_oversample=n_oversample, horizon=horizon, max_iterations=7)
        short = replace(config, max_iterations=3)
        assert solvers._prefetches(variant, config, env.action_dim) == prefetches
        prev = None
        for step in range(2):
            assert (prev is not None and prev.carry is not None) == (prefetches and step == 1)
            shorter, _ = solve(env, env.initial_state, short, variant, prev=prev, seed=3, step=step)
            if prev is not None and prev.carry is not None:
                assert prev.carry.take(prev.carry.key) is None  # the shorter solve took it
            longer, prev = solve(env, env.initial_state, config, variant, prev=prev, seed=3, step=step)
            assert shorter.cost_trace == longer.cost_trace[:3]
            assert shorter.best_cost >= longer.best_cost

    def test_bit_identical_across_runs_and_batch_layouts(self):
        env = make_env("pendulum_swingup")
        config = quick_config(horizon=8, max_iterations=5)
        results = []
        for _ in range(3):
            result, state = solve(env, env.initial_state, config, variant="accel", seed=7)
            results.append((result.u.copy(), state.theta_plus.mu.copy(), result.best_cost))
        for u, mu, best in results[1:]:
            assert np.array_equal(u, results[0][0])
            assert np.array_equal(mu, results[0][1])
            assert best == results[0][2]
        # a candidate's cost, +inf marks of diverged ones included, does not
        # depend on which batch it is rolled out in
        rng = np.random.default_rng(7)
        diverging = diverging_env()
        small_cuts = ([1], [16], [5, 6, 20, 32], list(range(1, 33)))
        # 1200 x 15 runs in blocks of 6 steps; chunks of 546 and 547 candidates
        # straddle BLOCK_ROWS (8,190 rows in one block, 8,205 in blocks of 14)
        straddling = ([546, 1093],)
        assert 546 * 15 <= BLOCK_ROWS < 547 * 15
        for e, batch, cut_lists in (
            (env, rng.uniform(-2.0, 2.0, (33, env.action_dim, 8)), small_cuts),
            (diverging, rng.uniform(-1.0, 1.0, (33, diverging.action_dim, 4)), small_cuts),
            (env, rng.uniform(-2.0, 2.0, (1200, env.action_dim, 15)), straddling),
        ):
            whole = rollout_batch(e, e.initial_state, batch)
            for cuts in cut_lists:
                chunks = [rollout_batch(e, e.initial_state, c) for c in np.split(batch, cuts)]
                assert np.array_equal(np.concatenate(chunks), whole)
            if e is diverging:
                assert np.isinf(whole).any() and np.isfinite(whole).any()

    def test_zero_deadline_single_iteration(self):
        env = make_env("quadratic_bowl")
        config = quick_config(deadline=0.0, max_iterations=50)
        result, _ = solve(env, env.initial_state, config, variant="reject", seed=0)
        assert result.iterations == 1

    def test_deadline_overshoot_bounded(self):
        env = make_env("pendulum_swingup")
        config = quick_config(horizon=8, deadline=0.02, max_iterations=10**6)
        result, _ = solve(env, env.initial_state, config, variant="accel", seed=1)
        assert result.iterations >= 1
        assert result.wall_time <= 0.02 + max(result.iteration_times) + 0.01

    @pytest.mark.parametrize("deadline", [0.0, 0.005, 0.05])
    def test_deadline_contract_with_sleeping_rollouts(self, deadline):
        check_deadline_contract(deadline)

    @pytest.mark.parametrize("variant, prefetches", [
        ("accel", False), ("forward", False), ("reject", False), ("reject", True),
    ], ids=["accel", "forward", "reject", "reject-prefetch"])
    def test_deadline_run_replays_at_its_iteration_counts(self, variant, prefetches, monkeypatch):
        # each batch is a function of (seed, step, iteration) alone, so a deadline-bound
        # episode is fixed by its per-step iteration counts: replayed with no deadline
        # at those counts, and without the sleeps (the bowl's state is inert, so each
        # step starts from initial_state), it gives the same bits.  With the
        # prefetch engaged the replay carries each next step's first draw, and the
        # deadline-stopped run carries none.
        if prefetches:
            engage_prefetch(monkeypatch)
        timed = quick_config(n_candidates=16, horizon=6, deadline=0.012, max_iterations=10**6)
        sleeping, env = sleeping_env(0.0005), make_env("quadratic_bowl")
        got = episode(sleeping, timed, variant, steps=6)
        counts = [result.iterations for result, _ in got]
        assert max(counts) >= 2 and all(state.carry is None for _, state in got)
        replayed, prev = [], None
        for step, iterations in enumerate(counts):
            config = replace(timed, deadline=math.inf, max_iterations=iterations)
            replayed.append(solve(env, env.initial_state, config, variant=variant, prev=prev, seed=9, step=step))
            prev = replayed[-1][1]
            assert (prev.carry is not None) == prefetches
        assert_same_episode(replayed, got)

    @pytest.mark.parametrize(
        "variant, penalty",
        [(v, 1e4) for v in VARIANTS] + [(v, 1e22) for v in VARIANTS],
        ids=[*VARIANTS, *(f"{v}-penalty_1e22" for v in VARIANTS)],
    )
    def test_diverged_candidates_rank_below_finite(self, variant, penalty):
        # a diverged rollout must cost more than any finite one, even one
        # that violates the constraint at every step, also where the finite
        # cost is so large that NONFINITE_PENALTY rounds away beside it
        env = replace(diverging_env(), constraint_penalty=penalty)
        config = quick_config(horizon=4, max_iterations=20)
        result, _ = solve(env, env.initial_state, config, variant=variant, seed=0)
        finite_cost = config.horizon * DIVERGING_VIOLATION * penalty
        assert result.nonfinite_candidates > 0
        assert result.best_cost == pytest.approx(finite_cost)
        assert result.u[0] < 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_candidate_diverged_reads_inf(self, variant):
        # with no finite cost in a batch, its entry read the penalty price, 0 + NONFINITE_PENALTY
        env = replace(make_env("quadratic_bowl"), stage_cost=lambda x, u: np.full(x.shape[0], np.inf))
        config = quick_config(max_iterations=3)
        result, _ = solve(env, env.initial_state, config, variant=variant, seed=0)
        assert result.nonfinite_candidates == 3 * config.n_candidates
        assert result.cost_trace == (math.inf,) * 3
        assert result.best_cost == math.inf

    def test_sigma_floor_maintained_all_variants(self):
        env = make_env("quadratic_bowl")
        for variant in ("forward", "reverse", "reject", "accel"):
            config = quick_config(max_iterations=30, horizon=1)
            _, state = solve(env, env.initial_state, config, variant=variant, seed=5)
            assert np.all(state.theta_plus.sigma >= SIGMA_FLOOR)
            assert np.all(state.theta_minus.sigma >= SIGMA_FLOOR)

    def test_warm_start_chains_steps(self):
        env = make_env("point_reacher")
        config = quick_config(horizon=6, max_iterations=5, alpha=0.3, eta=0.5)
        state = None
        x = env.initial_state
        for step in range(3):
            result, state = solve(env, x, config, variant="accel", prev=state, seed=9, step=step)
            x = env.dynamics(x.reshape(1, -1), result.u.reshape(1, -1))[0]
        assert result.iterations == config.max_iterations
        assert state.a_i > config.alpha

    @pytest.mark.parametrize(
        "env_name, horizon, expected",
        [("point_reacher", 4, r"\(2, 4\)"), ("quadratic_bowl", 6, r"\(1, 6\)")],
        ids=["action_dim", "horizon"],
    )
    def test_prev_of_wrong_shape_rejected(self, env_name, horizon, expected):
        bowl = make_env("quadratic_bowl")
        _, state = solve(bowl, bowl.initial_state, quick_config(max_iterations=2))
        env = make_env(env_name)
        with pytest.raises(ValueError, match=r"prev.theta_plus has shape \(1, 4\), expected " + expected):
            solve(env, env.initial_state, quick_config(horizon=horizon), prev=state, step=1)

    def test_prev_that_is_not_a_solver_state_rejected(self):
        # the ControlResult, or a (mu, sigma) pair, raised AttributeError: ... has no attribute 'mu'
        env = make_env("quadratic_bowl")
        config = quick_config(max_iterations=2)
        result, state = solve(env, env.initial_state, config)
        for prev in (result, (state.mu, state.sigma)):
            with pytest.raises(TypeError, match=f"prev must be a SolverState .*, got {type(prev).__name__}"):
                solve(env, env.initial_state, config, prev=prev, step=1)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: SolverConfig(weights={"backend": "mppi"}), "weights must be a WeightConfig, got dict"),
            (
                lambda: run_experiment(ExperimentConfig(env="quadratic_bowl", solver={"n_candidates": 4}, episode_steps=1)),
                "solver must be a SolverConfig, got dict",
            ),
            (lambda: solve("pendulum_swingup", np.zeros(2), SolverConfig()), r"env must be an EnvSpec .*, got str"),
            (lambda: solve(make_env("quadratic_bowl"), np.zeros(2), None), "config must be a SolverConfig, got NoneType"),
        ],
        ids=["weights_dict", "experiment_solver_dict", "env_name", "config_none"],
    )
    def test_argument_of_the_wrong_type_rejected_naming_it(self, call, match):
        # each raised AttributeError from deep inside, such as "'dict' object has no attribute 'quantile'"
        with pytest.raises(TypeError, match=match):
            call()

    @pytest.mark.parametrize("name", ["mu", "sigma", "tilde_mu", "tilde_sigma"])
    def test_every_stored_array_of_prev_checked(self, name):
        env = make_env("quadratic_bowl")
        config = quick_config(max_iterations=2)
        _, state = solve(env, env.initial_state, config)
        side = "theta_tilde_plus" if name.startswith("tilde") else "theta_plus"
        message = rf"prev.{side} has shape \(1, 3\), expected \(1, 4\) \(prev.{name}: \(2, 1, 3\), not \(2, 1, 4\)\)"
        with pytest.raises(ValueError, match=message):
            solve(env, env.initial_state, config, prev=replace(state, **{name: getattr(state, name)[..., :3]}), step=1)
        with pytest.raises(ValueError, match=rf"\(prev.{name}: \(1, 4\), not \(2, 1, 4\)\)"):
            solve(env, env.initial_state, config, prev=replace(state, **{name: getattr(state, name)[0]}), step=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_positive_update_means_c_plus_stayed_empty(self, variant):
        bowl = make_env("quadratic_bowl")
        result, _ = solve(bowl, bowl.initial_state, quick_config(max_iterations=3), variant=variant)
        assert not result.no_positive_update

        def zeros(x, u=None):
            return np.zeros(x.shape[0])

        flat = replace(bowl, stage_cost=zeros, terminal_cost=zeros, constraint_penalty=0.0)
        result, _ = solve(flat, flat.initial_state, quick_config(max_iterations=3), variant=variant)
        # equal costs give lnH = 0, so C+ stays empty; forward's weights always sum to N
        assert result.no_positive_update == (variant != "forward")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "name, side, value",
        [("sigma", 0, math.nan), ("sigma", 1, math.nan), ("sigma", 0, 0.0), ("sigma", 1, -1.0),
         ("mu", 1, math.inf), ("tilde_mu", 0, math.nan), ("tilde_sigma", 1, 0.0)],
        ids=["sigma_plus_nan", "sigma_minus_nan", "sigma_zero", "sigma_negative", "mu_inf", "tilde_mu_nan",
             "tilde_sigma_zero"],
    )
    def test_nonfinite_or_sub_floor_prev_rejected(self, variant, name, side, value):
        env = make_env("quadratic_bowl")
        config = quick_config(n_candidates=8, max_iterations=2)
        _, state = solve(env, env.initial_state, config, variant=variant)
        bad = getattr(state, name).copy()
        bad[side, 0, 2] = value
        rule = "finite and >= 1e-06" if name.endswith("sigma") else "finite$"
        with pytest.raises(ValueError, match=rf"^prev\.{name} must be {rule}"):
            solve(env, env.initial_state, config, variant=variant, prev=replace(state, **{name: bad}), step=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("eta", [0.25, 1.0])
    @pytest.mark.parametrize("a_i", [math.nan, math.inf, -math.inf, -1.0])
    def test_nonfinite_or_negative_prev_a_i_rejected(self, variant, eta, a_i):
        env = make_env("quadratic_bowl")
        config = quick_config(n_candidates=8, max_iterations=2, eta=eta)
        _, state = solve(env, env.initial_state, config, variant=variant)
        with pytest.raises(ValueError, match=rf"^prev\.a_i must be finite and >= 0, got {a_i}$"):
            solve(env, env.initial_state, config, variant=variant, prev=replace(state, a_i=a_i), step=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prev_a_i_whose_warm_accumulator_overflows_rejected(self, variant):
        env = make_env("quadratic_bowl")
        config = quick_config(n_candidates=8, max_iterations=2)
        _, state = solve(env, env.initial_state, config, variant=variant)
        with pytest.raises(ValueError, match=r"^prev\.a_i = 1e\+300 is too large: the warm-started A_1 overflows"):
            solve(env, env.initial_state, config, variant=variant, prev=replace(state, a_i=1e300), step=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_prev_a_i(self, variant):
        # A hand-built state keeps the default a_i = 0.  At eta = 1 the warm
        # start copies it into a1, and accel's schedule cannot step from 0, so
        # accel rejects it; the other variants never step by a_i and run.
        env = make_env("quadratic_bowl")
        config = quick_config(n_candidates=8, max_iterations=2, eta=1.0)
        _, state = solve(env, env.initial_state, config, variant=variant)
        hand_built = SolverState(state.mu, state.sigma, state.tilde_mu, state.tilde_sigma)
        assert hand_built.a_i == 0.0
        if variant == "accel":
            with pytest.raises(ValueError, match=r"^prev\.a_i = 0 at eta = 1 gives accel a first step size of 0"):
                solve(env, env.initial_state, config, variant=variant, prev=hand_built, step=1)
        else:
            result, out = solve(env, env.initial_state, config, variant=variant, prev=hand_built, step=1)
            assert result.iterations == 2 and out.a_i == 0.0
        # below eta = 1 the warm start blends in alpha, so every variant runs
        result, out = solve(env, env.initial_state, replace(config, eta=0.5), variant=variant, prev=hand_built, step=1)
        assert result.iterations == 2 and out.a_i > 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "name, value",
        [("mu", math.nextafter(PREV_CEILING, math.inf)), ("mu", -math.nextafter(PREV_CEILING, math.inf)),
         ("sigma", math.nextafter(PREV_CEILING, math.inf)), ("mu", 1e200), ("sigma", 1e120)],
        ids=["mu_above", "mu_below", "sigma_above", "mu_1e200", "sigma_1e120"],
    )
    def test_prev_beyond_the_ceiling_rejected(self, variant, name, value):
        # from mu = 1e200 or sigma = 1e120 the updates overflowed inside solve
        env = make_env("point_reacher")
        config = quick_config(n_candidates=16, horizon=6, max_iterations=4)
        _, state = solve(env, env.initial_state, config, variant=variant)
        bad = getattr(state, name).copy()
        bad[1, 0, 2] = value
        message = f"prev.{name} must be within +-1e+50, got a value of magnitude {abs(value):g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(env, env.initial_state, config, variant=variant, prev=replace(state, **{name: bad}), step=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0])
    def test_episode_from_the_ceiling_accepts_every_state_it_returns(self, variant, eta):
        # An update may step past the ceiling (reject from |mu| = 1e50, sigma = 1e-6
        # reached sigma of about 1e66 on pendulum_swingup); solve clips what it returns.
        config = SolverConfig(n_candidates=16, horizon=6, max_iterations=4, eta=eta)
        for env_name in ("point_reacher", "pendulum_swingup"):
            env = make_env(env_name)
            shape = (2, env.action_dim, config.horizon)
            for mu, sigma in [(PREV_CEILING, PREV_CEILING), (-PREV_CEILING, SIGMA_FLOOR), (0.0, PREV_CEILING)]:
                state = SolverState(np.full(shape, mu), np.full(shape, sigma), np.full(shape, mu), np.full(shape, sigma),
                                    a_i=config.alpha, A_i=config.alpha)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for step in range(3):
                        result, state = solve(env, env.initial_state, config, variant=variant, prev=state, step=step)
                        assert np.isfinite(result.u).all()
                assert np.abs(state.mu).max() <= PREV_CEILING and state.sigma.max() <= PREV_CEILING

    def test_accel_at_costs_near_the_float_max(self):
        # J.sum() in noise_strength overflowed, s came out NaN, and solve raised "mu must be finite"
        bowl = make_env("quadratic_bowl")
        env = replace(bowl, stage_cost=lambda x, u: 1e307 * u[:, 0] ** 2)
        config = SolverConfig(n_candidates=32, horizon=4, max_iterations=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = solve(env, env.initial_state, config, variant="accel")
        assert result.iterations == 4 and 0.0 <= result.noise_strength_final <= 1.0
        assert math.isfinite(result.best_cost)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tiny_temperature(self, variant):
        # (J - min J) / 1e-320 overflowed in the MPPI weights; exp(-inf) = 0 was already the right weight
        env = make_env("pendulum_swingup")
        config = SolverConfig(n_candidates=32, horizon=12, max_iterations=4, weights=WeightConfig(temperature=1e-320))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, state = solve(env, env.initial_state, config, variant=variant)
        assert result.iterations == 4 and np.isfinite(result.u).all()

    def test_side_accessors_return_frozen_copies(self):
        env = make_env("point_reacher")
        _, state = solve(env, env.initial_state, quick_config(max_iterations=3))
        stored = [a.copy() for a in (state.mu, state.sigma, state.tilde_mu, state.tilde_sigma)]
        for name in ("theta_plus", "theta_minus", "theta_tilde_plus", "theta_tilde_minus"):
            params = getattr(state, name)
            assert isinstance(params, PolicyParams) and params.mu.shape == (2, 4)
            with pytest.raises(ValueError, match="read-only"):
                params.mu[0, 0] = 5.0
            for array in (params.mu, params.sigma):
                array.setflags(write=True)  # the accessor's own copy, so even a forced write
                array[...] = 7.0  # does not reach the state
        now = (state.mu, state.sigma, state.tilde_mu, state.tilde_sigma)
        assert all(np.array_equal(a, b) for a, b in zip(now, stored))

    @pytest.mark.parametrize(
        "x_t, shape",
        [(3.14, r"\(\)"), (np.zeros(3), r"\(3,\)"), (np.array([np.nan, 0.0]), r"\(2,\)")],
        ids=["scalar", "length", "nan"],
    )
    def test_x_t_of_wrong_shape_or_nonfinite_rejected(self, x_t, shape):
        env = make_env("pendulum_swingup")
        with pytest.raises(ValueError, match=r"x_t must be finite with shape \(2,\), got shape " + shape):
            solve(env, x_t, quick_config(max_iterations=2))

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"step": -1}], ids=["seed", "step"])
    def test_negative_seed_or_step_rejected(self, kwargs):
        env = make_env("quadratic_bowl")
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"seed and step must be >= 0, got .*{name}={value}"):
            solve(env, env.initial_state, quick_config(max_iterations=2), **kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"step": 2.5}, "step must be an integer, got 2.5"), ({"seed": 1.5}, "seed must be an integer, got 1.5"),
         ({"seed": "3"}, "seed must be an integer, got '3'")],
        ids=["step_float", "seed_float", "seed_str"],
    )
    def test_non_integer_seed_or_step_rejected(self, kwargs, match):
        env = make_env("quadratic_bowl")
        with pytest.raises(ValueError, match=match):
            solve(env, env.initial_state, quick_config(max_iterations=2), **kwargs)

    def test_numpy_integer_seed_and_step_accepted(self):
        env = make_env("quadratic_bowl")
        config = quick_config(max_iterations=2)
        got, _ = solve(env, env.initial_state, config, seed=np.int64(3), step=np.int64(1))
        want, _ = solve(env, env.initial_state, config, seed=3, step=1)
        assert np.array_equal(got.u, want.u) and got.cost_trace == want.cost_trace

    @pytest.mark.parametrize("deadline", [math.nan, -1.0])
    def test_nan_or_negative_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline must be >= 0"):
            SolverConfig(deadline=deadline)

    @pytest.mark.parametrize(
        "config_cls, kwargs, match",
        [
            (SolverConfig, {"gamma": math.nan}, "gamma and kappa must be >= 0"),
            (SolverConfig, {"gamma": math.inf}, r"5 \* gamma must be finite"),
            (SolverConfig, {"gamma": 1e308}, r"5 \* gamma must be finite"),
            (SolverConfig, {"kappa": math.nan}, "gamma and kappa must be >= 0"),
            (WeightConfig, {"temperature": math.nan}, "temperature must be > 0"),
            (WeightConfig, {"temperature": math.inf}, "temperature must be > 0 and finite, got temperature=inf"),
            (SolverConfig, {"n_candidates": 1}, "n_candidates >= 2"),
            (SolverConfig, {"n_candidates": 16, "n_oversample": 15}, "n_oversample must be >= n_candidates"),
            (SolverConfig, {"gamma": -0.1}, "gamma and kappa must be >= 0"),
            (SolverConfig, {"kappa": -1.0}, "gamma and kappa must be >= 0"),
            (SolverConfig, {"eta": -0.1}, r"eta must be in \[0, 1\]"),
            (SolverConfig, {"eta": 1.5}, r"eta must be in \[0, 1\]"),
            (SolverConfig, {"horizon": 0}, "horizon and max_iterations must be >= 1"),
            (SolverConfig, {"max_iterations": 0}, "horizon and max_iterations must be >= 1"),
            (SolverConfig, {"n_candidates": 8.5}, "n_candidates must be an integer, got 8.5"),
            (SolverConfig, {"n_oversample": 20.5}, "n_oversample must be an integer, got 20.5"),
            (SolverConfig, {"horizon": 3.0}, "horizon must be an integer, got 3.0"),
            (SolverConfig, {"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
        ],
        ids=[
            "gamma_nan", "gamma_inf", "gamma_overflows_the_step", "kappa_nan", "temperature_nan", "temperature_inf",
            "one_candidate", "oversample_below_n",
            "gamma_negative", "kappa_negative", "eta_negative", "eta_above_one", "horizon_zero", "iterations_zero",
            "candidates_float", "oversample_float", "horizon_float", "iterations_float",
        ],
    )
    def test_nan_or_out_of_range_setting_rejected(self, config_cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            config_cls(**kwargs)

    def test_numpy_integer_sizes_accepted(self):
        sizes = dict(n_candidates=np.int64(8), n_oversample=np.int64(20), horizon=np.int64(3), max_iterations=np.int64(2))
        assert SolverConfig(**sizes).n_candidates == 8

    @pytest.mark.parametrize(
        "make, name, integer",
        [(SolverConfig, "alpha", 1), (SolverConfig, "gamma", 2), (SolverConfig, "eta", 0), (SolverConfig, "kappa", 3),
         (SolverConfig, "deadline", 1), (WeightConfig, "quantile", None), (WeightConfig, "temperature", 2),
         (WeightConfig, "beta", 1), (lambda **kw: replace(make_env("quadratic_bowl"), **kw), "constraint_penalty", 100)],
        ids=["alpha", "gamma", "eta", "kappa", "deadline", "quantile", "temperature", "beta", "constraint_penalty"],
    )
    def test_real_settings_checked_by_name(self, make, name, integer):
        # a str used to fail a range check with a bare TypeError, and True to be taken as 1
        for bad in ("0.1", True):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {bad!r}")):
                make(**{name: bad})
        for good in (np.float64(0.5), integer):  # no integer lies in quantile's (0, 1)
            if good is not None:
                assert getattr(make(**{name: good}), name) == good

    @pytest.mark.parametrize("name", ["n_candidates", "n_oversample", "horizon", "max_iterations"])
    def test_bool_size_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            SolverConfig(**{name: True})

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"seed": True}, "seed must be an integer, got True"), ({"step": False}, "step must be an integer, got False"),
         ({"seed": True, "step": False}, "seed must be an integer, got True")],
        ids=["seed", "step", "both"],
    )
    def test_bool_seed_or_step_rejected(self, kwargs, match):
        env = make_env("quadratic_bowl")
        with pytest.raises(ValueError, match=match):
            solve(env, env.initial_state, quick_config(max_iterations=2), **kwargs)

    def test_infinite_kappa_rejected(self):
        # every selection score would be -inf, and the Gumbel top-N would keep
        # whichever tied indices the partition returns instead of a uniform pick
        with pytest.raises(ValueError, match="kappa must be finite, got kappa=inf"):
            SolverConfig(kappa=math.inf)

    @pytest.mark.parametrize("low, high", [(-1.7, 2.3), (-2.3, 1.7), (-2.1, 1.9), (-1.9, 2.1)])
    def test_actions_stay_in_bounds_once_the_mean_saturates(self, low, high):
        # At eta = 0.75 accel drives the swing-up's mean past |u| = 19, where tanh
        # rounds to +-1; without the squash's clamp, seed 0 returned actions one ulp
        # outside the first two bound pairs from step 8 on (-1.7000000000000002).
        env = replace(make_env("pendulum_swingup"), action_low=np.array([low]), action_high=np.array([high]))
        config = SolverConfig(n_candidates=32, n_oversample=128, horizon=12, max_iterations=48, eta=0.75)
        x, state = env.initial_state, None
        for step in range(15):
            result, state = solve(env, x, config, variant="accel", prev=state, seed=0, step=step)
            assert low <= result.u[0] <= high, (step, result.u[0])
            x = env.dynamics(x[None], result.u[None])[0]


def engage_prefetch(monkeypatch):
    """Prefetch the draws of every solve, whatever their size."""
    monkeypatch.setattr(solvers, "PREFETCH_MIN_NORMALS", 0)


@pytest.fixture
def draws_made(monkeypatch):
    """(thread name, step, iteration) of every iteration Generator made, in order."""
    made = []
    original = solvers._iteration_rng

    def recording(seed, step, iteration):
        made.append((threading.current_thread().name, step, iteration))
        return original(seed, step, iteration)

    monkeypatch.setattr(solvers, "_iteration_rng", recording)
    return made


def call_within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs) on a helper thread joined with a timeout, so that a
    lost hand-off fails the test instead of hanging it; fn's exception is raised
    again here."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # raised again below, on the test's thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)  # a hung one must not hold up the exit
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"no result in {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def episode(env, config, variant, steps=4, seed=9):
    """(result, state) of each step of a warm-started closed-loop episode."""
    out, state, x = [], None, env.initial_state
    for step in range(steps):
        result, state = solve(env, x, config, variant=variant, prev=state, seed=seed, step=step)
        out.append((result, state))
        x = env.dynamics(x.reshape(1, -1), result.u.reshape(1, -1))[0]
    return out


def assert_same_episode(got, want):
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint8)

    for (r, s), (r0, s0) in zip(got, want, strict=True):
        assert np.array_equal(bits(r.u), bits(r0.u))
        assert (r.iterations, r.best_cost, r.cost_trace, r.noise_strength_final, r.nonfinite_candidates) == (
            r0.iterations, r0.best_cost, r0.cost_trace, r0.noise_strength_final, r0.nonfinite_candidates)
        for name in ("mu", "sigma", "tilde_mu", "tilde_sigma"):
            assert np.array_equal(bits(getattr(s, name)), bits(getattr(s0, name))), name
        assert (s.a_i, s.A_i, s.sigma_max_running) == (s0.a_i, s0.A_i, s0.sigma_max_running)


class TestPrefetch:
    """Drawing the next iteration's normals and Gumbel keys on a worker thread."""

    trap = SolverConfig(n_candidates=1024, n_oversample=4096, horizon=50)

    def test_import_starts_no_thread_and_loads_no_executor(self):
        # a fresh interpreter: importing rkmpc leaves the prefetch module,
        # concurrent.futures and queue unloaded, and the main thread alone
        code = (
            "import sys, threading, rkmpc; "
            "assert threading.active_count() == 1; "
            "assert not {'concurrent.futures', 'queue', 'rkmpc.prefetch'} & set(sys.modules), sys.modules.keys()"
        )
        src = Path(rkmpc.__file__).resolve().parent.parent
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)

    def test_engages_only_for_large_draws(self):
        # the normals a variant draws per iteration: n_oversample * A * H for
        # reject and accel, n_candidates * A * H for forward and reverse
        trap = self.trap
        assert all(solvers._prefetches(variant, trap, 2) for variant in VARIANTS)
        few = replace(trap, n_candidates=256)
        assert solvers._prefetches("reject", few, 1) and solvers._prefetches("accel", few, 1)
        assert not solvers._prefetches("forward", few, 1) and not solvers._prefetches("reverse", few, 1)
        swingup = SolverConfig(n_candidates=32, n_oversample=128, horizon=12)
        assert not any(solvers._prefetches(variant, swingup, 1) for variant in VARIANTS)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_swingup_shape_draws_on_the_calling_thread(self, variant, draws_made):
        env = make_env("pendulum_swingup")
        config = SolverConfig(n_candidates=32, n_oversample=128, horizon=12, max_iterations=3)
        solve(env, env.initial_state, config, variant=variant)
        assert draws_made == [("MainThread", 0, k) for k in (1, 2, 3)]

    def test_engages_whatever_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert solvers._prefetches("reject", self.trap, 1)

    def test_prefetches_in_a_process_pinned_to_one_cpu(self):
        # a fresh interpreter pinned to one CPU: a warm-started reject episode
        # draws on the worker, keeps the serial bits and leaves no thread behind
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available on this platform")
        code = textwrap.dedent(
            """
            import os, threading
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            assert len(os.sched_getaffinity(0)) == 1
            from rkmpc import solvers
            from rkmpc.envs import make_env
            from test_solvers import assert_same_episode, episode, quick_config

            env, config = make_env("point_reacher"), quick_config(horizon=6, max_iterations=5, alpha=0.3, eta=0.5)
            serial = episode(env, config, "reject")
            made, original = [], solvers._iteration_rng
            solvers._iteration_rng = lambda *key: made.append(threading.current_thread().name) or original(*key)
            solvers.PREFETCH_MIN_NORMALS = 0
            before = threading.enumerate()
            assert_same_episode(episode(env, config, "reject"), serial)
            assert "rkmpc-prefetch" in made, made
            assert threading.enumerate() == before, threading.enumerate()
            """
        )
        path = os.pathsep.join([str(Path(rkmpc.__file__).resolve().parent.parent), str(Path(__file__).parent)])
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)

    def test_drawn_serves_only_the_shapes_it_was_drawn_at(self):
        drawn = Drawn(np.zeros((8, 1, 4)), np.zeros(8))
        assert drawn.standard_normal((8, 1, 4)) is drawn.normals and drawn.gumbel(size=8) is drawn.keys
        with pytest.raises(ValueError, match=r"a draw of size \(8, 1, 5\) asked of one made at \(8, 1, 4\)"):
            drawn.standard_normal((8, 1, 5))
        with pytest.raises(ValueError, match=r"a draw of size \(4,\) asked of one made at \(8,\)"):
            drawn.gumbel(size=4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_identical_to_serial_over_a_warm_started_episode(self, variant, monkeypatch, draws_made):
        env = make_env("point_reacher")
        config = quick_config(horizon=6, max_iterations=5, alpha=0.3, eta=0.5)
        serial = episode(env, config, variant)
        assert {name for name, _, _ in draws_made} == {"MainThread"}
        engage_prefetch(monkeypatch)
        draws_made.clear()
        assert_same_episode(episode(env, config, variant), serial)
        # step 0's iteration 1 on the calling thread; the worker draws each step's
        # iterations 2..5 and then, during iteration 5, the next step's iteration 1
        assert [(s, k) for name, s, k in draws_made if name == "MainThread"] == [(0, 1)]
        on_worker = [(s, k) for name, s, k in draws_made if name == "rkmpc-prefetch"]
        assert on_worker == [key for s in range(4) for key in ((s, 2), (s, 3), (s, 4), (s, 5), (s + 1, 1))]

    def test_concurrent_solves_keep_their_bits(self, monkeypatch):
        # three episodes at once, each solve with its own worker: six threads
        # on the machine's cores, switching every 10 us
        env = make_env("point_reacher")
        config = quick_config(horizon=6, max_iterations=5)
        want = episode(env, config, "accel")
        engage_prefetch(monkeypatch)
        got = [None] * 3

        def run(k):
            got[k] = episode(env, config, "accel")

        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(3):
            assert_same_episode(got[k], want)

    @pytest.mark.parametrize("variant", ["reject", "accel"])
    def test_no_thread_outlives_solve(self, variant, monkeypatch, draws_made):
        engage_prefetch(monkeypatch)
        env = make_env("quadratic_bowl")
        config = quick_config(horizon=4, max_iterations=6)
        before = threading.enumerate()
        call_within(30, solve, env, env.initial_state, config, variant=variant)
        assert threading.enumerate() == before
        assert ("rkmpc-prefetch", 0, 6) in draws_made

        calls = []

        def dynamics(x, u):  # fails in the first step of iteration 3's rollout
            calls.append(None)
            if len(calls) > 2 * config.horizon:
                raise RuntimeError("rollout failed")
            return x

        draws_made.clear()
        with pytest.raises(RuntimeError, match="rollout failed"):
            call_within(30, solve, replace(env, dynamics=dynamics), env.initial_state, config, variant=variant)
        assert threading.enumerate() == before
        assert draws_made[-1] == ("rkmpc-prefetch", 0, 4)  # requested before iteration 3 rolled out

        # mid-episode: step 1 takes step 0's carry and fails in its last
        # iteration's rollout, after the worker drew step 2's iteration 1
        _, prev = solve(env, env.initial_state, config, variant=variant, seed=9)
        calls.clear()
        draws_made.clear()
        with pytest.raises(RuntimeError, match="rollout failed"):
            call_within(30, solve, replace(env, dynamics=dynamics), env.initial_state,
                        replace(config, max_iterations=3), variant=variant, prev=prev, seed=9, step=1)
        assert threading.enumerate() == before
        assert draws_made == [("rkmpc-prefetch", 1, 2), ("rkmpc-prefetch", 1, 3), ("rkmpc-prefetch", 2, 1)]
        # the failed solve took the carry: solving step 1 again draws iteration 1 itself
        draws_made.clear()
        solve(env, env.initial_state, config, variant=variant, prev=prev, seed=9, step=1)
        assert ("MainThread", 1, 1) in draws_made
        assert threading.enumerate() == before

    @pytest.mark.parametrize("variant", ["reject", "accel"])
    def test_exception_in_a_draw_reaches_the_caller(self, variant, monkeypatch):
        engage_prefetch(monkeypatch)
        error = MemoryError("draw failed")
        original = solvers._iteration_rng

        def failing(seed, step, iteration):
            if iteration == 3 and threading.current_thread().name == "rkmpc-prefetch":
                raise error
            return original(seed, step, iteration)

        monkeypatch.setattr(solvers, "_iteration_rng", failing)
        env = make_env("quadratic_bowl")
        before = threading.enumerate()
        with pytest.raises(MemoryError) as caught:
            call_within(30, solve, env, env.initial_state, quick_config(max_iterations=5), variant=variant)
        assert caught.value is error
        assert threading.enumerate() == before

    @pytest.mark.parametrize("deadline", [0.0, 0.005, 0.05])
    def test_deadline_contract_with_sleeping_rollouts(self, deadline, monkeypatch, draws_made):
        engage_prefetch(monkeypatch)
        check_deadline_contract(deadline)
        on_worker = [k for name, _, k in draws_made if name == "rkmpc-prefetch"]
        # the first iteration gives the deadline check its first estimate, so
        # iteration 2 is never drawn ahead under a finite deadline
        if deadline < 0.05:
            assert on_worker == []
        else:
            assert on_worker[0] == 3

    @staticmethod
    def step_pair(monkeypatch, variant, config):
        """(env, serial, prev) on point_reacher: step 1's (result, state) at seed 9,
        solved serially from step 0's serial state, and step 0's state solved
        with the prefetch engaged, which carries step 1's first draw."""
        env = make_env("point_reacher")
        _, serial_prev = solve(env, env.initial_state, config, variant=variant, seed=9)
        serial = solve(env, env.initial_state, config, variant=variant, prev=serial_prev, seed=9, step=1)
        engage_prefetch(monkeypatch)
        _, prev = solve(env, env.initial_state, config, variant=variant, seed=9)
        assert prev.carry is not None
        return env, serial, prev

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_prev_solved_twice_gives_the_same_bits(self, variant, monkeypatch, draws_made):
        config = quick_config(horizon=6, max_iterations=3)
        env, serial, prev = self.step_pair(monkeypatch, variant, config)
        for drawn_on in ([], ["MainThread"]):  # the first solve takes the carry, the second draws iteration 1 itself
            draws_made.clear()
            got = solve(env, env.initial_state, config, variant=variant, prev=prev, seed=9, step=1)
            assert_same_episode([got], [serial])
            assert [name for name, s, k in draws_made if (s, k) == (1, 1)] == drawn_on

    @pytest.mark.parametrize(
        "seed, step, n_oversample, variant",
        [(10, 1, 32, "reject"), (9, 2, 32, "reject"), (9, 1, 64, "reject"), (9, 1, 32, "forward")],
        ids=["seed", "skipped-step", "shape", "variant"],
    )
    def test_prev_carrying_another_draw_draws_iteration_1_itself(
        self, seed, step, n_oversample, variant, monkeypatch, draws_made
    ):
        # prev carries reject's draw for seed 9, step 1 at n_oversample = N: the
        # shape forward draws too, but with keys where forward draws none
        env, config = make_env("point_reacher"), quick_config(horizon=6, max_iterations=3, n_oversample=32)
        asked = replace(config, n_oversample=n_oversample)
        _, serial_prev = solve(env, env.initial_state, config, variant="reject", seed=9)
        serial = solve(env, env.initial_state, asked, variant=variant, prev=serial_prev, seed=seed, step=step)
        engage_prefetch(monkeypatch)
        _, prev = solve(env, env.initial_state, config, variant="reject", seed=9)
        draws_made.clear()
        got = solve(env, env.initial_state, asked, variant=variant, prev=prev, seed=seed, step=step)
        assert_same_episode([got], [serial])
        assert ("MainThread", step, 1) in draws_made
        assert prev.carry.take(prev.carry.key) is not None  # still there for the solve it was drawn for

    def test_deadline_stopped_solve_carries_nothing(self, monkeypatch, draws_made):
        engage_prefetch(monkeypatch)
        before = threading.enumerate()
        env = sleeping_env(0.002)
        config = quick_config(horizon=3, deadline=0.05, max_iterations=10**6)
        result, state = solve(env, env.initial_state, config, variant="accel")
        assert result.iterations < config.max_iterations and state.carry is None
        # a solve that reaches max_iterations carries only if the look-ahead test
        # passes there: never at deadline 0, where mean_t is still infinite
        result, state = solve(env, env.initial_state, replace(config, deadline=0.0, max_iterations=1), variant="accel")
        assert result.iterations == 1 and state.carry is None
        assert {s for _, s, _ in draws_made} == {0}
        result, state = solve(env, env.initial_state, replace(config, deadline=10.0, max_iterations=3), variant="accel")
        assert result.iterations == 3 and state.carry is not None
        assert draws_made[-1] == ("rkmpc-prefetch", 1, 1)
        # every solve joined its worker, the one that asked nothing ahead included
        assert threading.enumerate() == before

    def test_threads_solving_from_one_prev_get_the_serial_bits(self, monkeypatch, draws_made):
        # four solves from one prev at once, each with its own worker: eight
        # threads on the machine's cores, switching every 10 us
        config = quick_config(horizon=6, max_iterations=3)
        env, serial, prev = self.step_pair(monkeypatch, "accel", config)
        draws_made.clear()
        barrier, got = threading.Barrier(4), [None] * 4

        def run(j):
            barrier.wait(timeout=30)
            got[j] = solve(env, env.initial_state, config, variant="accel", prev=prev, seed=9, step=1)

        threads = [threading.Thread(target=run, args=(j,)) for j in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert_same_episode(got, [serial] * 4)
        # one solve took the carried draw, the other three drew iteration 1 themselves
        assert len([name for name, s, k in draws_made if (s, k) == (1, 1)]) == 3

    def test_failed_carried_draw_is_dropped(self, monkeypatch, draws_made):
        config = quick_config(horizon=6, max_iterations=3)
        env, serial, _ = self.step_pair(monkeypatch, "reject", config)
        recording = solvers._iteration_rng

        def failing(seed, step, iteration):
            if (step, iteration) == (1, 1) and threading.current_thread().name == "rkmpc-prefetch":
                raise MemoryError("draw failed")
            return recording(seed, step, iteration)

        monkeypatch.setattr(solvers, "_iteration_rng", failing)
        _, prev = solve(env, env.initial_state, config, variant="reject", seed=9)
        assert prev.carry is None
        assert_same_episode([solve(env, env.initial_state, config, variant="reject", prev=prev, seed=9, step=1)], [serial])

    def test_state_equality_and_repr_ignore_the_carry(self, monkeypatch):
        _, _, state = self.step_pair(monkeypatch, "reject", quick_config(horizon=6, max_iterations=2))
        bare = replace(state, carry=None)
        assert state == bare
        assert repr(state) == repr(bare) and "carry" not in repr(state)
