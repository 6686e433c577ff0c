"""Property tests of the paper's identities over extreme scales (hypothesis)."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkmpc.envs import REGISTRY, make_env, rollout_batch
from rkmpc.policy import SIGMA_FLOOR, PolicyParams, _check_values, mirror_inverse, mirror_map, squash
from rkmpc.solvers import PREV_CEILING, VARIANTS, SolverConfig, SolverState, forward_update, noise_strength, solve
from rkmpc.weights import WeightConfig, forward_weights, signed_log_weights
from test_hot_paths import one_sided, ref_forward_update

MEANS = st.floats(-1e3, 1e3)
SCALES = st.floats(1e-6, 1e3)


def params_1d(mu, sigma):
    return PolicyParams(np.array([[mu]]), np.array([[sigma]]))


@settings(deadline=None)
@given(mu=MEANS, sigma=SCALES, mu_ref=MEANS, sigma_ref=SCALES)
def test_mirror_round_trip(mu, sigma, mu_ref, sigma_ref):
    ref, theta = params_1d(mu_ref, sigma_ref), params_1d(mu, sigma)
    back_mu, back_sigma = mirror_inverse(*mirror_map(theta.mu, theta.sigma, ref.sigma), ref.sigma)
    assert back_mu[0, 0] == pytest.approx(mu, rel=1e-9, abs=1e-12)
    assert back_sigma[0, 0] == pytest.approx(sigma, rel=1e-9)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@settings(deadline=None)
@given(
    mu=st.lists(MEANS, min_size=4, max_size=4),
    sigma=st.lists(SCALES, min_size=4, max_size=4),
    sigma_ref=st.lists(SCALES, min_size=4, max_size=4),
)
def test_side_stacked_mirror_round_trip_has_the_per_side_bits(mu, sigma, sigma_ref):
    # both policy sides, (2, A, H) = (2, 1, 2), against one (A, H) side at a time
    mu, sigma, sigma_ref = (np.reshape(x, (2, 1, 2)) for x in (mu, sigma, sigma_ref))
    stacked = mirror_inverse(*mirror_map(mu, sigma, sigma_ref), sigma_ref)
    for k in (0, 1):
        one = mirror_inverse(*mirror_map(mu[k], sigma[k], sigma_ref[k]), sigma_ref[k])
        assert same_bits(stacked[0][k], one[0]) and same_bits(stacked[1][k], one[1])


@settings(deadline=None)
@given(
    backend=st.sampled_from(["cem", "mppi"]),
    beta=st.floats(0.0, 1.0),
    quantile=st.floats(0.01, 0.99),
    offset=st.floats(-1e12, 1e12),
    log_spread=st.floats(-12.0, 12.0),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64),
)
# A subnormal beta makes beta * quantile underflow to 0; CEM still keeps one elite.
@example(backend="cem", beta=5e-324, quantile=0.5, offset=0.0, log_spread=0.0, unit=[0.0, 0.0])
def test_signed_weight_sum_at_extreme_cost_spreads(backend, beta, quantile, offset, log_spread, unit):
    J = offset + 10.0**log_spread * np.array(unit)
    config = WeightConfig(backend=backend, quantile=quantile, beta=beta)
    n = J.size
    assert signed_log_weights(J, config).sum() == pytest.approx((1.0 - beta) * n, abs=1e-9 * n)


@settings(deadline=None)
@given(
    temperature=st.one_of(st.floats(5e-324, 1e308), st.floats(-323.3, 308.0).map(lambda e: 10.0**e)),
    beta=st.floats(0.0, 1.0),
    J=st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-8.5e307, 8.5e307)), min_size=2, max_size=64),
)
# below temperature 1 the quotient (J - min J) / temperature overflowed before exp took it to 0
@example(temperature=1e-300, beta=1.0, J=[0.0, 1.0, 1e10])
@example(temperature=5e-324, beta=0.5, J=[0.0, 1.0, 1e10])
def test_mppi_weight_sums_at_any_temperature(temperature, beta, J):
    config = WeightConfig(temperature=temperature, beta=beta)
    n = len(J)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, lnH = forward_weights(J, config), signed_log_weights(J, config)
    assert np.isfinite(w).all() and np.isfinite(lnH).all()
    assert w.sum() == pytest.approx(n, rel=1e-12)
    assert lnH.sum() == pytest.approx((1.0 - beta) * n, abs=1e-9 * n)


# Offsets and spreads stay clear of subnormals, where scaling by a power of two loses
# bits; |J| stays below 8.5e307 + 10**307.9, about 1.64e308.
OFFSETS = st.one_of(st.just(0.0), st.floats(1e-50, 8.5e307), st.floats(-8.5e307, -1e-50))


@settings(deadline=None)
@given(
    offset=OFFSETS,
    log_spread=st.floats(-50.0, 307.9),
    unit=st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=64),
    log_running=st.floats(-50.0, 307.9),
    exponent=st.integers(-64, 64),
)
# costs near 1e234, as a rollout of x' = 1e3 x + u over 40 steps gives: the squares overflow
@example(offset=0.0, log_spread=234.0, unit=[0, 2**19, 2**20], log_running=0.0, exponent=0)
# J sums its squares as they are and c * J rescales them: the two must still agree bit for bit
@example(offset=0.0, log_spread=152.0, unit=[0, 2**18, 2**20], log_running=0.0, exponent=10)
# costs near the float max: J.sum() overflowed and s came out NaN
@example(offset=8.5e307, log_spread=307.9, unit=[-(2**20), 0, 2**20], log_running=0.0, exponent=0)
@example(offset=0.0, log_spread=307.9, unit=[-(2**20), 2**20, 2**20], log_running=307.9, exponent=-64)
# a finite sum of deviations at or past 2**1023: 2 ** frexp(sum) overflowed
@example(offset=0.0, log_spread=307.0, unit=[0, 17985], log_running=0.0, exponent=10)
def test_noise_strength_at_extreme_cost_spreads(offset, log_spread, unit, log_running, exponent):
    J = offset + 10.0**log_spread * (np.array(unit) / 2**20)
    running = 10.0**log_running
    c = 2.0 ** min(exponent, 1024 - math.frexp(max(np.abs(J).max(), running))[1])  # c * J stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, new_max = noise_strength(J, running)
        s_scaled, new_max_scaled = noise_strength(c * J, c * running)
    assert 0.0 <= s <= 1.0
    assert s_scaled == s and new_max_scaled == c * new_max


@settings(deadline=None)
@given(
    bad=st.sampled_from([-np.inf, np.inf, np.nan]),
    in_sigma=st.booleans(),
    index=st.tuples(st.integers(0, 1), st.integers(0, 2)),
    sigma_ref=SCALES,
)
def test_nonfinite_mirror_point_rejected(bad, in_sigma, index, sigma_ref):
    ref = PolicyParams(np.zeros((2, 3)), np.full((2, 3), sigma_ref))
    z_mu, z_sigma = mirror_map(ref.mu, ref.sigma, ref.sigma)
    (z_sigma if in_sigma else z_mu)[index] = bad
    with pytest.raises(ValueError, match="mirror point entries must be finite"):
        mirror_inverse(z_mu, z_sigma, ref.sigma)


EDGE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, SIGMA_FLOOR, math.nextafter(SIGMA_FLOOR, 0.0), 0.0]
# MEANS and SCALES make ordinary policies common: st.floats() and the edges alone
# made 1 to 10 valid policies in 100 examples, 0 to 5 of them with a scale in
# (1e-3, 1e3), in five seeded runs
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), MEANS, SCALES, st.floats())


@settings(deadline=None)
@given(
    mu=st.lists(VALUES, min_size=1, max_size=6),
    sigma=st.lists(VALUES, min_size=1, max_size=6),
    stacked=st.booleans(),
)
@example(mu=[1e308, -1e308], sigma=[1e308, SIGMA_FLOOR], stacked=True)  # huge but finite passes
@example(mu=[0.0], sigma=[math.nextafter(SIGMA_FLOOR, 0.0)], stacked=False)
@example(mu=[0.0, math.nan], sigma=[1.0], stacked=False)
@example(mu=[-math.inf], sigma=[1.0], stacked=True)
@example(mu=[0.0], sigma=[math.inf], stacked=False)
def test_value_rule_of_every_policy(mu, sigma, stacked):
    # mu finite; sigma finite and >= SIGMA_FLOOR; checked element by element here
    def array(values):
        return np.reshape(values, (1, 1, -1) if stacked else (1, -1))

    mu_ok = all(math.isfinite(v) for v in mu)
    sigma_ok = all(math.isfinite(v) and v >= SIGMA_FLOOR for v in sigma)
    if mu_ok and sigma_ok:
        _check_values(array(mu), array(sigma), "prev.")
    else:
        name = "mu must be finite$" if not mu_ok else f"sigma must be finite and >= {SIGMA_FLOOR}$"
        with pytest.raises(ValueError, match=rf"^prev\.{name}"):
            _check_values(array(mu), array(sigma), "prev.")


# Bounds of everyday size and up to 1e300, where high - low cannot overflow.
BOUNDS = st.tuples(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)),
                   st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))).filter(lambda pair: pair[0] != pair[1])
# tanh(u) rounds to +-1 from |u| of about 19 on: mid + half * tanh(u) then lands
# on a rounded mid +- half, one ulp past a bound where that rounds outside
SATURATED = st.one_of(st.floats(19.0, 50.0), st.floats(-50.0, -19.0))


@settings(deadline=None)
@given(
    bounds=st.lists(BOUNDS, min_size=1, max_size=3),
    u=st.lists(st.one_of(SATURATED, st.floats(-50.0, 50.0)), min_size=1, max_size=8),
)
# mid - half rounds below -1.7, then mid + half above 1.7; one dimension that
# needs the clamp beside one that does not; a value of +0.0 on a bound of -0.0
@example(bounds=[(-1.7, 2.3)], u=[-40.0, 40.0])
@example(bounds=[(-2.3, 1.7)], u=[-40.0, 40.0])
@example(bounds=[(-1.7, 2.3), (-2.0, 2.0)], u=[-50.0, 0.0, 50.0])
@example(bounds=[(-0.0, 1.0), (-1.0, -0.0)], u=[-50.0, 50.0])
def test_squash_lands_in_the_closed_bounds(bounds, u):
    low, high = (np.array([sorted(pair)[k] for pair in bounds]) for k in (0, 1))
    u_raw = np.tile(u, (len(bounds), 1))
    out = squash(u_raw, low, high)
    low, high = low[:, None], high[:, None]
    assert ((low <= out) & (out <= high)).all()
    # clamped or not, the bits of the clipped affine map; + 0.0 turns -0.0 into
    # +0.0 and keeps every other value, as numpy's clip loops differ on a zero's sign
    plain = 0.5 * (low + high) + 0.5 * (high - low) * np.tanh(u_raw)
    assert same_bits(out + 0.0, np.clip(plain, low, high) + 0.0)


CEILING_MEANS = st.one_of(MEANS, st.floats(-PREV_CEILING, PREV_CEILING), st.sampled_from([-PREV_CEILING, PREV_CEILING]))
CEILING_SCALES = st.one_of(SCALES, st.floats(SIGMA_FLOOR, PREV_CEILING), st.just(PREV_CEILING))


@settings(deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    mu=st.lists(CEILING_MEANS, min_size=16, max_size=16),
    sigma=st.lists(CEILING_SCALES, min_size=16, max_size=16),
    eta=st.floats(0.0, 1.0),
)
def test_solve_from_a_wide_prev_returns_a_finite_in_bounds_action(variant, mu, sigma, eta):
    # theta+- and the momentum points theta~+- of a point_reacher policy (A, H) = (2, 2),
    # up to the ceiling; the state returned is accepted as the next prev
    mu, sigma = np.reshape(mu, (2, 2, 2, 2)), np.reshape(sigma, (2, 2, 2, 2))
    config = SolverConfig(n_candidates=8, horizon=2, max_iterations=3, eta=eta)
    prev = SolverState(mu[0], sigma[0], mu[1], sigma[1], a_i=config.alpha, A_i=config.alpha)
    env = make_env("point_reacher")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result, state = solve(env, env.initial_state, config, variant=variant, prev=prev)
        solve(env, env.initial_state, config, variant=variant, prev=state, step=1)
    assert np.isfinite(result.u).all()
    assert ((env.action_low <= result.u) & (result.u <= env.action_high)).all()


@settings(deadline=None)
@given(
    n=st.integers(2, 4096),
    a=st.integers(1, 2),
    h=st.integers(1, 50),
    weight_kind=st.sampled_from(["sparse", "one_hot", "tiny"]),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
# A*H = 1 takes the broadcast branch, and so does a batch not in C order
@example(n=2, a=1, h=1, weight_kind="sparse", log_scale=0.0, seed=0, fortran=False)
@example(n=4096, a=1, h=1, weight_kind="tiny", log_scale=2.0, seed=1, fortran=False)
@example(n=4096, a=2, h=50, weight_kind="sparse", log_scale=0.0, seed=2, fortran=False)  # the forward workload's
@example(n=300, a=2, h=50, weight_kind="sparse", log_scale=0.0, seed=2, fortran=True)
@example(n=3, a=2, h=1, weight_kind="one_hot", log_scale=-3.0, seed=3, fortran=False)
def test_forward_update_has_the_broadcast_refits_bits(n, a, h, weight_kind, log_scale, seed, fortran):
    # the einsum refit adds the rows in order, as (wc * u).sum(axis=0) does, so
    # every value has the reference's bits (+ 0.0 compares zeros by value); a
    # numpy whose einsum fused the multiply-add would fail here
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 10.0**log_scale, (n, a, h))
    if fortran:
        u = np.asfortranarray(u)
    if weight_kind == "sparse":  # about a third of the weights zero
        w = rng.exponential(1.0, n) * (rng.random(n) < 0.7)
        w[rng.integers(n)] = 1.0
    elif weight_kind == "one_hot":
        w = np.zeros(n)
        w[rng.integers(n)] = rng.exponential(1.0)
    else:  # 1e-300 beside ordinary weights and zeros: products below the normal range
        w = rng.choice([0.0, 1e-300, 1.0], n)
        w[rng.integers(n)] = 1e-300
    prior = PolicyParams(rng.normal(0.0, 1.0, (a, h)), rng.uniform(0.1, 2.0, (a, h)))
    got = forward_update(one_sided(prior), u, w, 0.3)
    mu, sigma = ref_forward_update(prior, u, w, 0.3)
    assert same_bits(got.mu[0] + 0.0, mu + 0.0)
    assert same_bits(got.sigma[0] + 0.0, sigma + 0.0)


ADVANCED_ENVS = sorted(name for name in REGISTRY if hasattr(make_env(name).dynamics, "advance"))


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(ADVANCED_ENVS),
    n=st.integers(1, 700),
    h=st.integers(1, 40),
    x_t=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# blocks of 11 steps ending in 7, one block of the whole horizon, and angles of
# +-pi and beyond it
@example(name="pendulum_swingup", n=700, h=40, x_t=[np.pi, -0.0, 0.0, 0.0], seed=0)
@example(name="pendulum_swingup", n=1, h=40, x_t=[-7.5, 3.0, 0.0, 0.0], seed=1)
@example(name="point_reacher", n=700, h=40, x_t=[-np.pi, 20.0, 0.6, -0.4], seed=2)
@example(name="overlap_trap", n=700, h=40, x_t=[-0.0, 0.0, 0.0, 0.0], seed=3)
def test_advance_gives_the_bits_of_stepping_dynamics(name, n, h, x_t, seed):
    # the registered env rolls each block forward with dynamics.advance; the same
    # env with a plain wrapper of its dynamics (no advance) steps it once per step
    env = make_env(name)
    stepped = dataclasses.replace(env, dynamics=lambda x, u: env.dynamics(x, u))
    assert ADVANCED_ENVS == sorted(REGISTRY)
    rng = np.random.default_rng(seed)
    u = rng.uniform(env.action_low[:, None], env.action_high[:, None], (n, env.action_dim, h))
    x0 = np.array(x_t[: env.state_dim])
    assert rollout_batch(env, x0, u).tobytes() == rollout_batch(stepped, x0, u).tobytes()
