"""The hot paths of one solver iteration: bits, memory and object counts.

`sample_batch`, `log_density`, `squash`, `forward_update` and `md_gradient`
allocate each (count, A, H) array once and then work in place.  Each is
pinned bit for bit against the one-line expressions it replaced, which are
kept here as the reference, and its peak of traced memory is pinned with
`tracemalloc` (numpy reports its data buffers to it, so the peaks do not
depend on the machine).

Every update steps a `SolverState`.  `reject_update` and `accel_update` step
both policy sides at once over a (2, A, H) side axis; `forward_update` and
`reverse_update` step theta+ alone.  They are pinned bit for bit against the
per-side refit, mirror-descent and AGD+ steps they replaced, kept here as the
reference, and a solve builds one validated `PolicyParams` per iteration for
forward and reverse, two for reject and accel, plus the prior once.

A solve that prefetches its draws hands `sample_batch` normals drawn into a
buffer it owns, and `sample_batch` transforms that buffer in place, with the
bits of the fresh-array path.
"""

import tracemalloc

import numpy as np
import pytest

import rkmpc.solvers as solvers
from rkmpc.envs import make_env
from rkmpc.policy import LOG_2PI, SIGMA_FLOOR, PolicyParams, log_density, sample_batch, squash
from rkmpc.prefetch import Drawn
from rkmpc.solvers import (
    SolverConfig,
    SolverState,
    accel_update,
    compose_and_sample,
    forward_update,
    md_gradient,
    noise_strength,
    reject_update,
    reverse_update,
    solve,
    step_size_advance,
)
from rkmpc.weights import partition_clusters

# A single (A, H) sequence, then (count, A, H) batches from the swing-up to
# the bulk workloads' shapes.
SHAPES = [(2, 12), (32, 1, 12), (1024, 2, 50), (4096, 1, 50)]


def ref_sample_batch(params, count, rng):
    return params.mu + params.sigma * rng.standard_normal((count,) + params.mu.shape)


def ref_squash(u_raw, low, high):
    low = np.asarray(low, dtype=float).reshape(-1, 1)
    high = np.asarray(high, dtype=float).reshape(-1, 1)
    return 0.5 * (low + high) + 0.5 * (high - low) * np.tanh(u_raw)


def ref_log_density(params, u_raw):
    z = (u_raw - params.mu) / params.sigma
    return (-0.5 * LOG_2PI - np.log(params.sigma) - 0.5 * z * z).sum(axis=(-2, -1))


def ref_forward_update(theta_i, u_batch, weights, alpha):
    wc = weights[:, None, None] / weights.sum()
    mu_star = (wc * u_batch).sum(axis=0)
    var_star = (wc * (u_batch - mu_star) ** 2).sum(axis=0)
    mu = (1.0 - alpha) * theta_i.mu + alpha * mu_star
    sigma = (1.0 - alpha) * theta_i.sigma + alpha * np.sqrt(var_star)
    return mu, np.maximum(sigma, SIGMA_FLOOR)


def ref_md_gradient(theta, u_batch, lnH, cluster):
    w = lnH[cluster][:, None, None]
    diff = u_batch[cluster] - theta.mu
    var = theta.sigma**2
    g_mu = (-w * diff / var).sum(axis=0) / cluster.size
    g_sigma = (-w * (diff**2 - var) / (var * theta.sigma)).sum(axis=0) / cluster.size
    return g_mu, g_sigma


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


def case(shape, seed=0):
    """Policy with sigma spread over 1e-6..1e3 and candidates at 1e-3..1e3
    standard deviations from its mean; `u` has `shape`, the policy its last
    two axes."""
    rng = np.random.default_rng(seed)
    ah = shape[-2:]
    params = PolicyParams(rng.normal(0.0, 3.0, ah), 10.0 ** rng.uniform(-6.0, 3.0, ah))
    u = params.mu + params.sigma * rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    return params, u


def batch_of(shape):
    return shape if len(shape) == 3 else (1,) + shape


def one_sided(params):
    """A SolverState with params on both sides and as both momentum points."""
    mu, sigma = np.stack((params.mu, params.mu)), np.stack((params.sigma, params.sigma))
    return SolverState(mu, sigma, mu, sigma)


@pytest.mark.parametrize("shape", SHAPES)
class TestBitIdenticalToReference:
    def test_sample_batch(self, shape):
        params, _ = case(batch_of(shape))
        count = batch_of(shape)[0]
        got = sample_batch(params, count, np.random.default_rng(1))
        assert same_bits(got, ref_sample_batch(params, count, np.random.default_rng(1)))

    def test_sample_batch_on_predrawn_normals(self, shape):
        params, _ = case(batch_of(shape))
        count = batch_of(shape)[0]
        normals = np.random.default_rng(1).standard_normal((count,) + params.mu.shape)
        got = sample_batch(params, count, Drawn(normals, np.zeros(count)))
        assert got is normals  # transformed in place
        assert same_bits(got, ref_sample_batch(params, count, np.random.default_rng(1)))

    def test_squash(self, shape):
        _, u = case(shape)
        a = shape[-2]
        low, high = -np.arange(1.0, a + 1.0), np.linspace(0.5, 3.0, a)
        before = u.copy()
        assert same_bits(squash(u, low, high), ref_squash(u, low, high))
        assert same_bits(u, before)

    def test_log_density(self, shape):
        params, u = case(shape)
        before = u.copy()
        assert same_bits(log_density(params, u), ref_log_density(params, u))
        assert same_bits(u, before)

    def test_forward_update(self, shape):
        params, u = case(batch_of(shape))
        weights = np.random.default_rng(2).exponential(1.0, u.shape[0])
        before = u.copy(), weights.copy()
        state = one_sided(params)
        got = forward_update(state, u, weights, 0.3)
        mu, sigma = ref_forward_update(params, u, weights, 0.3)
        assert got is not state
        assert same_bits(got.mu[0], mu) and same_bits(got.sigma[0], sigma)
        assert same_bits(u, before[0]) and same_bits(weights, before[1])

    def test_md_gradient(self, shape):
        params, u = case(batch_of(shape))
        lnH = np.random.default_rng(3).normal(0.0, 2.0, u.shape[0])
        lnH[0] = 1.0  # C+ is never empty
        cluster = np.flatnonzero(lnH > 0.0)
        before = u.copy(), lnH.copy(), cluster.copy()
        got = md_gradient(params.mu, params.sigma, u, lnH, cluster)
        want = ref_md_gradient(params, u, lnH, cluster)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert all(same_bits(x, y) for x, y in zip((u, lnH, cluster), before))


def peak_bytes(fn, *args):
    """Peak traced memory of fn(*args), above what was traced before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryPeak:
    """Peaks in units of one (count, A, H) float64 array."""

    def test_compose_and_sample(self):
        n_tilde, a, h = 4096, 1, 50
        plus, _ = case((a, h), seed=4)
        minus, _ = case((a, h), seed=5)
        peak = peak_bytes(compose_and_sample, plus, minus, n_tilde, 1024, 1.0, np.random.default_rng(0))
        assert peak <= 2.1 * n_tilde * a * h * 8

    def test_prefetched_reject_iteration(self, monkeypatch):
        # a two-iteration solve, the first run beside the worker's draw of the
        # second: the solve's two draw buffers, then the oversampled batch's log
        # density beside them; the serial path peaks at 2.3 units
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        env = make_env("overlap_trap")
        n_tilde, a, h = 4096, env.action_dim, 50
        config = SolverConfig(n_candidates=1024, n_oversample=n_tilde, horizon=h, max_iterations=2)
        assert solvers._prefetches("reject", config, a)
        solve(env, env.initial_state, config, "reject")  # lazy set-up
        assert peak_bytes(solve, env, env.initial_state, config, "reject") <= 3.4 * n_tilde * a * h * 8

    def test_log_density(self):
        params, u = case((4096, 1, 50))
        assert peak_bytes(log_density, params, u) <= 1.1 * u.nbytes

    def test_forward_update(self):
        params, u = case((1024, 2, 50))
        weights = np.random.default_rng(2).exponential(1.0, u.shape[0])
        assert peak_bytes(forward_update, one_sided(params), u, weights, 0.3) <= 1.2 * u.nbytes


# The per-side update steps that the side-stacked ones replaced.


def ref_mirror_map(theta, theta_i):
    var_i = theta_i.sigma**2
    return theta.mu / var_i, theta.sigma / var_i - 1.0 / theta.sigma


def ref_mirror_inverse(z_mu, z_sigma, theta_i):
    var_i = theta_i.sigma**2
    sz = theta_i.sigma * z_sigma
    root = np.hypot(sz, 2.0)
    sigma = np.where(
        z_sigma >= 0.0,
        0.5 * (var_i * z_sigma + theta_i.sigma * root),
        2.0 * theta_i.sigma / (root + np.abs(sz)),
    )
    return PolicyParams(var_i * z_mu, np.maximum(sigma, SIGMA_FLOOR))


def ref_reverse_update(theta_i, u_batch, lnH, alpha, cluster):
    g_mu, g_sigma = ref_md_gradient(theta_i, u_batch, lnH, cluster)
    z_mu, z_sigma = ref_mirror_map(theta_i, theta_i)
    return ref_mirror_inverse(z_mu - alpha * g_mu, z_sigma - alpha * g_sigma, theta_i)


def ref_agd_plus_step(theta_i, tilde_prev, g_mu, g_sigma, a_i, A_i, a_next, A_next):
    z_mu, z_sigma = ref_mirror_map(tilde_prev, theta_i)
    tilde = ref_mirror_inverse(z_mu - a_i * g_mu, z_sigma - a_i * g_sigma, theta_i)
    w_keep, w_new, w_mom = A_i / A_next, a_next / A_next, a_i / A_next
    mu = w_keep * theta_i.mu + w_new * tilde.mu + w_mom * (tilde.mu - tilde_prev.mu)
    sigma = w_keep * theta_i.sigma + w_new * tilde.sigma + w_mom * (tilde.sigma - tilde_prev.sigma)
    return PolicyParams(mu, np.maximum(sigma, SIGMA_FLOOR)), tilde


def ref_two_sided(sides, lnH, step):
    """Step theta+ over C+ with lnH and theta- over C- with -lnH, one side at
    a time; sides maps "plus"/"minus" to (theta, tilde)."""
    out = dict(sides)
    for side, signed, cluster in zip(("plus", "minus"), (lnH, -lnH), partition_clusters(lnH)):
        if cluster.size:
            out[side] = step(*sides[side], signed, cluster)
    return out


UPDATE_SHAPES = [(32, 1, 12), (1024, 1, 50), (1024, 2, 50)]
LNH_CASES = {
    "both_sides": lambda x: x,
    "plus_empty": lambda x: -np.abs(x),
    "minus_empty": lambda x: np.abs(x),  # what beta = 0 gives
    "both_empty": lambda x: np.zeros_like(x),
}


def two_sided_case(shape, lnh_case):
    """A state with four different policies (sigma over 1e-6..1e3), a batch
    around them, signed weights of the named sign pattern and costs."""
    sides = {side: (case(shape[1:], seed=10 + k)[0], case(shape[1:], seed=20 + k)[0])
             for k, side in enumerate(("plus", "minus"))}
    (plus, tilde_plus), (minus, tilde_minus) = sides["plus"], sides["minus"]
    state = SolverState(
        np.stack((plus.mu, minus.mu)), np.stack((plus.sigma, minus.sigma)),
        np.stack((tilde_plus.mu, tilde_minus.mu)), np.stack((tilde_plus.sigma, tilde_minus.sigma)),
        a_i=0.3, A_i=0.7, sigma_max_running=0.5,
    )
    rng = np.random.default_rng(6)
    u = rng.normal(0.0, 2.0, shape)
    lnH = LNH_CASES[lnh_case](rng.normal(0.0, 2.0, shape[0]))
    J = rng.exponential(1.0, shape[0])
    return state, sides, u, lnH, J


def assert_state_holds(state, sides):
    for side, (theta, tilde) in sides.items():
        for name, want in (("theta_" + side, theta), ("theta_tilde_" + side, tilde)):
            got = getattr(state, name)
            assert same_bits(got.mu, want.mu) and same_bits(got.sigma, want.sigma), name


@pytest.mark.parametrize("lnh_case", sorted(LNH_CASES))
@pytest.mark.parametrize("shape", UPDATE_SHAPES)
class TestTwoSidedStepBitIdentical:
    def test_reject_update(self, shape, lnh_case):
        state, sides, u, lnH, _ = two_sided_case(shape, lnh_case)
        before = [a.copy() for a in (state.mu, state.sigma, state.tilde_mu, state.tilde_sigma, u, lnH)]
        got = reject_update(state, u, lnH, 0.3)
        want = ref_two_sided(sides, lnH, lambda theta, tilde, signed, cluster: (
            ref_reverse_update(theta, u, signed, 0.3, cluster), tilde))
        assert_state_holds(got, want)
        assert (got.a_i, got.A_i, got.sigma_max_running) == (0.3, 0.7, 0.5)
        now = (state.mu, state.sigma, state.tilde_mu, state.tilde_sigma, u, lnH)
        assert all(same_bits(a, b) for a, b in zip(now, before))

    def test_accel_update(self, shape, lnh_case):
        state, sides, u, lnH, J = two_sided_case(shape, lnh_case)
        config = SolverConfig(alpha=0.2, gamma=0.5)
        s_i, sigma_max = noise_strength(J, 0.5)
        a_next, A_next = step_size_advance(0.3, 0.7, s_i, 0.2, 0.5)
        got, got_s = accel_update(state, u, lnH, J, config)

        def step(theta, tilde, signed, cluster):
            g = ref_md_gradient(theta, u, signed, cluster)
            return ref_agd_plus_step(theta, tilde, *g, 0.3, 0.7, a_next, A_next)

        assert_state_holds(got, ref_two_sided(sides, lnH, step))
        assert (got_s, got.a_i, got.A_i, got.sigma_max_running) == (s_i, a_next, A_next, sigma_max)
        assert_state_holds(state, sides)


@pytest.mark.parametrize("lnh_case", sorted(LNH_CASES))
@pytest.mark.parametrize("shape", UPDATE_SHAPES)
class TestOneSidedStepBitIdentical:
    """theta+ steps as the per-policy reference does; theta-, both momentum
    points and the accumulators keep their bits, and an update whose C+ is
    empty returns the state itself."""

    def check(self, state, sides, got, plus, inputs, before):
        if plus is None:
            assert got is state
        else:
            assert_state_holds(got, {**sides, "plus": (plus, sides["plus"][1])})
        assert (got.a_i, got.A_i, got.sigma_max_running) == (0.3, 0.7, 0.5)
        assert_state_holds(state, sides)
        assert all(same_bits(a, b) for a, b in zip(inputs, before))

    def test_forward_update(self, shape, lnh_case):
        state, sides, u, lnH, _ = two_sided_case(shape, lnh_case)
        weights = np.maximum(lnH, 0.0)  # nonnegative, zero exactly where C+ is empty
        before = u.copy(), weights.copy()
        got = forward_update(state, u, weights, 0.3)
        plus = PolicyParams(*ref_forward_update(sides["plus"][0], u, weights, 0.3)) if weights.any() else None
        self.check(state, sides, got, plus, (u, weights), before)

    def test_reverse_update(self, shape, lnh_case):
        state, sides, u, lnH, _ = two_sided_case(shape, lnh_case)
        before = u.copy(), lnH.copy()
        got = reverse_update(state, u, lnH, 0.3)
        everyone = np.arange(shape[0])
        plus = ref_reverse_update(sides["plus"][0], u, lnH, 0.3, everyone) if lnH.any() else None
        self.check(state, sides, got, plus, (u, lnH), before)


class TestPolicyParamsConstructions:
    """A validated PolicyParams is built only at an interface: one per
    iteration for forward and reverse, and two for reject and accel, for the
    sampler's arguments, plus the prior once per solve."""

    @pytest.mark.parametrize("variant", ["accel", "reject", "forward", "reverse"])
    def test_at_most_two_per_iteration(self, monkeypatch, variant):
        built = []
        original = PolicyParams.__post_init__

        def counted(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(PolicyParams, "__post_init__", counted)
        env = make_env("pendulum_swingup")
        config = SolverConfig(n_candidates=32, n_oversample=128, horizon=12, max_iterations=8)
        state = None
        for step in range(3):
            built.clear()
            result, state = solve(env, env.initial_state, config, variant=variant, prev=state, step=step)
            assert result.iterations == 8
            per_iteration = 2 if variant in ("accel", "reject") else 1
            assert len(built) <= per_iteration * result.iterations + 1, (step, len(built))
