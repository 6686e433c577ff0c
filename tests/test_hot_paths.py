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
reference.  A solve builds one validated `PolicyParams`, the prior: its
samplers read views of the state's sides.

`selection_log_scores` takes log pi- from one row-wise sum of squares instead
of `log_density`, so its scores may differ in the last bits.  They are pinned
to within 1e-12 of the `log_density` reference, and the rows
`compose_and_sample` keeps to the reference's own, bit for bit.

`sample_batch` transforms in place whatever normals its `rng` returns: a
Generator's fresh array, or the buffer a prefetching solve drew into
beforehand.  Both give the bits of the reference expression, and
`md_gradient` likewise works in its own gathered copy of the cluster, which
it gathers a second time into the same buffer rather than keep a second
temporary of that size.  `_side_gradients` shares its core and is pinned to
two `md_gradient` calls.

The helpers every iteration calls on small arrays were trimmed of fixed
costs, and each is pinned to the form it replaced: `partition_clusters` to
`np.flatnonzero`, the MPPI weights to the gap divided by the temperature
even at 1, `rollout_batch` to a per-step loop that marks non-finite costs
and end states unconditionally (its first block's costs are now added in
one reduction), `squash` to its reference after bounds change in place
(it prepares each distinct set of bound values once), and every update to
keeping its input state's `carry`.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import rkmpc.solvers as solvers
import rkmpc.weights as weights_module
from rkmpc.envs import EnvSpec, make_env, rollout_batch
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
    selection_log_scores,
    solve,
    step_size_advance,
)
from rkmpc.weights import WeightConfig, partition_clusters

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


def ref_selection_log_scores(plus, minus, u_batch, kappa):
    return -np.logaddexp(log_density(minus, u_batch), math.log(kappa) + log_density(plus, minus.mu))


def ref_compose_and_sample(plus, minus, n_tilde, n, kappa, rng):
    u_all = ref_sample_batch(plus, n_tilde, rng)
    keys = ref_selection_log_scores(plus, minus, u_all, kappa) + rng.gumbel(size=n_tilde)
    return u_all[np.sort(np.argpartition(-keys, n - 1)[:n])]


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


@pytest.mark.parametrize("n_tilde, a, h", [(128, 1, 12), (4096, 1, 50)])
class TestSelectionAgainstLogDensity:
    """Selection scores from one row-wise sum of squares, against the
    `log_density` reference, over 20 pairs of `case` policies each."""

    def test_keeps_the_rows_the_reference_keeps(self, n_tilde, a, h):
        for seed in range(20):
            plus, minus = case((a, h), seed=2 * seed)[0], case((a, h), seed=2 * seed + 1)[0]
            got = compose_and_sample(plus, minus, n_tilde, n_tilde // 4, 1.0, np.random.default_rng(seed))
            want = ref_compose_and_sample(plus, minus, n_tilde, n_tilde // 4, 1.0, np.random.default_rng(seed))
            assert same_bits(got, want), seed

    def test_scores_within_1e_12(self, n_tilde, a, h):
        for seed in range(20):
            plus, minus = case((a, h), seed=2 * seed)[0], case((a, h), seed=2 * seed + 1)[0]
            u = sample_batch(plus, n_tilde, np.random.default_rng(seed))
            want = ref_selection_log_scores(plus, minus, u, 1.0)
            np.testing.assert_allclose(selection_log_scores(plus, minus, u, 1.0), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(32, 1, 12), (1024, 2, 50), (4096, 1, 50), (5, 1, 1), (1, 1, 1)])
class TestSquashLayout:
    """A batch is squashed in (A, H, N) memory, the layout `rollout_batch` reads."""

    def test_never_shares_memory_with_its_input(self, shape):
        _, u = case(shape)
        assert not np.shares_memory(squash(u, [-1.0] * shape[1], [2.0] * shape[1]), u)

    def test_rollout_layout_needs_no_copy(self, shape):
        _, u = case(shape)
        out = squash(u, [-1.0] * shape[1], [2.0] * shape[1])
        assert out.shape == shape and out.transpose(1, 2, 0).flags.c_contiguous

    def test_each_row_has_the_bits_of_its_own_sequence(self, shape):
        _, u = case(shape)
        a = shape[1]
        low, high = -np.arange(1.0, a + 1.0), np.linspace(0.5, 3.0, a)
        out = squash(u, low, high)
        assert all(same_bits(out[n], squash(u[n], low, high)) for n in range(shape[0]))


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

    def test_prefetched_reject_iteration(self):
        # a two-iteration solve, the first run beside the worker's draw of the
        # second: the solve's two draw buffers, then the oversampled batch's log
        # density beside them; the serial path peaks at 2.3 units
        env = make_env("overlap_trap")
        n_tilde, a, h = 4096, env.action_dim, 50
        config = SolverConfig(n_candidates=1024, n_oversample=n_tilde, horizon=h, max_iterations=2)
        assert solvers._prefetches("reject", config, a)
        solve(env, env.initial_state, config, "reject")  # lazy set-up
        assert peak_bytes(solve, env, env.initial_state, config, "reject") <= 3.4 * n_tilde * a * h * 8

    def test_sample_batch(self):
        # a Generator's fresh normals are the batch: transformed in place, no second array
        params, _ = case((1, 50), seed=4)
        count = 4096
        assert peak_bytes(sample_batch, params, count, np.random.default_rng(0)) <= 1.1 * count * 1 * 50 * 8

    def test_md_gradient(self):
        # the gathered cluster, gathered again into the same buffer for the second sum,
        # in units of the cluster's (|C|, A, H)
        params, u = case((1024, 2, 50))
        lnH = np.random.default_rng(3).normal(0.0, 2.0, u.shape[0])
        cluster = np.flatnonzero(lnH > 0.0)
        assert 400 <= cluster.size <= 624  # about half the batch
        peak = peak_bytes(md_gradient, params.mu, params.sigma, u, lnH, cluster)
        assert peak <= 1.3 * cluster.size * 2 * 50 * 8

    def test_reverse_update(self):
        # reverse's C+ is every candidate: one (N, A, H) buffer, not two (with two
        # alive at once, malloc returned them to the system after every update and
        # faulted them back in at the next iteration)
        state, _, u, lnH, _ = two_sided_case((1024, 2, 50), "both_sides")
        assert peak_bytes(reverse_update, state, u, lnH, 0.3) <= 1.3 * u.nbytes

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


@pytest.mark.parametrize("shape", UPDATE_SHAPES + [(5, 1, 1), (2, 3, 4)])
class TestSideGradients:
    """_side_gradients gathers each side's weights once and shares md_gradient's
    core: it must give two md_gradient calls' bits, theta+ over C+ with lnH and
    theta- over C- with -lnH, for the sides whose cluster is not empty."""

    @pytest.mark.parametrize("lnh_case", sorted(LNH_CASES))
    def test_matches_two_md_gradient_calls(self, shape, lnh_case):
        state, _, u, lnH, _ = two_sided_case(shape, lnh_case)
        lnH[::7] = 0.0  # candidates in neither cluster
        before = u.copy(), lnH.copy()
        clusters = partition_clusters(lnH)
        sides, g_mu, g_sigma = solvers._side_gradients(state, u, lnH, clusters)
        live = [k for k in (0, 1) if clusters[k].size]
        assert (sides.start, sides.stop) == ((live[0], live[-1] + 1) if live else (0, 0))
        assert g_mu.shape == g_sigma.shape == (len(live),) + shape[1:]
        for j, k in enumerate(live):
            want = md_gradient(state.mu[k], state.sigma[k], u, -lnH if k else lnH, clusters[k])
            assert same_bits(g_mu[j], want[0]) and same_bits(g_sigma[j], want[1]), k
        assert same_bits(u, before[0]) and same_bits(lnH, before[1])

    def test_md_gradient_takes_negative_indices(self, shape):
        # a cluster may index from the end, as u_batch[cluster] does; the second
        # gather must take the same rows as the first
        params, u = case(shape)
        lnH = np.random.default_rng(7).normal(0.0, 2.0, shape[0])
        cluster = np.array([-1, 0, -shape[0]] + list(range(1 - shape[0], 0, 2)))
        got = md_gradient(params.mu, params.sigma, u, lnH, cluster)
        want = ref_md_gradient(params, u, lnH, cluster)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("layout", ["fortran", "reversed", "permuted"])
    def test_md_gradient_on_any_batch_layout(self, shape, layout):
        # take gathers into C order, where u_batch[cluster] followed the batch's
        # strides; both add the rows in the same order
        params, u = case(shape)
        u = {"fortran": np.asfortranarray(u), "reversed": u[::-1],
             "permuted": u.transpose(0, 2, 1).copy().transpose(0, 2, 1)}[layout]
        lnH = np.random.default_rng(8).normal(0.0, 2.0, shape[0])
        lnH[0] = 1.0
        cluster = np.flatnonzero(lnH > 0.0)
        got = md_gradient(params.mu, params.sigma, u, lnH, cluster)
        want = ref_md_gradient(params, u, lnH, cluster)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_random_clusters(self, shape):
        # clusters drawn at random, each side's a subset in any order, one of them
        # possibly a single candidate or empty
        state, _, u, lnH, _ = two_sided_case(shape, "both_sides")
        rng = np.random.default_rng(shape[0])
        for trial in range(20):
            sizes = rng.integers(0, shape[0] + 1, 2)
            sizes[trial % 2] = min(sizes[trial % 2], trial % 3)  # 0, 1 or 2 candidates
            clusters = tuple(rng.permutation(shape[0])[:size] for size in sizes)
            _, g_mu, g_sigma = solvers._side_gradients(state, u, lnH, clusters)
            live = [k for k in (0, 1) if clusters[k].size]
            for j, k in enumerate(live):
                want = md_gradient(state.mu[k], state.sigma[k], u, -lnH if k else lnH, clusters[k])
                assert same_bits(g_mu[j], want[0]) and same_bits(g_sigma[j], want[1]), (trial, k)


class TestPolicyParamsConstructions:
    """A validated PolicyParams is built only at an interface: the prior, once
    per solve.  The samplers get views of the state's sides (`Gaussian`)."""

    @pytest.mark.parametrize("variant", ["accel", "reject", "forward", "reverse"])
    def test_only_the_prior_per_solve(self, monkeypatch, variant):
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
            assert len(built) <= 1, (step, len(built))


# The per-iteration helpers trimmed of fixed costs, each against the
# expression it replaced.


def ref_partition_clusters(lnH):
    lnH = np.asarray(lnH, dtype=float).ravel()
    return np.flatnonzero(lnH > 0.0), np.flatnonzero(lnH < 0.0)


def ref_mppi_weights(J, lo, hi, temperature, total):
    """_backend_weights' MPPI branch as it was: the gap always divided by the temperature."""
    with np.errstate(over="ignore"):
        gap = lo - J
    if temperature < 1.0:
        np.maximum(gap, -746.0 * temperature, out=gap)
    e = np.exp(gap / temperature)
    return total * e / e.sum()


def ref_rollout(env, x_t, u):
    """Every callable once per step, J summed per step, and the non-finite
    marks made unconditionally, as rollout_batch made them."""
    n, _, horizon = u.shape
    x = np.broadcast_to(np.asarray(x_t, dtype=float), (n, env.state_dim)).copy()
    J = np.zeros(n)
    for tau in range(horizon):
        J += env.stage_cost(x, u[:, :, tau])
        x = env.dynamics(x, u[:, :, tau])
    J += env.terminal_cost(x)
    J[~np.isfinite(J) | ~np.isfinite(x).all(axis=1)] = np.inf
    return J


def marked_env(stage=None):
    """A 1-D env whose action 0.5 makes a NaN stage cost and -0.5 an infinite
    state while the cost stays finite; `stage` replaces the stage cost."""
    return EnvSpec(
        name="marked",
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        dynamics=lambda x, u: np.where(u == -0.5, np.inf, x + u),
        stage_cost=stage or (lambda x, u: np.where(u[:, 0] == 0.5, np.nan, u[:, 0] * u[:, 0])),
        terminal_cost=lambda x: np.full(x.shape[0], -0.0),  # keeps the sign of a zero J
    )


class TestTrimmedHelpersAgainstOldForms:
    @pytest.mark.parametrize("n", [1, 2, 32, 1024])
    def test_partition_clusters(self, n):
        rng = np.random.default_rng(n)
        cases = [rng.normal(0.0, 2.0, n), np.zeros(n), np.full(n, -0.0), np.full(n, np.nan),
                 np.where(rng.random(n) < 0.3, 0.0, rng.normal(0.0, 1e-300, n)), np.arange(n) - n // 2]
        for lnH in cases + [cases[0].reshape(1, n), list(cases[0])]:
            got, want = partition_clusters(lnH), ref_partition_clusters(lnH)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("temperature", [1.0, 0.5, 2.0, 1e-3])
    def test_mppi_weights(self, temperature):
        # at temperature 1 the division is skipped: x / 1.0 has the bits of x
        rng = np.random.default_rng(11)
        config = WeightConfig(temperature=temperature)
        for J in (rng.exponential(1.0, 32), rng.normal(0.0, 1e3, 1024), np.array([0.0, -0.0, 5e-324, 1e308])):
            lo, hi = float(J.min()), float(J.max())
            for total in (float(J.size), 0.25 * J.size):
                got = weights_module._backend_weights(J, lo, hi, config, total, config.quantile)
                assert same_bits(got, ref_mppi_weights(J, lo, hi, temperature, total))
            negative = weights_module._backend_weights(-J, -hi, -lo, config, 0.5 * J.size, config.quantile)
            assert same_bits(negative, ref_mppi_weights(-J, -hi, -lo, temperature, 0.5 * J.size))

    @pytest.mark.parametrize("n, horizon", [(3, 4), (32, 12), (1024, 50)])
    def test_rollout_marks_nonfinite_costs_and_end_states(self, n, horizon):
        env = marked_env()
        u = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 1, horizon))
        u[0, 0, horizon // 2] = 0.5  # a NaN cost, the end state finite
        u[-1, 0, 0] = -0.5  # an infinite state from the first step on, the cost finite
        J = rollout_batch(env, env.initial_state, u)
        assert same_bits(J, ref_rollout(env, env.initial_state, u))
        assert J[0] == J[-1] == np.inf and np.isfinite(J[1:-1]).all()
        u[0, 0, horizon // 2] = 0.25  # only the end state is not finite
        J = rollout_batch(env, env.initial_state, u)
        assert same_bits(J, ref_rollout(env, env.initial_state, u))
        assert J[-1] == np.inf and np.isfinite(J[:-1]).all()
        u[-1, 0, 0] = 0.25  # all finite: no mask is built
        assert same_bits(rollout_batch(env, env.initial_state, u), ref_rollout(env, env.initial_state, u))

    @pytest.mark.parametrize("stage", [
        lambda x, u: u[:, 0] * 10.0 ** (8.0 * u[:, 0]),  # magnitudes 1e-8..1e8: sums that round
        lambda x, u: np.full(x.shape[0], -0.0),  # all -0.0: J stays +0.0, as from the loop
        lambda x, u: np.round(u[:, 0] * 1e6).astype(np.int64),
        lambda x, u: u[:, 0] > 0.0,
        lambda x, u: (u[:, 0] * 1e30).astype(np.float32),
        lambda x, u: (u[:, 0] * u[:, 0])[::-1].copy()[::-1],  # a reversed view
        lambda x, u: np.ascontiguousarray(np.stack((u[:, 0], u[:, 0]), axis=1))[:, 0],  # a strided one
    ], ids=["wide", "negative_zero", "int64", "bool", "float32", "reversed", "strided"])
    @pytest.mark.parametrize("n, horizon", [(1, 12), (2, 9), (33, 20), (600, 37)])
    def test_rollout_first_block_sum(self, stage, n, horizon):
        # the first block's stage costs are added by one reduction, later blocks by the loop
        env = marked_env(stage)
        u = np.random.default_rng(n + horizon).uniform(-1.0, 1.0, (n, 1, horizon))
        assert same_bits(rollout_batch(env, env.initial_state, u), ref_rollout(env, env.initial_state, u))

    def test_squash_reads_bounds_changed_in_place(self):
        # the prepared bounds are looked up by value: a cache keyed on the arrays'
        # identity would squash the second call into the first call's bounds
        _, u = case((32, 2, 12))
        low, high = np.array([-1.0, -2.0]), np.array([2.0, 0.5])
        first = squash(u, low, high)
        assert same_bits(first, ref_squash(u, low, high))
        low[1], high[0] = -3.0, 1.5
        assert same_bits(squash(u, low, high), ref_squash(u, [-1.0, -3.0], [1.5, 0.5]))
        assert same_bits(squash(u, [-1.0, -2.0], [2.0, 0.5]), first)
        high[1] = -4.0  # low >= high is still caught on a later call
        with pytest.raises(ValueError, match="low < high"):
            squash(u, low, high)

    @pytest.mark.parametrize("lnh_case", sorted(LNH_CASES))
    def test_updates_keep_the_carry(self, lnh_case):
        state, _, u, lnH, J = two_sided_case((32, 1, 12), lnh_case)
        carry = object()
        state = dataclasses.replace(state, carry=carry)
        config = SolverConfig(alpha=0.2, gamma=0.5)
        assert accel_update(state, u, lnH, J, config)[0].carry is carry
        assert reject_update(state, u, lnH, 0.3).carry is carry
        assert reverse_update(state, u, lnH, 0.3).carry is carry
        assert forward_update(state, u, np.maximum(lnH, 0.0), 0.3).carry is carry
