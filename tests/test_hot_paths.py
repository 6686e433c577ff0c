"""The hot-path kernels that build (count, A, H) arrays: bits and memory.

`sample_batch`, `log_density`, `squash`, `forward_update` and `md_gradient`
allocate each (count, A, H) array once and then work in place.  Each is
pinned bit for bit against the one-line expressions it replaced, which are
kept here as the reference, and its peak of traced memory is pinned with
`tracemalloc` (numpy reports its data buffers to it, so the peaks do not
depend on the machine).
"""

import tracemalloc

import numpy as np
import pytest

from rkmpc.policy import LOG_2PI, SIGMA_FLOOR, PolicyParams, log_density, sample_batch, squash
from rkmpc.solvers import compose_and_sample, forward_update, md_gradient

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


@pytest.mark.parametrize("shape", SHAPES)
class TestBitIdenticalToReference:
    def test_sample_batch(self, shape):
        params, _ = case(batch_of(shape))
        count = batch_of(shape)[0]
        got = sample_batch(params, count, np.random.default_rng(1))
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
        got, all_zero = forward_update(params, u, weights, 0.3)
        mu, sigma = ref_forward_update(params, u, weights, 0.3)
        assert not all_zero
        assert same_bits(got.mu, mu) and same_bits(got.sigma, sigma)
        assert same_bits(u, before[0]) and same_bits(weights, before[1])

    def test_md_gradient(self, shape):
        params, u = case(batch_of(shape))
        lnH = np.random.default_rng(3).normal(0.0, 2.0, u.shape[0])
        lnH[0] = 1.0  # C+ is never empty
        cluster = np.flatnonzero(lnH > 0.0)
        before = u.copy(), lnH.copy(), cluster.copy()
        got = md_gradient(params, u, lnH, cluster)
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

    def test_log_density(self):
        params, u = case((4096, 1, 50))
        assert peak_bytes(log_density, params, u) <= 1.1 * u.nbytes

    def test_forward_update(self):
        params, u = case((1024, 2, 50))
        weights = np.random.default_rng(2).exponential(1.0, u.shape[0])
        assert peak_bytes(forward_update, params, u, weights, 0.3) <= 1.2 * u.nbytes
