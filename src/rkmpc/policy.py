"""Diagonal-Gaussian action-sequence policy and its mirror-descent geometry.

A policy is a diagonal Gaussian over a (action_dim, horizon) grid of
pre-squash actions.  Action sequences are plain float arrays of shape
(action_dim, horizon); batches stack them along a leading axis.  All
optimization happens in pre-squash space; costs are evaluated on squashed
actions, which keeps the Gaussian algebra exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_FLOOR = 1e-6

LOG_2PI = float(np.log(2.0 * np.pi))


def _check_values(mu: np.ndarray, sigma: np.ndarray, field: str = "") -> None:
    """The value rule of every policy: mu finite, sigma finite and >= SIGMA_FLOOR.
    `field` prefixes the names in the error, as in "prev.tilde_sigma"."""
    # count_nonzero, not .all() / .any(): the same test at about half the cost on (A, H) arrays
    finite = np.isfinite(mu)
    if np.count_nonzero(finite) != finite.size:
        raise ValueError(f"{field}mu must be finite")
    finite = np.isfinite(sigma)
    if np.count_nonzero(finite) != finite.size or np.count_nonzero(np.less(sigma, SIGMA_FLOOR)):
        raise ValueError(f"{field}sigma must be finite and >= {SIGMA_FLOOR}")


@dataclass(frozen=True)
class PolicyParams:
    """Mean and scale of a diagonal Gaussian over (action_dim, horizon)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        # Frozen copies: freezing the caller's own arrays would make them read-only.
        mu, sigma = np.array(self.mu, float), np.array(self.sigma, float)
        if mu.shape != sigma.shape:
            raise ValueError(f"mu shape {mu.shape} != sigma shape {sigma.shape}")
        if mu.ndim != 2 or mu.shape[0] < 1 or mu.shape[1] < 1:
            raise ValueError(f"expected 2-D (action_dim, horizon) arrays, got {mu.shape}")
        _check_values(mu, sigma)
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def standard_prior(action_dim: int, horizon: int) -> PolicyParams:
    """Zero-mean, unit-scale prior in pre-squash space."""
    shape = (action_dim, horizon)
    return PolicyParams(np.zeros(shape), np.ones(shape))


def sample_batch(params: PolicyParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` pre-squash action sequences, shape (count, A, H).

    `rng` is a Generator, or an object whose `standard_normal(size)` serves
    normals drawn beforehand into a buffer its owner hands over (the solver's
    prefetch); that buffer is transformed in place and returned.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    normals = rng.standard_normal((count,) + params.mu.shape)
    if isinstance(rng, np.random.Generator):  # fresh normals: a new array for u measured faster than in place
        u = params.sigma * normals
    else:
        u = np.multiply(normals, params.sigma, out=normals)
    u += params.mu
    return u


def squash(u_raw: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Map pre-squash actions into the open interval (low, high) per action dim.

    tanh-based affine map: odd-symmetric about the bound midpoint, so the
    (0, I) prior is centered on the middle of the action range.  Bounds are
    per-action-dim arrays of shape (A,), broadcast over the horizon axis.
    """
    u_raw = np.asarray(u_raw, dtype=float)
    if not np.isfinite(u_raw).all():
        raise ValueError("squash input must be finite")
    low = np.asarray(low, dtype=float).reshape(-1, 1)
    high = np.asarray(high, dtype=float).reshape(-1, 1)
    if (low >= high).any():
        raise ValueError("action bounds require low < high per dimension")
    mid = 0.5 * (low + high)
    half = 0.5 * (high - low)
    out = np.tanh(u_raw)
    out *= half
    out += mid
    return out


def log_density(params: PolicyParams, u_raw: np.ndarray) -> np.ndarray:
    """Joint Gaussian log-density over all (A, H) entries, in pre-squash space.

    Accepts a single sequence (A, H) or a batch (..., A, H); returns a scalar
    or the matching batch of scalars.  Computed as a sum of per-entry log
    terms so high-dimensional joints never underflow.
    """
    u_raw = np.asarray(u_raw, dtype=float)
    z = u_raw - params.mu
    z /= params.sigma
    z *= z
    z *= 0.5  # (z*z)*0.5 == (0.5*z)*z: scaling by 2**-1 is exact above the subnormals
    np.subtract(-0.5 * LOG_2PI - np.log(params.sigma), z, out=z)
    return z.sum(axis=(-2, -1))


def kl_divergence(theta: PolicyParams, theta_i: PolicyParams) -> float:
    """Closed-form KL( N(theta) || N(theta_i) ) for diagonal Gaussians."""
    if theta.mu.shape != theta_i.mu.shape:
        raise ValueError("parameter shapes must match")
    var = theta.sigma**2
    var_i = theta_i.sigma**2
    terms = np.log(var_i / var) + var / var_i + (theta_i.mu - theta.mu) ** 2 / var_i - 1.0
    return float(0.5 * terms.sum())


def mirror_map(mu: np.ndarray, sigma: np.ndarray, sigma_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mirror point (z_mu, z_sigma) of (mu, sigma) in the KL geometry at scale
    sigma_i; all arrays share one shape, (A, H) or with sides stacked ahead."""
    if np.shape(mu) != np.shape(sigma_i) or np.shape(sigma) != np.shape(sigma_i):
        raise ValueError("parameter shapes must match")
    var_i = sigma_i**2
    return mu / var_i, sigma / var_i - 1.0 / sigma


def mirror_inverse(z_mu: np.ndarray, z_sigma: np.ndarray, sigma_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the mirror map at scale sigma_i back to (mu, sigma).

    sigma is floored at SIGMA_FLOOR.  A non-finite mirror point is rejected
    here: z_sigma = -inf would otherwise come back as sigma = SIGMA_FLOOR.
    For z_sigma < 0 the textbook quadratic-root form cancels catastrophically,
    so the conjugate form 2*sigma_i / (sqrt(...) - sigma_i*z) is used there,
    written with + |sigma_i*z|: equal where it is selected, and never 0.
    np.hypot keeps sqrt(sigma_i^2 z^2 + 4) from overflowing for large |z|.
    """
    if np.shape(z_mu) != np.shape(sigma_i) or np.shape(z_sigma) != np.shape(sigma_i):
        raise ValueError("mirror point shape does not match reference")
    if not (np.isfinite(z_mu).all() and np.isfinite(z_sigma).all()):
        raise ValueError("mirror point entries must be finite")
    var_i = sigma_i**2
    sz = sigma_i * z_sigma
    root = np.hypot(sz, 2.0)  # sqrt(sigma_i^2 z_sigma^2 + 4)
    sigma = np.where(
        z_sigma >= 0.0,
        0.5 * (var_i * z_sigma + sigma_i * root),
        2.0 * sigma_i / (root + np.abs(sz)),
    )
    return var_i * z_mu, np.maximum(sigma, SIGMA_FLOOR)
