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


@dataclass(frozen=True)
class PolicyParams:
    """Mean and scale of a diagonal Gaussian over (action_dim, horizon)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if mu.shape != sigma.shape:
            raise ValueError(f"mu shape {mu.shape} != sigma shape {sigma.shape}")
        if mu.ndim != 2 or mu.shape[0] < 1 or mu.shape[1] < 1:
            raise ValueError(f"expected 2-D (action_dim, horizon) arrays, got {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if not np.all(np.isfinite(sigma)) or np.any(sigma < SIGMA_FLOOR):
            raise ValueError(f"sigma must be finite and >= {SIGMA_FLOOR}")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def horizon(self) -> int:
        return self.mu.shape[1]


def standard_prior(action_dim: int, horizon: int) -> PolicyParams:
    """Zero-mean, unit-scale prior in pre-squash space."""
    shape = (action_dim, horizon)
    return PolicyParams(np.zeros(shape), np.ones(shape))


def sample_batch(params: PolicyParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` pre-squash action sequences, shape (count, A, H)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    noise = rng.standard_normal((count,) + params.mu.shape)
    return params.mu + params.sigma * noise


def squash(u_raw: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Map pre-squash actions into the open interval (low, high) per action dim.

    tanh-based affine map: odd-symmetric about the bound midpoint, so the
    (0, I) prior is centered on the middle of the action range.  Bounds are
    per-action-dim arrays of shape (A,), broadcast over the horizon axis.
    """
    u_raw = np.asarray(u_raw, dtype=float)
    if not np.all(np.isfinite(u_raw)):
        raise ValueError("squash input must be finite")
    low = np.asarray(low, dtype=float).reshape(-1, 1)
    high = np.asarray(high, dtype=float).reshape(-1, 1)
    if np.any(low >= high):
        raise ValueError("action bounds require low < high per dimension")
    mid = 0.5 * (low + high)
    half = 0.5 * (high - low)
    return mid + half * np.tanh(u_raw)


def log_density(params: PolicyParams, u_raw: np.ndarray) -> np.ndarray:
    """Joint Gaussian log-density over all (A, H) entries, in pre-squash space.

    Accepts a single sequence (A, H) or a batch (..., A, H); returns a scalar
    or the matching batch of scalars.  Computed as a sum of per-entry log
    terms so high-dimensional joints never underflow.
    """
    u_raw = np.asarray(u_raw, dtype=float)
    z = (u_raw - params.mu) / params.sigma
    per_entry = -0.5 * LOG_2PI - np.log(params.sigma) - 0.5 * z * z
    return per_entry.sum(axis=(-2, -1))


def kl_divergence(theta: PolicyParams, theta_i: PolicyParams) -> float:
    """Closed-form KL( N(theta) || N(theta_i) ) for diagonal Gaussians."""
    if theta.mu.shape != theta_i.mu.shape:
        raise ValueError("parameter shapes must match")
    var = theta.sigma**2
    var_i = theta_i.sigma**2
    terms = np.log(var_i / var) + var / var_i + (theta_i.mu - theta.mu) ** 2 / var_i - 1.0
    return float(0.5 * terms.sum())


def mirror_map(theta: PolicyParams, theta_i: PolicyParams) -> tuple[np.ndarray, np.ndarray]:
    """Map theta into the mirror space defined by the KL geometry at theta_i.

    Returns the mirror point (z_mu, z_sigma), two arrays of theta's shape.
    """
    if theta.mu.shape != theta_i.mu.shape:
        raise ValueError("parameter shapes must match")
    var_i = theta_i.sigma**2
    return theta.mu / var_i, theta.sigma / var_i - 1.0 / theta.sigma


def mirror_inverse(z_mu: np.ndarray, z_sigma: np.ndarray, theta_i: PolicyParams) -> PolicyParams:
    """Invert the mirror map at theta_i back to policy parameters.

    sigma is floored at SIGMA_FLOOR.  A non-finite mirror point is rejected
    here: z_sigma = -inf would otherwise come back as sigma = SIGMA_FLOOR.
    For z_sigma < 0 the textbook quadratic-root form cancels catastrophically,
    so the conjugate form 2*sigma_i / (sqrt(...) - sigma_i*z) is used there.
    np.hypot keeps sqrt(sigma_i^2 z^2 + 4) from overflowing for large |z|.
    """
    if np.shape(z_mu) != theta_i.mu.shape or np.shape(z_sigma) != theta_i.mu.shape:
        raise ValueError("mirror point shape does not match reference")
    if not (np.all(np.isfinite(z_mu)) and np.all(np.isfinite(z_sigma))):
        raise ValueError("mirror point entries must be finite")
    var_i = theta_i.sigma**2
    sz = theta_i.sigma * z_sigma
    root = np.hypot(sz, 2.0)  # sqrt(sigma_i^2 z_sigma^2 + 4)
    # root - sz underflows to 0 for huge positive z_sigma; that branch is
    # discarded by the where, so silence the spurious division warning
    with np.errstate(divide="ignore"):
        sigma = np.where(
            z_sigma >= 0.0,
            0.5 * (var_i * z_sigma + theta_i.sigma * root),
            2.0 * theta_i.sigma / (root - sz),
        )
    return PolicyParams(var_i * z_mu, np.maximum(sigma, SIGMA_FLOOR))
