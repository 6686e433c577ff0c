"""Diagonal-Gaussian action-sequence policy and its mirror-descent geometry.

A policy is a diagonal Gaussian over a (action_dim, horizon) grid of
pre-squash actions.  Action sequences are plain float arrays of shape
(action_dim, horizon); batches stack them along a leading axis.  All
optimization happens in pre-squash space; costs are evaluated on squashed
actions, which keeps the Gaussian algebra exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class Gaussian(NamedTuple):
    """(mu, sigma) of one diagonal Gaussian as the arrays themselves: no
    checks and no copies, for arrays a caller already holds valid, such as
    views of one side of a `SolverState`."""

    mu: np.ndarray
    sigma: np.ndarray


def standard_prior(action_dim: int, horizon: int) -> PolicyParams:
    """Zero-mean, unit-scale prior in pre-squash space."""
    shape = (action_dim, horizon)
    return PolicyParams(np.zeros(shape), np.ones(shape))


def sample_batch(params: PolicyParams | Gaussian, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` pre-squash action sequences, shape (count, A, H).

    The standard normals that `rng.standard_normal(size)` returns are
    transformed in place and returned, whoever serves them: a Generator's
    fresh array, or a buffer drawn into beforehand.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = rng.standard_normal((count,) + params.mu.shape)
    u *= params.sigma
    u += params.mu
    return u


@lru_cache(maxsize=32)
def _squash_bounds(low: bytes, high: bytes, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """(low, high, mid, half, inside) of one set of float64 bounds, given by their
    bytes, shaped (A, 1, ...) to broadcast over (A, H, ...) memory of `ndim` axes.
    The arrays are read-only, since every call with these bounds shares them.
    Bounds with low >= high, or with a non-finite mid or half (a bound that is
    not finite, or a sum or difference that overflows), raise ValueError; the
    cache keeps no exception, so such bounds are checked again at every call."""
    bounds_shape = (-1,) + (1,) * (ndim - 1)
    low, high = np.frombuffer(low).reshape(bounds_shape), np.frombuffer(high).reshape(bounds_shape)
    with np.errstate(over="ignore", invalid="ignore"):  # such bounds are rejected below
        mid = 0.5 * (low + high)
        half = 0.5 * (high - low)
    if not (np.isfinite(mid).all() and np.isfinite(half).all() and (low < high).all()):
        raise ValueError("action bounds require low < high per dimension, with low + high and high - low finite")
    # on Python floats, cheaper than ufuncs for small A
    inside = all(
        lo <= a < b <= hi
        for lo, a, b, hi in zip(low.ravel().tolist(), (mid - half).ravel().tolist(),
                                (mid + half).ravel().tolist(), high.ravel().tolist())
    )
    mid.setflags(write=False)
    half.setflags(write=False)
    return low, high, mid, half, inside


def squash(u_raw: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Map pre-squash actions into the closed interval [low, high] per action dim.

    tanh-based affine map: odd-symmetric about the bound midpoint, so the
    (0, I) prior is centered on the middle of the action range.  Bounds are
    per-action-dim arrays of shape (A,), broadcast over the horizon axis.
    With mid = 0.5 * (low + high) and half = 0.5 * (high - low), the result
    has the bits of np.clip(mid + half * tanh(u), low, high), but for the
    sign of a zero on a bound of the other sign (numpy's clip loops disagree
    on it).  Rounding is monotone, so mid + half * tanh(u) stays within the
    rounded mid - half and mid + half.  Only where one of those rounds past
    its bound, as it can for asymmetric bounds, can a saturated tanh (|u| >
    about 19) land one ulp outside, and only then does the clamp run: an
    O(A) test on the bounds decides.  Every built-in env's bounds are
    symmetric and skip it.  A non-finite u raises
    ValueError("squash input must be finite").  So do a u_raw of fewer than
    two axes, bounds of a shape other than (A,) for its A = u_raw.shape[-2],
    and bounds without low < high in every dimension or with a non-finite mid
    or half.

    mid, half, their check and that test are prepared once per distinct set
    of bound values and input rank, and reused by later calls: the bounds are
    read on every call and looked up by their bytes, never by the arrays'
    identity, so bounds changed in place take effect, and are checked, at the
    next call.

    The result is a new array with the shape of `u_raw`, never a view of it.
    A batch (..., A, H) is computed in (A, H, ...) memory and returned as a
    (..., A, H) view of it, so `rollout_batch` takes its (A, H, N) layout
    without a copy.  Every value has the bits of the same map on one (A, H)
    sequence.
    """
    u_raw = np.asarray(u_raw, dtype=float)
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    if u_raw.ndim < 2 or (low.shape, high.shape) != (u_raw.shape[-2:-1],) * 2:
        raise ValueError(f"squash takes u_raw of shape (..., A, H) and bounds of shape (A,), "
                         f"got u_raw {u_raw.shape}, low {low.shape} and high {high.shape}")
    low, high, mid, half, inside = _squash_bounds(low.tobytes(), high.tobytes(), u_raw.ndim)
    out = np.empty(u_raw.shape[-2:] + u_raw.shape[:-2])
    squashed = out.transpose(tuple(range(2, out.ndim)) + (0, 1))  # the result, shaped as u_raw
    np.copyto(squashed, u_raw)
    # count_nonzero, not .all(): the same test at less cost on small batches
    finite = np.isfinite(out)
    if np.count_nonzero(finite) != finite.size:
        raise ValueError("squash input must be finite")
    np.tanh(out, out=out)  # on contiguous memory: numpy may take another tanh loop for strided input
    out *= half
    out += mid
    if not inside:
        np.clip(out, low, high, out=out)
    return squashed


def log_density(params: PolicyParams | Gaussian, u_raw: np.ndarray) -> np.ndarray:
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
    return np.add.reduce(z, axis=(-2, -1))  # what .sum calls, without its wrapper


def kl_divergence(theta: PolicyParams, theta_i: PolicyParams) -> float:
    """Closed-form KL( N(theta) || N(theta_i) ) for diagonal Gaussians."""
    if theta.mu.shape != theta_i.mu.shape:
        raise ValueError("parameter shapes must match")
    var = theta.sigma**2
    var_i = theta_i.sigma**2
    terms = np.log(var_i / var) + var / var_i + (theta_i.mu - theta.mu) ** 2 / var_i - 1.0
    return float(0.5 * terms.sum())


def _shape(a) -> tuple:
    """np.shape(a), read off an ndarray without the call."""
    return a.shape if a.__class__ is np.ndarray else np.shape(a)


def mirror_map(mu: np.ndarray, sigma: np.ndarray, sigma_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mirror point (z_mu, z_sigma) of (mu, sigma) in the KL geometry at scale
    sigma_i; all arrays share one shape, (A, H) or with sides stacked ahead."""
    if _shape(mu) != _shape(sigma_i) or _shape(sigma) != _shape(sigma_i):
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
    if _shape(z_mu) != _shape(sigma_i) or _shape(z_sigma) != _shape(sigma_i):
        raise ValueError("mirror point shape does not match reference")
    # count_nonzero, not .all(): the same test at less cost on (2, A, H) arrays
    finite_mu, finite_sigma = np.isfinite(z_mu), np.isfinite(z_sigma)
    if np.count_nonzero(finite_mu) + np.count_nonzero(finite_sigma) != finite_mu.size + finite_sigma.size:
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
