"""Cost-to-weight maps for the sampling-based MPC solvers.

Forward solvers use nonnegative weights (CEM elite indicators or MPPI
exponentials), rescaled to sum N.  Reverse-style solvers use signed
log-weights lnH = w1(J) - w_beta(-J), whose sum is (1 - beta) * N by
construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .envs import _check_reals

BACKENDS = ("cem", "mppi")


@dataclass(frozen=True)
class WeightConfig:
    backend: str = "mppi"
    quantile: float = 0.01  # CEM elite fraction, in (0, 1)
    temperature: float = 1.0  # MPPI temperature, > 0
    beta: float = 1.0  # negative ratio, in [0, 1]

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}, expected one of {BACKENDS}")
        _check_reals({name: getattr(self, name) for name in ("quantile", "temperature", "beta")})
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):  # inf weighs every cost alike
            raise ValueError(f"temperature must be > 0 and finite, got temperature={self.temperature}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def _check_costs(J: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(J, min J, max J), J flattened to floats."""
    J = np.asarray(J, dtype=float).ravel()
    if J.size < 1:
        raise ValueError("need at least one candidate cost")
    lo, hi = float(J.min()), float(J.max())  # a NaN or an infinity in J reaches one of them
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("costs must be finite (fold violations into J as penalties first)")
    return J, lo, hi


def _backend_weights(
    J: np.ndarray, lo: float, hi: float, config: WeightConfig, total: float, quantile: float
) -> np.ndarray:
    """Backend weights over J, whose min and max are lo and hi, rescaled to sum
    `total` (zeros when total == 0)."""
    n = J.size
    if total == 0.0:
        return np.zeros(n)
    if config.backend == "cem":
        # Nearest-rank quantile: k = ceil(q * N) elites, at least one, since a
        # subnormal beta * quantile underflows to 0; threshold ties broken by
        # candidate index via the stable sort.
        k = max(1, math.ceil(quantile * n))
        elite = np.argsort(J, kind="stable")[:k]
        w = np.zeros(n)
        w[elite] = total / k
        return w
    # MPPI: subtract the min before exponentiating to avoid overflow; the
    # normalization makes the shift immaterial.  min - J is -(J - min) exactly.
    # Below temperature 1 the quotient can overflow; exp is 0 from about -745
    # down, so gaps past 746 temperatures are clamped there, keeping every bit.
    if hi - lo <= sys.float_info.max:  # Python floats: never warns
        gap = lo - J
    else:  # a gap past the float max is -inf, whose exp is the right weight, 0
        with np.errstate(over="ignore"):
            gap = lo - J
    if config.temperature < 1.0:
        np.maximum(gap, -746.0 * config.temperature, out=gap)
    if config.temperature != 1.0:  # x / 1.0 has the bits of x
        gap /= config.temperature
    e = np.exp(gap, out=gap)
    s = e.sum()
    e *= total  # (total * e) / s, in place
    e /= s
    return e


def forward_weights(J: np.ndarray, config: WeightConfig) -> np.ndarray:
    """Nonnegative optimality weights, rescaled so the sum equals N."""
    J, lo, hi = _check_costs(J)
    return _backend_weights(J, lo, hi, config, float(J.size), config.quantile)


def signed_log_weights(J: np.ndarray, config: WeightConfig) -> np.ndarray:
    """Signed log-weights lnH = w1(J) - w_beta(-J); sum is (1 - beta) * N.

    The negative side applies the backend to negated costs and is normalized
    to beta * N.  For CEM this is realized as a tighter beta*quantile
    threshold over the worst candidates.
    """
    J, lo, hi = _check_costs(J)
    n = float(J.size)
    positive = _backend_weights(J, lo, hi, config, n, config.quantile)
    negative = _backend_weights(-J, -hi, -lo, config, config.beta * n, config.beta * config.quantile)
    return positive - negative


def partition_clusters(lnH: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index sets (C+, C-) of strictly positive / strictly negative weights.

    Zero-weight candidates carry no gradient and belong to neither cluster.
    """
    lnH = np.asarray(lnH, dtype=float).ravel()
    # the method, not np.flatnonzero: the same indices without its wrapper's ravel and dispatch
    return (lnH > 0.0).nonzero()[0], (lnH < 0.0).nonzero()[0]
