"""Cost-to-weight maps for the sampling-based MPC solvers.

Forward solvers use nonnegative weights (CEM elite indicators or MPPI
exponentials), rescaled to sum N.  Reverse-style solvers use signed
log-weights lnH = w1(J) - w_beta(-J), whose sum is (1 - beta) * N by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def _check_costs(J: np.ndarray) -> np.ndarray:
    J = np.asarray(J, dtype=float).ravel()
    if J.size < 1:
        raise ValueError("need at least one candidate cost")
    if not np.all(np.isfinite(J)):
        raise ValueError("costs must be finite (fold violations into J as penalties first)")
    return J


def _backend_weights(J: np.ndarray, config: WeightConfig, total: float, quantile: float) -> np.ndarray:
    """Backend weights over J rescaled to sum `total` (zeros when total == 0)."""
    n = J.size
    if total == 0.0:
        return np.zeros(n)
    if config.backend == "cem":
        # Nearest-rank quantile: k = ceil(q * N) elites; threshold ties broken
        # by candidate index via the stable sort.
        k = math.ceil(quantile * n)
        if k < 1:
            raise ValueError("quantile selects no candidate")
        elite = np.argsort(J, kind="stable")[:k]
        w = np.zeros(n)
        w[elite] = total / k
        return w
    # MPPI: subtract the min before exponentiating to avoid overflow; the
    # normalization makes the shift immaterial.
    e = np.exp(-(J - J.min()) / config.temperature)
    return total * e / e.sum()


def forward_weights(J: np.ndarray, config: WeightConfig) -> np.ndarray:
    """Nonnegative optimality weights, rescaled so the sum equals N."""
    J = _check_costs(J)
    return _backend_weights(J, config, float(J.size), config.quantile)


def signed_log_weights(J: np.ndarray, config: WeightConfig) -> np.ndarray:
    """Signed log-weights lnH = w1(J) - w_beta(-J); sum is (1 - beta) * N.

    The negative side applies the backend to negated costs and is normalized
    to beta * N.  For CEM this is realized as a tighter beta*quantile
    threshold over the worst candidates.
    """
    J = _check_costs(J)
    n = float(J.size)
    positive = _backend_weights(J, config, n, config.quantile)
    negative = _backend_weights(-J, config, config.beta * n, config.beta * config.quantile)
    return positive - negative


def partition_clusters(lnH: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index sets (C+, C-) of strictly positive / strictly negative weights.

    Zero-weight candidates carry no gradient and belong to neither cluster.
    """
    lnH = np.asarray(lnH, dtype=float).ravel()
    return np.flatnonzero(lnH > 0.0), np.flatnonzero(lnH < 0.0)
