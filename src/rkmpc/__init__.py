"""Sampling-based MPC with reverse-KL mirror descent, rejection-composed
policies, and noise-adaptive Nesterov acceleration."""

from .envs import EnvSpec, make_env
from .policy import PolicyParams
from .solvers import ControlResult, SolverConfig, SolverState, solve
from .weights import WeightConfig

__all__ = [
    "ControlResult",
    "EnvSpec",
    "PolicyParams",
    "SolverConfig",
    "SolverState",
    "WeightConfig",
    "make_env",
    "solve",
]
