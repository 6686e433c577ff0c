"""Analytic desk-scale environments with deterministic batched rollouts.

Each environment is an EnvSpec whose dynamics / cost callables operate on
batches: states are (N, state_dim) arrays, actions (N, action_dim).  The
rollout model and the "true" environment are the same analytic functions;
model mismatch is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DEFAULT_DT = 0.1  # mirrors a 10 Hz control period
DEFAULT_PENALTY = 1e4

# Cost-landscape constants, referenced by tests.
BIMODAL_MODES = (-0.55, 0.55)
BIMODAL_DEPTHS = (0.08, 0.0)  # deeper mode on the right
BIMODAL_CURVATURE = 40.0
TRAP_MODES = (-0.5, 0.5)
TRAP_DEPTHS = (0.05, 0.0)
TRAP_CURVATURE = 5.0
TRAP_EDGE = 0.75
TRAP_COST = 60.0
OVERLAP_GOOD = 0.3
OVERLAP_BAD_CENTER = 0.39
OVERLAP_BAD_HALFWIDTH = 0.08
OVERLAP_BAD_COST = 8.0
OVERLAP_CURVATURE = 20.0
QUADRATIC_TARGET = 0.5


@dataclass(frozen=True)
class EnvSpec:
    """Dynamics, costs, and bounds of one control task (batched callables)."""

    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stage_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    constraint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraint_penalty: float = DEFAULT_PENALTY
    initial_state: np.ndarray = field(default_factory=lambda: np.zeros(1))


def rollout_batch(env: EnvSpec, x_t: np.ndarray, u_squashed: np.ndarray) -> np.ndarray:
    """Costs J for a batch of squashed action sequences, shape (N, A, H).

    J = terminal(x_{t+H+1}) + sum_tau [ stage(x, u) + penalty * max(0, c(x, u)) ].
    A diverged candidate (non-finite cost or state) is marked J = +inf; what
    it costs is decided by the solver, so J never depends on the batch.
    """
    n, _, horizon = u_squashed.shape
    x = np.broadcast_to(np.asarray(x_t, dtype=float), (n, env.state_dim)).copy()
    J = np.zeros(n)
    for tau in range(horizon):
        u = u_squashed[:, :, tau]
        J += env.stage_cost(x, u)
        J += env.constraint_penalty * np.maximum(0.0, env.constraint(x, u))
        x = env.dynamics(x, u)
    J += env.terminal_cost(x)
    J[~np.isfinite(J) | ~np.all(np.isfinite(x), axis=1)] = np.inf
    return J


def _no_constraint(x, u):
    return np.full(x.shape[0], -1.0)


def _static(name: str, action_cost: Callable[[np.ndarray], np.ndarray], low=-1.0, high=1.0) -> EnvSpec:
    """1-D static landscape: state is inert, cost depends on the action only."""
    return EnvSpec(
        name=name,
        state_dim=1,
        action_dim=1,
        action_low=np.array([low]),
        action_high=np.array([high]),
        dynamics=lambda x, u: x,
        stage_cost=lambda x, u: action_cost(u[:, 0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        constraint=_no_constraint,
        initial_state=np.zeros(1),
    )


def quadratic_bowl() -> EnvSpec:
    """Unimodal 1-D quadratic in the action; minimum at QUADRATIC_TARGET."""
    return _static("quadratic_bowl", lambda u: (u - QUADRATIC_TARGET) ** 2)


def bimodal_valley_cost(u: np.ndarray) -> np.ndarray:
    m1, m2 = BIMODAL_MODES
    d1, d2 = BIMODAL_DEPTHS
    k = BIMODAL_CURVATURE
    return np.minimum(d1 + k * (u - m1) ** 2, d2 + k * (u - m2) ** 2)


def bimodal_valley() -> EnvSpec:
    """Two separated minima of slightly different depth; mode-seeking test bed."""
    return _static("bimodal_valley", bimodal_valley_cost)


def trap_corridor_cost(u: np.ndarray) -> np.ndarray:
    m1, m2 = TRAP_MODES
    d1, d2 = TRAP_DEPTHS
    k = TRAP_CURVATURE
    base = np.minimum(d1 + k * (u - m1) ** 2, d2 + k * (u - m2) ** 2)
    return base + TRAP_COST * (u > TRAP_EDGE)


def trap_corridor() -> EnvSpec:
    """Two good regions, the better one adjacent to a catastrophic trap."""
    return _static("trap_corridor", trap_corridor_cost)


def overlap_trap_cost(u: np.ndarray) -> np.ndarray:
    base = OVERLAP_CURVATURE * (u - OVERLAP_GOOD) ** 2
    return base + OVERLAP_BAD_COST * (np.abs(u - OVERLAP_BAD_CENTER) < OVERLAP_BAD_HALFWIDTH)


def overlap_trap() -> EnvSpec:
    """Quadratic valley with a severe cost band right beside its floor, so a
    density model of the bad candidates overlaps the good region."""
    return _static("overlap_trap", overlap_trap_cost)


def point_reacher(goal=(0.6, -0.4)) -> EnvSpec:
    """2-D point mass accelerating toward a goal; unimodal quadratic cost."""
    goal_arr = np.asarray(goal, dtype=float)
    dt = DEFAULT_DT

    def dynamics(x, u):
        pos = x[:, :2] + dt * x[:, 2:]
        vel = x[:, 2:] + dt * u
        return np.concatenate([pos, vel], axis=1)

    def stage(x, u):
        d = x[:, :2] - goal_arr
        return (d * d).sum(axis=1) + 0.01 * (u * u).sum(axis=1)

    def terminal(x):
        d = x[:, :2] - goal_arr
        return 5.0 * (d * d).sum(axis=1)

    return EnvSpec(
        name="point_reacher",
        state_dim=4,
        action_dim=2,
        action_low=np.array([-1.0, -1.0]),
        action_high=np.array([1.0, 1.0]),
        dynamics=dynamics,
        stage_cost=stage,
        terminal_cost=terminal,
        constraint=_no_constraint,
        initial_state=np.zeros(4),
    )


PENDULUM_GRAVITY = 9.81
PENDULUM_TORQUE = 2.0


def pendulum_swingup() -> EnvSpec:
    """Torque-limited pendulum (angle measured from upright), explicit Euler.

    Max torque is well below m*g*l, so swing-up needs pumping.  State is
    [angle, angular velocity]; angle 0 with zero velocity and zero torque is
    a fixed point of the dynamics.
    """
    dt = DEFAULT_DT

    def dynamics(x, u):
        phi, omega = x[:, 0], x[:, 1]
        domega = PENDULUM_GRAVITY * np.sin(phi) + u[:, 0]
        phi_next = phi + dt * omega
        omega_next = omega + dt * domega
        return np.stack([phi_next, omega_next], axis=1)

    def wrap(phi):
        return (phi + np.pi) % (2.0 * np.pi) - np.pi

    def stage(x, u):
        return wrap(x[:, 0]) ** 2 + 0.1 * x[:, 1] ** 2 + 0.001 * u[:, 0] ** 2

    def terminal(x):
        return 5.0 * (wrap(x[:, 0]) ** 2 + 0.1 * x[:, 1] ** 2)

    return EnvSpec(
        name="pendulum_swingup",
        state_dim=2,
        action_dim=1,
        action_low=np.array([-PENDULUM_TORQUE]),
        action_high=np.array([PENDULUM_TORQUE]),
        dynamics=dynamics,
        stage_cost=stage,
        terminal_cost=terminal,
        constraint=_no_constraint,
        initial_state=np.array([np.pi, 0.0]),
    )


REGISTRY: dict[str, Callable[[], EnvSpec]] = {
    "quadratic_bowl": quadratic_bowl,
    "bimodal_valley": bimodal_valley,
    "trap_corridor": trap_corridor,
    "overlap_trap": overlap_trap,
    "point_reacher": point_reacher,
    "pendulum_swingup": pendulum_swingup,
}


def make_env(name: str) -> EnvSpec:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; available: {sorted(REGISTRY)}") from None
