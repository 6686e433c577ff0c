"""Analytic desk-scale environments with deterministic batched rollouts.

Each environment is an EnvSpec whose dynamics / cost callables operate on
batches: states are (N, state_dim) arrays, actions (N, action_dim), each
column contiguous in memory (see rollout_batch).  The
rollout model and the "true" environment are the same analytic functions;
model mismatch is out of scope.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .policy import _squash_bounds

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


def _check_integers(values: dict[str, object]) -> None:
    """Reject any value that is not an integer (numpy's integers are; bool is not), by name."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_reals(values: dict[str, object]) -> None:
    """Reject any value that is not a real number (numpy's floats and integers are; bool is not), by name."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _no_constraint(x, u):
    return np.full(x.shape[0], -1.0)


@dataclass(frozen=True)
class EnvSpec:
    """Dynamics, costs, and bounds of one control task (batched callables).

    dynamics maps states (N, state_dim) and actions (N, action_dim) to the
    next states; terminal_cost returns (N,).  stage_cost and constraint get
    the rows of several steps at once, so they must be row-wise: one value
    per row, from that row alone.
    dynamics may carry a callable attribute `advance(states, actions)`:
    states is (k + 1, N, state_dim), a view of the rollout's block of states
    whose row 0 holds the block's start, and actions is (k, N, action_dim).
    It fills states[1:] in place with the bits of k dynamics calls, each step
    from the last, so a rollout makes one call per block instead of k.  It
    is the one callable that may write, and only into states[1:]; no other
    may write to its inputs.  It belongs to the callable, not to the EnvSpec,
    so an EnvSpec given another dynamics (by `dataclasses.replace` too) steps
    that one.  Every registered env writes its step once, as advance, and
    its dynamics is one step of it (see _one_step), so each rolls out one
    advance call per block.
    A rollout passes views whose every column is contiguous, not C-contiguous
    arrays (advance's every step and column); an output made with
    np.empty_like(x) keeps that layout, and any other is copied into it.
    Elementwise column arithmetic gives the same bits in either layout, but
    a row reduction over 8 or more columns, such as x.sum(axis=1), may
    differ in the last bit from the same call on a C-ordered array (numpy
    sums 8 or more contiguous values pairwise).
    Outputs are real: a rollout takes an ndarray of bool, integer or float
    dtype as it is, converts any other output (a list, a scalar) with
    np.asarray(out, dtype=float), and raises ValueError naming env.<callable>
    for a complex or other non-real dtype, or for an output of the wrong
    shape.
    constraint defaults to none (-1 for every row, so no penalty).
    state_dim and action_dim are integers >= 1 (not bool), the four callables
    and a dynamics.advance that is set are callable, action_low and
    action_high are finite (action_dim,) arrays with low < high and a finite
    low + high and high - low in every dimension (the rule `squash` applies),
    initial_state is finite with shape (state_dim,), and constraint_penalty
    is a finite real number >= 0; a bad field raises ValueError naming it at
    construction, `dataclasses.replace` included.  The three array fields
    are stored as float arrays, so they may be given as lists.
    """

    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stage_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    constraint: Callable[[np.ndarray, np.ndarray], np.ndarray] = _no_constraint
    constraint_penalty: float = DEFAULT_PENALTY
    initial_state: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        _check_integers({"state_dim": self.state_dim, "action_dim": self.action_dim})
        for name in ("state_dim", "action_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("dynamics", "stage_cost", "terminal_cost", "constraint"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable, got {getattr(self, name)!r}")
        advance = getattr(self.dynamics, "advance", None)
        if advance is not None and not callable(advance):
            raise ValueError(f"dynamics.advance must be callable, got {advance!r}")
        for name in ("action_low", "action_high", "initial_state"):  # lists and int arrays too
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("action_low", "action_high"):
            bound = getattr(self, name)
            if bound.shape != (self.action_dim,) or not np.isfinite(bound).all():
                raise ValueError(f"{name} must be finite with shape {(self.action_dim,)}, got {bound.shape}")
        _squash_bounds(self.action_low.tobytes(), self.action_high.tobytes(), 2)  # the rule squash applies
        if self.initial_state.shape != (self.state_dim,):
            raise ValueError(f"initial_state must have shape {(self.state_dim,)}, got {self.initial_state.shape}")
        if not np.isfinite(self.initial_state).all():
            raise ValueError(f"initial_state must be finite, got {self.initial_state}")
        _check_reals({"constraint_penalty": self.constraint_penalty})
        if not 0.0 <= self.constraint_penalty < np.inf:  # NaN makes every rollout diverged
            raise ValueError(f"constraint_penalty must be finite and >= 0, got {self.constraint_penalty}")


# Rows per stage_cost / constraint call: a block of max(1, BLOCK_ROWS // N) steps.
# A (1024, A, 50) rollout alone took 669, 625 and 590 us for point_reacher at 4096,
# 8192 and 16384 rows, and 228, 187 and 167 us for overlap_trap, but whole
# reacher-shape forward solves took 1285, 1252 and 1609 us per iteration: at 16384
# the larger temporaries fault their pages in afresh (375 minor faults per iteration
# against 8 at 8192).
BLOCK_ROWS = 8192


def _checked(name: str, out, shape: tuple) -> np.ndarray:
    """`out` as an ndarray of `shape` with real entries (see EnvSpec), or ValueError naming env.`name`."""
    if not isinstance(out, np.ndarray):
        try:
            out = np.asarray(out, dtype=float)
        except (TypeError, ValueError) as e:
            raise ValueError(f"env.{name} returned {type(out).__name__}, not real numbers: {e}") from None
    elif out.dtype.kind not in "biuf":  # bool, int, uint, float
        raise ValueError(f"env.{name} returned dtype {out.dtype}, expected real numbers")
    if out.shape != shape:
        raise ValueError(f"env.{name} returned shape {out.shape}, expected {shape}")
    return out


def _step_each(dynamics: Callable, states: np.ndarray, actions: np.ndarray) -> None:
    """The block stepper of a bare dynamics, one without `advance` (see
    EnvSpec): fills states[1:] with one dynamics call per step, each output
    checked.  No registered env steps through it."""
    for k in range(actions.shape[0]):
        states[k + 1] = _checked("dynamics", dynamics(states[k], actions[k]), states.shape[1:])


def rollout_batch(env: EnvSpec, x_t: np.ndarray, u_squashed: np.ndarray) -> np.ndarray:
    """Costs J for a batch of squashed action sequences, shape (N, A, H).

    J = terminal(x_{t+H+1}) + sum_tau [ stage(x, u) + penalty * max(0, c(x, u)) ].
    dynamics.advance, which every registered env's dynamics has, fills each
    block of steps in one call; a bare dynamics (one without advance, such
    as a user's or one given by `dataclasses.replace`) runs once per step
    through _step_each.  stage_cost and constraint run once per block of
    steps over all of its rows, and J is summed step by step (the first
    block's steps by one reduction over them, which adds them in the same
    order, from the same +0.0, when nothing is added between).  An env with
    the default constraint skips the constraint call and the penalty sums,
    which would add exactly 0.0: J starts at +0.0, so it is never -0.0, and
    J + 0.0 has the bits of J.
    States are kept as (state_dim, steps + 1, N) and actions as (A, H, N),
    so the (rows, dim) arrays the callables get are views whose every column
    is contiguous: a column slice such as x[:, :2] runs one inner loop over
    all rows instead of one of length 2 per row.
    Outputs made with np.empty_like(x) keep that layout; see EnvSpec for the
    one case (row sums over 8 or more columns) whose bits follow the layout.
    A u_squashed that is not an ndarray is converted by np.asarray, with no
    dtype forced.  One that numpy cannot convert (a ragged list), one of a
    shape other than (N, env.action_dim, H), or an x_t other than
    (env.state_dim,) raises ValueError naming it and the expected shape, and
    so does a callable's output of the wrong shape or of a non-real dtype
    (EnvSpec states the rule).  A diverged candidate
    (non-finite cost or state) is marked J = +inf; what it costs is decided
    by the solver, so J never depends on the batch.
    """
    if u_squashed.__class__ is not np.ndarray:  # no call for an ndarray
        try:
            u_squashed = np.asarray(u_squashed)
        except ValueError as exc:  # such as a ragged list
            raise ValueError(f"u_squashed must have shape (N, {env.action_dim}, H), got a ragged sequence") from exc
    if u_squashed.ndim != 3 or u_squashed.shape[1] != env.action_dim:
        raise ValueError(f"u_squashed must have shape (N, {env.action_dim}, H), got {u_squashed.shape}")
    if np.shape(x_t) != (env.state_dim,):
        raise ValueError(f"x_t must have shape {(env.state_dim,)}, got {np.shape(x_t)}")
    n, a, horizon = u_squashed.shape
    block = max(1, BLOCK_ROWS // max(n, 1))
    # (H, N, A) and (steps, N, state_dim) views of (A, H, N) and (state_dim, steps, N);
    # `squash` returns its batch in (A, H, N) memory, so the actions are not copied
    u_at = np.ascontiguousarray(u_squashed.transpose(1, 2, 0)).transpose(1, 2, 0)
    x_at = np.empty((env.state_dim, min(block, horizon) + 1, n)).transpose(1, 2, 0)  # one block of states
    x_at[0] = x_t
    J = np.zeros(n)
    advance = getattr(env.dynamics, "advance", None) or partial(_step_each, env.dynamics)
    steps = 0
    for start in range(0, horizon, block):
        if steps:  # the next block starts from the last block's final state
            x_at[0] = x_at[steps]
        steps = min(block, horizon - start)
        u_block = u_at[start : start + steps]
        advance(x_at[: steps + 1], u_block)
        rows = steps * n
        x_rows = x_at[:steps].reshape(rows, env.state_dim)
        u_rows = u_block.reshape(rows, a)
        stage = _checked("stage_cost", env.stage_cost(x_rows, u_rows), (rows,)).reshape(steps, n)
        penalty = None
        if env.constraint is not _no_constraint:  # the default's penalty is 0.0 (see above)
            violation = _checked("constraint", env.constraint(x_rows, u_rows), (rows,))
            penalty = (env.constraint_penalty * np.maximum(0.0, violation)).reshape(steps, n)
        if penalty is None and not start and n > 1:
            # the loop below, in one call: numpy reduces a (steps, n > 1) array over axis 0 a
            # row at a time, each in float64, from `initial`, J's +0.0 (at n = 1 it would sum
            # the column pairwise)
            J = np.add.reduce(stage, axis=0, dtype=float, initial=0.0)
            continue
        for k in range(steps):
            J += stage[k]
            if penalty is not None:
                J += penalty[k]
    x_end = x_at[steps]
    J += _checked("terminal_cost", env.terminal_cost(x_end), (n,))
    # the mask is built only for a batch with a non-finite J or end state; count_nonzero
    # tests for one at less cost than .all() on small batches
    if np.count_nonzero(np.isfinite(J)) != n or np.count_nonzero(np.isfinite(x_end)) != x_end.size:
        J[~np.isfinite(J) | ~np.isfinite(x_end).all(axis=1)] = np.inf
    return J


def _static(name: str, action_cost: Callable[[np.ndarray], np.ndarray]) -> EnvSpec:
    """1-D static landscape: state is inert, cost depends on the action only.
    Its advance copies each block's start into the block's rows, so it rolls
    out a block per call like every registered env (see _one_step)."""
    return EnvSpec(
        name=name,
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        dynamics=_one_step(lambda states, actions: np.copyto(states[1:], states[0])),
        stage_cost=lambda x, u: action_cost(u[:, 0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
    )


def _two_wells(u: np.ndarray, modes: tuple, depths: tuple, k: float) -> np.ndarray:
    (m1, m2), (d1, d2) = modes, depths
    return np.minimum(d1 + k * (u - m1) ** 2, d2 + k * (u - m2) ** 2)


def bimodal_valley_cost(u: np.ndarray) -> np.ndarray:
    return _two_wells(u, BIMODAL_MODES, BIMODAL_DEPTHS, BIMODAL_CURVATURE)


def trap_corridor_cost(u: np.ndarray) -> np.ndarray:
    return _two_wells(u, TRAP_MODES, TRAP_DEPTHS, TRAP_CURVATURE) + TRAP_COST * (u > TRAP_EDGE)


def overlap_trap_cost(u: np.ndarray) -> np.ndarray:
    base = OVERLAP_CURVATURE * (u - OVERLAP_GOOD) ** 2
    return base + OVERLAP_BAD_COST * (np.abs(u - OVERLAP_BAD_CENTER) < OVERLAP_BAD_HALFWIDTH)


def _one_step(advance: Callable) -> Callable:
    """The dynamics that is one step of `advance`, which it carries as its
    attribute, so an env writes its step once: x is copied into row 0 of a
    float64 block of two states, laid out as rollout_batch keeps its states,
    and row 1 is returned, in that column-contiguous layout."""
    def dynamics(x, u):
        states = np.empty((x.shape[1], 2, x.shape[0])).transpose(1, 2, 0)
        states[0] = x
        advance(states, u[None])
        return states[1]

    dynamics.advance = advance
    return dynamics


def point_reacher() -> EnvSpec:
    """2-D point mass accelerating toward a goal; unimodal quadratic cost."""
    goal = np.array([0.6, -0.4])
    dt = DEFAULT_DT

    # Each callable writes into its own outputs and temporaries, in place.  Every
    # element sees the operations of the plain expressions (x + dt * v, d0 * d0 +
    # d1 * d1, ...), reordered only where IEEE addition and products commute.
    # advance takes a block of steps in 4 array operations and one += per step and
    # column pair: vel' = dt * u + vel over every step, then pos' = dt * vel + pos.
    # np.add.accumulate along the step axis gives the same bits, but runs its inner
    # loop along that short axis: a rollout at (1024, 2, 50) took 1377-1444 us with
    # it, against 519-534 us this way.
    def advance(states, actions):
        pos, vel = states[:, :, :2], states[:, :, 2:]
        np.multiply(actions, dt, out=vel[1:])
        for j in range(actions.shape[0]):
            vel[j + 1] += vel[j]
        np.multiply(vel[:-1], dt, out=pos[1:])
        for j in range(actions.shape[0]):
            pos[j + 1] += pos[j]

    # squares written out: a .sum(axis=1) over a length-2 axis is 6x slower
    def sq_dist(x):
        d0, d1 = x[:, 0] - goal[0], x[:, 1] - goal[1]
        d0 *= d0
        d1 *= d1
        d0 += d1
        return d0

    def stage(x, u):
        cost = u[:, 0] * u[:, 0]
        cost += u[:, 1] * u[:, 1]
        cost *= 0.01
        cost += sq_dist(x)
        return cost

    def terminal(x):
        cost = sq_dist(x)
        cost *= 5.0
        return cost

    return EnvSpec(
        name="point_reacher",
        state_dim=4,
        action_dim=2,
        action_low=np.array([-1.0, -1.0]),
        action_high=np.array([1.0, 1.0]),
        dynamics=_one_step(advance),
        stage_cost=stage,
        terminal_cost=terminal,
        initial_state=np.zeros(4),
    )


def _constants(*values: float) -> tuple[np.ndarray, ...]:
    """Each value as a read-only 0-d float64 array."""
    arrays = tuple(np.array(value, dtype=float) for value in values)
    for a in arrays:
        a.setflags(write=False)
    return arrays


PENDULUM_GRAVITY = 9.81
PENDULUM_TORQUE = 2.0


def pendulum_swingup() -> EnvSpec:
    """Torque-limited pendulum (angle measured from upright), explicit Euler.

    Max torque is well below m*g*l, so swing-up needs pumping.  State is
    [angle, angular velocity]; angle 0 with zero velocity and zero torque is
    a fixed point of the dynamics.  The callables compute in place, with the
    bits of the plain expressions in their comments (NaN signs aside), for
    float64 states (as rollout_batch keeps them) and actions of any real
    dtype.  dynamics is one step of dynamics.advance (see _one_step), so it
    computes a state of another dtype as its float64 copy; stage and
    terminal give such a state float64 results whose bits are not pinned.
    advance writes each step straight into the block of states, and sin
    writes into a contiguous temporary as the plain np.sin(phi) does into a
    fresh array, so numpy runs the same sin loop (a strided output may take
    another one, whose bits are not pinned).
    """
    # The constants the states meet are 0-d float64 arrays: as a ufunc operand of a
    # float64 array each gives the bits of the Python float, without the conversion
    # numpy makes of a Python float on every call (about 0.2 us of a 0.6 us product
    # at N = 32).  A float32 operand would be computed in float64 with them, so the
    # action's one constant, in stage, stays a Python float.
    dt, gravity, pi, two_pi = _constants(DEFAULT_DT, PENDULUM_GRAVITY, np.pi, 2.0 * np.pi)
    tenth, five = _constants(0.1, 5.0)

    # Each callable writes into its own temporaries, in place.  Every element sees
    # the operations of the plain expressions (phi + dt * omega, omega + dt * (g *
    # sin(phi) + u), wrap(phi) ** 2 + 0.1 * omega ** 2 + ...), reordered only where
    # IEEE addition and products commute; a ** 2 is a * a.  They commute in value
    # only: a sum of two NaNs takes its first operand's sign, so such a NaN's sign
    # may differ from the plain expression's.  advance writes a block of steps
    # straight into the state block: 7 ufunc calls per step and one (N,) temporary
    # per block.  zip yields each step's row views from C: indexing them
    # (phi[j + 1], ...) took a (32, 12) block 44-45 us against 37 us.
    def advance(states, actions):
        phi, omega = states[:, :, 0], states[:, :, 1]
        t = np.empty(states.shape[1])
        for phi0, phi1, omega0, omega1, u in zip(phi[:-1], phi[1:], omega[:-1], omega[1:], actions[:, :, 0]):
            np.multiply(omega0, dt, out=phi1)
            phi1 += phi0
            np.sin(phi0, out=t)
            t *= gravity
            t += u
            t *= dt
            np.add(t, omega0, out=omega1)

    def sq_wrapped(phi):  # wrap(phi) ** 2, with wrap(phi) = (phi + pi) % 2pi - pi
        w = phi + pi
        np.remainder(w, two_pi, out=w)
        w -= pi
        w *= w
        return w

    def energy(x):  # wrap(phi) ** 2 + 0.1 * omega ** 2
        cost = sq_wrapped(x[:, 0])
        omega2 = x[:, 1] * x[:, 1]
        omega2 *= tenth
        cost += omega2
        return cost

    def stage(x, u):  # energy(x) + 0.001 * u ** 2, in u's dtype as the plain expression
        cost = energy(x)
        cost += 0.001 * (u[:, 0] * u[:, 0])
        return cost

    def terminal(x):
        cost = energy(x)
        cost *= five
        return cost

    return EnvSpec(
        name="pendulum_swingup",
        state_dim=2,
        action_dim=1,
        action_low=np.array([-PENDULUM_TORQUE]),
        action_high=np.array([PENDULUM_TORQUE]),
        dynamics=_one_step(advance),
        stage_cost=stage,
        terminal_cost=terminal,
        initial_state=np.array([np.pi, 0.0]),
    )


_STATIC_COSTS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    # unimodal 1-D quadratic in the action; minimum at QUADRATIC_TARGET
    "quadratic_bowl": lambda u: (u - QUADRATIC_TARGET) ** 2,
    # two separated minima of slightly different depth; mode-seeking test bed
    "bimodal_valley": bimodal_valley_cost,
    # two good regions, the better one adjacent to a catastrophic trap
    "trap_corridor": trap_corridor_cost,
    # quadratic valley with a severe cost band right beside its floor, so a
    # density model of the bad candidates overlaps the good region
    "overlap_trap": overlap_trap_cost,
}

REGISTRY: dict[str, Callable[[], EnvSpec]] = {
    **{name: partial(_static, name, cost) for name, cost in _STATIC_COSTS.items()},
    "point_reacher": point_reacher,
    "pendulum_swingup": pendulum_swingup,
}


def make_env(name: str) -> EnvSpec:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; available: {sorted(REGISTRY)}") from None
