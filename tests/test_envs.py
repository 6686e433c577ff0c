import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from rkmpc.bench import ExperimentConfig, run_episode
from rkmpc.envs import (
    BIMODAL_DEPTHS,
    BIMODAL_MODES,
    BLOCK_ROWS,
    DEFAULT_DT,
    DEFAULT_PENALTY,
    EnvSpec,
    PENDULUM_GRAVITY,
    REGISTRY,
    TRAP_COST,
    TRAP_EDGE,
    bimodal_valley_cost,
    make_env,
    rollout_batch,
    trap_corridor_cost,
)
from rkmpc.solvers import SolverConfig, solve


class SubArray(np.ndarray):
    """An ndarray subclass, which rollout_batch takes as the ndarray it is."""


def zero_env():
    return EnvSpec(
        name="zero",
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        dynamics=lambda x, u: np.zeros_like(x),
        stage_cost=lambda x, u: (u**2).sum(axis=1),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        constraint=lambda x, u: np.full(x.shape[0], -1.0),
    )


class TestRolloutCost:
    def test_zero_actions_zero_cost(self):
        env = zero_env()
        J = rollout_batch(env, np.zeros(1), np.zeros((3, 1, 5)))
        assert np.array_equal(J, np.zeros(3))

    def test_double_integrator_closed_form(self):
        # independent oracle: an explicit python loop over the recursion, one
        # candidate at a time.  Every action differs per candidate, per axis
        # and per step, so a time or candidate indexing slip changes J.
        env = make_env("point_reacher")
        n, horizon = 5, 6
        x0 = np.array([0.1, -0.2, 0.3, 0.05])
        u = np.random.default_rng(0).uniform(-1, 1, (n, 2, horizon))
        J = rollout_batch(env, x0, u)

        goal = np.array([0.6, -0.4])
        for k in range(n):
            pos, vel = x0[:2], x0[2:]
            expected = 0.0
            for tau in range(horizon):
                d = pos - goal
                expected += d @ d + 0.01 * (u[k, :, tau] @ u[k, :, tau])
                pos = pos + DEFAULT_DT * vel
                vel = vel + DEFAULT_DT * u[k, :, tau]
            d = pos - goal
            expected += 5.0 * (d @ d)
            assert J[k] == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        env = make_env("point_reacher")
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, (16, 2, 12))
        J = rollout_batch(env, env.initial_state, u)
        perm = rng.permutation(16)
        assert np.array_equal(J[perm], rollout_batch(env, env.initial_state, u[perm]))

    def test_nonfinite_state_flagged(self):
        env = EnvSpec(
            name="blowup",
            state_dim=1,
            action_dim=1,
            action_low=np.array([-1.0]),
            action_high=np.array([1.0]),
            dynamics=lambda x, u: x * np.inf,
            stage_cost=lambda x, u: np.abs(x[:, 0]),
            terminal_cost=lambda x: np.zeros(x.shape[0]),
            constraint=lambda x, u: np.full(x.shape[0], -1.0),
        )
        # the rollout only marks divergence; the solver decides its cost
        J = rollout_batch(env, np.ones(1), np.zeros((2, 1, 6)))
        assert np.all(J == np.inf)

    def test_constraint_penalty_applied(self):
        env = EnvSpec(
            name="constrained",
            state_dim=1,
            action_dim=1,
            action_low=np.array([-1.0]),
            action_high=np.array([1.0]),
            dynamics=lambda x, u: x,
            stage_cost=lambda x, u: np.zeros(x.shape[0]),
            terminal_cost=lambda x: np.zeros(x.shape[0]),
            constraint=lambda x, u: u[:, 0] - 0.5,  # feasible iff u <= 0.5
            constraint_penalty=100.0,
        )
        u = np.array([np.full((1, 3), 0.7), np.full((1, 3), 0.3)])
        J = rollout_batch(env, np.zeros(1), u)
        assert J[0] == pytest.approx(3 * 100.0 * 0.2)
        assert J[1] == 0.0

    @pytest.mark.parametrize(
        "env_name, callable_name, bad, got",
        [
            ("quadratic_bowl", "dynamics", lambda x, u: x[:1], "(1, 1)"),
            ("pendulum_swingup", "dynamics", lambda x, u: x[:, :1], "(5, 1)"),
            ("pendulum_swingup", "stage_cost", lambda x, u: 1.0, "()"),
            ("pendulum_swingup", "terminal_cost", lambda x: np.zeros(1), "(1,)"),
            ("pendulum_swingup", "constraint", lambda x, u: np.zeros((x.shape[0], 1)), "(20, 1)"),
        ],
        ids=["dynamics_rows", "dynamics_columns", "stage_cost_scalar", "terminal_cost_one", "constraint_2d"],
    )
    def test_wrong_output_shape_rejected(self, env_name, callable_name, bad, got):
        # broadcasting would otherwise hand every candidate the same cost, or
        # fail deep inside numpy; the message names the callable and both shapes
        env = dataclasses.replace(make_env(env_name), **{callable_name: bad})
        with pytest.raises(ValueError, match=re.escape(f"env.{callable_name} returned shape {got}, expected")):
            rollout_batch(env, env.initial_state, np.zeros((5, env.action_dim, 4)))

    def test_list_output_is_converted(self):
        # a list used to fail deep in the rollout ("'list' object has no attribute 'reshape'")
        base = make_env("pendulum_swingup")
        env = dataclasses.replace(base, stage_cost=lambda x, u: list(np.zeros(x.shape[0])))
        config = SolverConfig(n_candidates=8, n_oversample=16, horizon=4, max_iterations=2)
        result, _ = solve(env, env.initial_state, config, "accel")
        u = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 1, 4))
        zero_stage = dataclasses.replace(base, stage_cost=lambda x, u: np.zeros(x.shape[0]))
        assert np.isfinite(result.u).all()
        assert np.array_equal(rollout_batch(env, env.initial_state, u), rollout_batch(zero_stage, env.initial_state, u))

    @pytest.mark.parametrize(
        "dynamics",
        [lambda x, u: (x + 0.1 * u).tolist(), lambda x, u: np.round(x + u).astype(np.int64),
         lambda x, u: (x + 0.1 * u).view(SubArray)],
        ids=["list", "int64", "subclass"],
    )
    def test_dynamics_output_converted_as_checked(self, dynamics):
        # _checked converts or keeps dynamics outputs other than a float64 ndarray of
        # the state shape as it does other outputs
        env = dataclasses.replace(make_env("quadratic_bowl"), dynamics=dynamics)
        plain = dataclasses.replace(env, dynamics=lambda x, u: np.asarray(dynamics(x, u), dtype=float))
        u = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 1, 4))
        assert np.array_equal(rollout_batch(env, np.ones(1), u), rollout_batch(plain, np.ones(1), u))

    @pytest.mark.parametrize(
        "bad, got",
        [
            (lambda x, u: x.astype(complex), "dtype complex128"),
            (lambda x, u: [[1j]] * x.shape[0], "list, not real numbers"),
        ],
        ids=["complex_array", "complex_list"],
    )
    def test_non_real_dynamics_output_rejected(self, bad, got):
        # wrong shapes: test_wrong_output_shape_rejected
        env = dataclasses.replace(make_env("quadratic_bowl"), dynamics=bad)
        with pytest.raises(ValueError, match=re.escape(f"env.dynamics returned {got}")):
            rollout_batch(env, np.zeros(1), np.zeros((5, 1, 4)))

    @pytest.mark.parametrize(
        "bad, got",
        [
            (lambda x, u: np.zeros(x.shape[0], dtype=complex), "dtype complex128"),
            (lambda x, u: [1j] * x.shape[0], "list, not real numbers"),
            (lambda x, u: np.array(["a"] * x.shape[0]), "dtype <U1"),
        ],
        ids=["complex_array", "complex_list", "strings"],
    )
    def test_non_real_output_rejected(self, bad, got):
        # a complex stage cost used to fail with UFuncTypeError at J += stage[k]
        env = dataclasses.replace(make_env("pendulum_swingup"), stage_cost=bad)
        with pytest.raises(ValueError, match=re.escape(f"env.stage_cost returned {got}")):
            rollout_batch(env, env.initial_state, np.zeros((5, 1, 4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", ["point_reacher", "overlap_trap"])
    def test_array_like_batch_gives_the_arrays_bits(self, name, dtype):
        # an array-like batch used to fail with "'list' object has no attribute 'ndim'";
        # it is converted with no dtype forced, so a list of float32 rows stays float32
        env = make_env(name)
        u = np.random.default_rng(3).uniform(-1.0, 1.0, (4, env.action_dim, 5)).astype(dtype)
        batch = u.tolist() if dtype == np.float64 else list(u)
        J = rollout_batch(env, env.initial_state, u)
        assert rollout_batch(env, env.initial_state, batch).tobytes() == J.tobytes()

    def test_ragged_list_batch_rejected(self):
        env = make_env("pendulum_swingup")
        # numpy's own message named neither u_squashed nor the shape expected
        with pytest.raises(ValueError, match=re.escape("u_squashed must have shape (N, 1, H), got a ragged sequence")):
            rollout_batch(env, env.initial_state, [[[0.0, 0.0, 0.0]], [[0.0, 0.0]]])

    @pytest.mark.parametrize("shape", [(3, 2, 5), (3, 5)], ids=["two_action_rows", "two_dims"])
    def test_wrong_action_batch_shape_rejected(self, shape):
        # a second action row on the 1-D pendulum used to be ignored silently
        env = make_env("pendulum_swingup")
        with pytest.raises(ValueError, match=re.escape(f"u_squashed must have shape (N, 1, H), got {shape}")):
            rollout_batch(env, env.initial_state, np.zeros(shape))

    @pytest.mark.parametrize(
        "x_t, got", [(np.zeros(3), "(3,)"), (np.zeros((1, 2)), "(1, 2)"), (0.0, "()")], ids=["three", "row", "scalar"]
    )
    def test_wrong_state_shape_rejected(self, x_t, got):
        # used to fail inside numpy's broadcast, or to pass with a (1, 2) state
        env = make_env("pendulum_swingup")
        with pytest.raises(ValueError, match=re.escape(f"x_t must have shape (2,), got {got}")):
            rollout_batch(env, x_t, np.zeros((3, 1, 5)))


def per_step_rollout(env, x_t, u):
    """Reference rollout: every env callable once per step, J summed per step."""
    n, _, horizon = u.shape
    x = np.broadcast_to(np.asarray(x_t, dtype=float), (n, env.state_dim)).copy()
    J = np.zeros(n)
    for tau in range(horizon):
        J += env.stage_cost(x, u[:, :, tau])
        J += env.constraint_penalty * np.maximum(0.0, env.constraint(x, u[:, :, tau]))
        x = env.dynamics(x, u[:, :, tau])
    J += env.terminal_cost(x)
    J[~np.isfinite(J) | ~np.isfinite(x).all(axis=1)] = np.inf
    return J


def two_dim_env(name, dynamics, constraint=lambda x, u: np.full(x.shape[0], -1.0), penalty=DEFAULT_PENALTY):
    """A test-local env with two state and two action dimensions."""
    return EnvSpec(
        name=name,
        state_dim=2,
        action_dim=2,
        action_low=np.array([-1.0, -1.0]),
        action_high=np.array([1.0, 1.0]),
        dynamics=dynamics,
        stage_cost=lambda x, u: x[:, 0] * x[:, 0] + 0.5 * x[:, 1] * x[:, 1] + 0.01 * u[:, 0] * u[:, 1],
        terminal_cost=lambda x: 3.0 * x[:, 0] * x[:, 0] - x[:, 1],
        constraint=constraint,
        constraint_penalty=penalty,
        initial_state=np.array([0.3, -0.2]),
    )


LOCAL_ENVS = {
    env.name: env
    for env in (
        # a fresh C-ordered output, copied into the rollout's layout
        two_dim_env("fresh_c_order", lambda x, u: np.column_stack([x[:, 0] + 0.1 * x[:, 1], x[:, 1] - 0.1 * u[:, 1]])),
        # the input view itself, as the static landscapes return it
        two_dim_env("input_view", lambda x, u: x),
        # a constraint that binds for part of the candidates
        two_dim_env("active_constraint", lambda x, u: x + 0.1 * u, lambda x, u: u[:, 0] + u[:, 1] - 0.5, 50.0),
    )
}


class TestBlockedRollout:
    # (3, 5) is one block; at (300, 37) blocks of 27 steps end with 10; at
    # (1024, 50) blocks of 8 steps end with 2
    @pytest.mark.parametrize("n, horizon", [(3, 5), (300, 37), (1024, 50)])
    @pytest.mark.parametrize("name", sorted(REGISTRY) + list(LOCAL_ENVS))
    def test_matches_per_step_loop_bit_for_bit(self, name, n, horizon):
        env = LOCAL_ENVS[name] if name in LOCAL_ENVS else make_env(name)
        rng = np.random.default_rng(n + horizon)
        low, high = env.action_low[:, None], env.action_high[:, None]
        u = rng.uniform(low, high, (n, env.action_dim, horizon))
        x0 = env.initial_state + rng.uniform(-0.5, 0.5, env.state_dim)
        assert np.array_equal(rollout_batch(env, x0, u), per_step_rollout(env, x0, u))

    def test_row_sum_over_nine_columns_matches_to_rounding(self):
        # numpy sums 8 or more contiguous values pairwise, so a row sum over
        # column-contiguous rows may differ in the last bit from the C-ordered
        # reference: the one case where the rollout's bits follow the layout
        env = EnvSpec(
            name="nine_states",
            state_dim=9,
            action_dim=1,
            action_low=np.array([-1.0]),
            action_high=np.array([1.0]),
            dynamics=lambda x, u: x + 0.1 * np.arange(1.0, 10.0) * u,
            stage_cost=lambda x, u: (x * x).sum(axis=1),
            terminal_cost=lambda x: np.zeros(x.shape[0]),
            constraint=lambda x, u: np.full(x.shape[0], -1.0),
            initial_state=np.linspace(-0.4, 0.4, 9),
        )
        u = np.random.default_rng(9).uniform(-1, 1, (300, 1, 37))
        J = rollout_batch(env, env.initial_state, u)
        np.testing.assert_allclose(J, per_step_rollout(env, env.initial_state, u), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, n, horizon", [("pendulum_swingup", 32, 12), ("point_reacher", 1024, 50)])
    def test_default_constraint_gives_the_bits_of_an_explicit_one(self, name, n, horizon):
        # the default skips its constraint call and penalty sums; the same
        # constraint passed explicitly runs them.  Candidate 0 diverges.
        base = make_env(name)
        env = dataclasses.replace(base, stage_cost=lambda x, u: np.where(u[:, 0] == 0.25, np.inf, base.stage_cost(x, u)))
        explicit = dataclasses.replace(env, constraint=lambda x, u: np.full(x.shape[0], -1.0))
        rng = np.random.default_rng(n)
        u = rng.uniform(env.action_low[:, None], env.action_high[:, None], (n, env.action_dim, horizon))
        u[0, 0] = 0.25
        J = rollout_batch(env, env.initial_state, u)
        assert J[0] == np.inf and np.isfinite(J[1:]).all()
        assert J.tobytes() == rollout_batch(explicit, env.initial_state, u).tobytes()

    # the steps of each block: max(1, BLOCK_ROWS // n) steps, the last block the rest
    @pytest.mark.parametrize("name, n, horizon, sizes", [
        pytest.param("pendulum_swingup", 32, 12, [12], id="32-12-1"),
        pytest.param("pendulum_swingup", 600, 37, [13, 13, 11], id="600-37-3"),
        pytest.param("pendulum_swingup", 1024, 50, [8] * 6 + [2], id="1024-50-7"),
        pytest.param("point_reacher", 1024, 50, [8] * 6 + [2], id="point_reacher-1024-50-7"),
        pytest.param("overlap_trap", 600, 37, [13, 13, 11], id="overlap_trap-600-37-3"),
    ])
    def test_call_counts(self, name, n, horizon, sizes):
        block = max(1, BLOCK_ROWS // n)
        assert sizes == [min(block, horizon - start) for start in range(0, horizon, block)]
        blocks = len(sizes)
        base = make_env(name)
        calls = Counter()
        advanced = []  # the steps of each advance call

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                if name == "advance":
                    advanced.append(args[1].shape[0])
                return fn(*args)

            return call

        names = ("dynamics", "stage_cost", "terminal_cost", "constraint")
        fields = {name: counted(name, getattr(base, name)) for name in names}
        if hasattr(base.dynamics, "advance"):  # a dynamics with advance is never called itself
            fields["dynamics"].advance = counted("advance", base.dynamics.advance)
            stepped, expected = {"advance": blocks}, sizes
        else:
            stepped, expected = {"dynamics": horizon}, []
        env = dataclasses.replace(base, **fields)
        rollout_batch(env, env.initial_state, np.zeros((n, env.action_dim, horizon)))
        assert calls == {**stepped, "stage_cost": blocks, "constraint": blocks, "terminal_cost": 1}
        assert advanced == expected

    def test_replaced_dynamics_is_stepped_instead_of_the_old_advance(self):
        # advance belongs to the dynamics callable, so dataclasses.replace with
        # another dynamics drops it: the new one runs once per step
        for base, reference, x0 in [
            (make_env("point_reacher"), reacher_reference()[0], np.array([0.1, -0.2, 0.3, 0.05])),
            (make_env("pendulum_swingup"), pendulum_reference()[0], np.array([3.0, -0.4])),
        ]:
            calls = []

            def dynamics(x, u):
                calls.append(x.shape)
                return reference(x, u)

            env = dataclasses.replace(base, dynamics=dynamics)
            n, horizon = 300, 37
            low, high = env.action_low[:, None], env.action_high[:, None]
            u = np.random.default_rng(5).uniform(low, high, (n, env.action_dim, horizon))
            assert rollout_batch(env, x0, u).tobytes() == rollout_batch(base, x0, u).tobytes()
            assert calls == [(n, env.state_dim)] * horizon

    @pytest.mark.parametrize("n, horizon, blocks", [(32, 12, 1), (1024, 50, 7)])
    def test_every_column_the_callables_get_is_contiguous(self, n, horizon, blocks):
        contiguous = []

        def recorded(fn):
            def call(*arrays):
                contiguous.extend(a[:, j].flags.c_contiguous for a in arrays for j in range(a.shape[1]))
                return fn(*arrays)

            return call

        base = LOCAL_ENVS["fresh_c_order"]
        names = ("dynamics", "stage_cost", "terminal_cost", "constraint")
        env = dataclasses.replace(base, **{name: recorded(getattr(base, name)) for name in names})
        rollout_batch(env, env.initial_state, np.zeros((n, 2, horizon)))
        # two columns each of x and u per dynamics step and per stage_cost
        # and constraint block, and of x for terminal_cost
        assert len(contiguous) == 4 * horizon + 8 * blocks + 2
        assert all(contiguous)


class TestBuiltinLandscapes:
    def test_bimodal_minima_by_grid_search(self):
        u = np.linspace(-1, 1, 200001)
        c = bimodal_valley_cost(u)
        # global minimum at the deeper mode
        assert u[np.argmin(c)] == pytest.approx(BIMODAL_MODES[1], abs=1e-4)
        assert c.min() == pytest.approx(BIMODAL_DEPTHS[1], abs=1e-6)
        # second mode is a local minimum at its construction depth
        left = (u > BIMODAL_MODES[0] - 0.2) & (u < BIMODAL_MODES[0] + 0.2)
        assert u[left][np.argmin(c[left])] == pytest.approx(BIMODAL_MODES[0], abs=1e-4)
        assert c[left].min() == pytest.approx(BIMODAL_DEPTHS[0], abs=1e-6)

    def test_trap_exceeds_good_region_by_margin(self):
        good = trap_corridor_cost(np.linspace(0.3, 0.7, 100))
        trapped = trap_corridor_cost(np.linspace(TRAP_EDGE + 1e-6, 1.0, 100))
        assert trapped.min() - good.max() >= 0.5 * TRAP_COST

    def test_overlap_trap_minimum(self):
        env = make_env("overlap_trap")
        u = np.linspace(-1, 1, 10001).reshape(-1, 1)
        c = env.stage_cost(np.zeros((u.shape[0], 1)), u)
        assert u[np.argmin(c), 0] == pytest.approx(0.3, abs=1e-3)


def pendulum_reference():
    """pendulum_swingup's callables as the one-line expressions they replaced."""
    dt = DEFAULT_DT

    def dynamics(x, u):
        phi, omega = x[:, 0], x[:, 1]
        out = np.empty(x.shape)
        out[:, 0] = phi + dt * omega
        out[:, 1] = omega + dt * (PENDULUM_GRAVITY * np.sin(phi) + u[:, 0])
        return out

    def wrap(phi):
        return (phi + np.pi) % (2.0 * np.pi) - np.pi

    def stage(x, u):
        return wrap(x[:, 0]) ** 2 + 0.1 * x[:, 1] ** 2 + 0.001 * u[:, 0] ** 2

    def terminal(x):
        return 5.0 * (wrap(x[:, 0]) ** 2 + 0.1 * x[:, 1] ** 2)

    return dynamics, stage, terminal


def canonical_nans(a):
    """`a` with every NaN replaced by np.nan, so that only the NaNs' places compare."""
    return np.where(np.isnan(a), np.nan, a)


class TestPendulum:
    def test_upright_fixed_point(self):
        env = make_env("pendulum_swingup")
        x = np.zeros((1, 2))
        u = np.zeros((1, 1))
        assert np.array_equal(env.dynamics(x, u), x)

    def test_energy_drift_bound(self):
        # explicit Euler is first order; per-step energy drift on a free
        # swing stays below an empirically frozen bound at dt = 0.1
        env = make_env("pendulum_swingup")
        x = np.array([[np.pi - 0.5, 0.0]])
        u = np.zeros((1, 1))

        def energy(state):
            phi, omega = state[0]
            return 0.5 * omega**2 + PENDULUM_GRAVITY * np.cos(phi)

        drifts = []
        for _ in range(50):
            e0 = energy(x)
            x = env.dynamics(x, u)
            drifts.append(abs(energy(x) - e0))
        # first-order integrator: drift scales with dt * |dE/dt|; frozen
        # empirical ceiling for this amplitude and dt = 0.1
        assert max(drifts) < 2.5

    @pytest.mark.parametrize("action_dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("layout", ["c_order", "rollout", "float32_state"])
    @pytest.mark.parametrize("rows", [1, 7, 32, 4096])
    def test_in_place_callables_have_the_plain_expressions_bits(self, layout, rows, action_dtype):
        # the callables write into their own temporaries, with 0-d constants on the
        # float64 states; each element must see the same IEEE operations as the plain
        # expressions, signed zeros, angles of +-pi, an overflowing velocity and an
        # infinite one included, and actions of any real dtype (rollout_batch keeps
        # u_squashed's, so float32 actions must be squared and scaled in float32).
        # dynamics computes a float32 state as its float64 copy; stage and terminal
        # of such a state are not pinned
        rng = np.random.default_rng(rows)
        x, u = rng.normal(0.0, 4.0, (rows, 2)), rng.uniform(-2.0, 2.0, (rows, 1))
        x[::3, 0], x[1::3, 0], x[2::5, 0], x[::4, 1] = np.pi, -np.pi, -0.0, -0.0
        x[3::6, 1], x[5::11, 1], x[4::13, 1], u[::2, 0] = 1e300, -1e200, np.inf, -0.0
        u = u.astype(action_dtype)
        if layout == "rollout":  # views of (dim, steps, rows) memory, every column contiguous
            xs = np.empty((2, 3, rows)).transpose(1, 2, 0)[1]
            us = np.empty((1, 3, rows), dtype=action_dtype).transpose(1, 2, 0)[1]
            xs[:], us[:] = x, u
            x, u = xs, us
        elif layout == "float32_state":
            with np.errstate(over="ignore"):  # 1e300 and -1e200 become infinite
                x = x.astype(np.float32)
        before = x.copy(), u.copy()
        env = make_env("pendulum_swingup")
        dynamics, stage, terminal = pendulum_reference()
        with np.errstate(all="ignore"):  # the infinite and overflowing rows
            got = env.dynamics(x, u)
            assert got.dtype == np.float64 and got.tobytes() == dynamics(x.astype(float), u).tobytes()
            assert all(got[:, j].flags.c_contiguous for j in range(2))  # the rollout's layout
            if layout != "float32_state":
                assert env.stage_cost(x, u).tobytes() == stage(x, u).tobytes()
                assert env.terminal_cost(x).tobytes() == terminal(x).tobytes()
        assert np.array_equal(x, before[0]) and np.array_equal(u, before[1])

    @pytest.mark.parametrize("layout", ["c_order", "rollout"])
    @pytest.mark.parametrize("rows", [1, 7, 32, 1024])
    @pytest.mark.parametrize("steps", [1, 2, 8, 13])
    def test_advance_has_the_bits_of_stepping_dynamics(self, steps, rows, layout):
        # angles of +-pi, +-0.0 and 1e6, signed-zero velocities, and inf and NaN
        # entries in the start states and the actions, which then spread over later
        # steps.  Against dynamics the bytes are compared, NaN signs included;
        # against the plain expressions only the NaNs' places, since a sum of two
        # NaNs keeps its first operand's sign and dynamics adds omega last
        rng = np.random.default_rng(100 * steps + rows)
        x0, u = rng.normal(0.0, 4.0, (rows, 2)), rng.uniform(-2.0, 2.0, (steps, rows, 1))
        x0[::3, 0], x0[1::3, 0], x0[2::5, 0], x0[4::7, 0], x0[5::9, 0] = np.pi, -np.pi, -0.0, 0.0, 1e6
        x0[::4, 1], x0[2::8, 1], u[:, ::2, 0] = -0.0, 0.0, -0.0
        x0[1::4, 1], x0[2::4, 0], x0[3::6, 1], x0[6::10, 0] = np.inf, -np.inf, np.nan, np.nan
        u[-1, 1::4, 0], u[0, 2::5, 0] = -np.inf, np.nan
        # one row past the block stays as it was: advance writes states[1:] alone
        if layout == "rollout":  # a view of (dim, steps, rows) memory, as rollout_batch keeps it
            buffer = np.full((2, steps + 2, rows), 7.0).transpose(1, 2, 0)
            actions = np.empty((1, steps, rows)).transpose(1, 2, 0)
            actions[:] = u
        else:
            buffer, actions = np.full((steps + 2, rows, 2), 7.0), u.copy()
        buffer[0] = x0
        states = buffer[: steps + 1]
        env = make_env("pendulum_swingup")
        reference = pendulum_reference()[0]
        with np.errstate(invalid="ignore", over="ignore"):  # sin(inf), inf - inf
            env.dynamics.advance(states, actions)
            x = x0
            for k in range(steps):
                x = env.dynamics(x, u[k])
                assert states[k + 1].tobytes() == x.tobytes()
                assert canonical_nans(x).tobytes() == canonical_nans(reference(states[k], u[k])).tobytes()
        assert states[0].tobytes() == x0.tobytes() and actions.tobytes() == u.tobytes()
        assert np.array_equal(buffer[-1], np.full((rows, 2), 7.0))


def reacher_reference():
    """point_reacher's callables as plain expressions, each returning fresh arrays."""
    goal, dt = np.array([0.6, -0.4]), DEFAULT_DT

    def dynamics(x, u):
        out = np.empty(x.shape)
        out[:, :2] = x[:, :2] + dt * x[:, 2:]
        out[:, 2:] = x[:, 2:] + dt * u
        return out

    def sq_dist(x):
        d0, d1 = x[:, 0] - goal[0], x[:, 1] - goal[1]
        return d0 * d0 + d1 * d1

    def stage(x, u):
        return sq_dist(x) + 0.01 * (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1])

    def terminal(x):
        return 5.0 * sq_dist(x)

    return dynamics, stage, terminal


class TestPointReacher:
    @pytest.mark.parametrize("layout", ["c_order", "rollout", "float32_state"])
    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_in_place_callables_have_the_plain_expressions_bits(self, layout, rows):
        # the callables write into their own outputs and temporaries; each
        # element must see the same IEEE operations as the plain expressions,
        # signed zeros and a state on the goal included.  dynamics computes a
        # float32 state as its float64 copy
        rng = np.random.default_rng(rows)
        x, u = rng.normal(0.0, 2.0, (rows, 4)), rng.uniform(-1.0, 1.0, (rows, 2))
        x[::3, 0], x[1::3, 1], x[::2, 2], u[::2, 1] = 0.6, -0.4, -0.0, -0.0
        x[::5, 3], u[::5, 0] = 0.0, 0.0
        if layout == "rollout":  # views of (dim, steps, rows) memory, every column contiguous
            xs, us = np.empty((4, 3, rows)).transpose(1, 2, 0)[1], np.empty((2, 3, rows)).transpose(1, 2, 0)[1]
            xs[:], us[:] = x, u
            x, u = xs, us
        elif layout == "float32_state":
            x = x.astype(np.float32)
        before = x.copy(), u.copy()
        env = make_env("point_reacher")
        dynamics, stage, terminal = reacher_reference()
        got = env.dynamics(x, u)
        assert got.dtype == np.float64 and got.tobytes() == dynamics(x.astype(float), u).tobytes()
        assert all(got[:, j].flags.c_contiguous for j in range(4))  # the rollout's layout
        assert env.stage_cost(x, u).tobytes() == stage(x, u).tobytes()
        assert env.terminal_cost(x).tobytes() == terminal(x).tobytes()
        assert np.array_equal(x, before[0]) and np.array_equal(u, before[1])


    @pytest.mark.parametrize("layout", ["c_order", "rollout"])
    @pytest.mark.parametrize("rows", [1, 7, 1024])
    @pytest.mark.parametrize("steps", [1, 2, 8])
    def test_advance_has_the_bits_of_stepping_dynamics(self, steps, rows, layout):
        # signed zeros, states on the goal, and inf and NaN entries in the
        # start states and the actions, which then spread over later steps
        rng = np.random.default_rng(100 * steps + rows)
        x0, u = rng.normal(0.0, 2.0, (rows, 4)), rng.uniform(-1.0, 1.0, (steps, rows, 2))
        x0[::3, 0], x0[1::3, 1], x0[::2, 2], u[:, ::2, 1] = 0.6, -0.4, -0.0, -0.0
        x0[::5, 3], u[:, ::5, 0] = 0.0, 0.0
        x0[1::4, 2], x0[2::4, 3], x0[3::6, 0] = np.inf, -np.inf, np.nan
        u[-1, 1::4, 0], u[0, 2::5, 1] = -np.inf, np.nan
        # one row past the block stays as it was: advance writes states[1:] alone
        if layout == "rollout":  # a view of (dim, steps, rows) memory, as rollout_batch keeps it
            buffer = np.full((4, steps + 2, rows), 7.0).transpose(1, 2, 0)
            actions = np.empty((2, steps, rows)).transpose(1, 2, 0)
            actions[:] = u
        else:
            buffer, actions = np.full((steps + 2, rows, 4), 7.0), u.copy()
        buffer[0] = x0
        states = buffer[: steps + 1]
        env = make_env("point_reacher")
        with np.errstate(invalid="ignore"):  # inf - inf
            env.dynamics.advance(states, actions)
            x = x0
            for k in range(steps):
                x = env.dynamics(x, u[k])
                assert states[k + 1].tobytes() == x.tobytes()
        assert states[0].tobytes() == x0.tobytes() and actions.tobytes() == u.tobytes()
        assert np.array_equal(buffer[-1], np.full((rows, 4), 7.0))


def _with_advance(advance):
    """A dynamics callable carrying `advance` as its attribute."""
    def dynamics(x, u):
        return x

    dynamics.advance = advance
    return dynamics


class TestEnvSpecChecks:
    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"action_low": np.array([-1.0])}, r"action_low must be finite with shape \(2,\), got \(1,\)"),
            ({"action_high": np.ones(3)}, r"action_high must be finite with shape \(2,\), got \(3,\)"),
            ({"action_high": np.array([1.0, np.inf])}, r"action_high must be finite with shape \(2,\), got \(2,\)"),
            ({"action_low": np.array([-1.0, 1.0])}, "action_low must be < action_high"),
            ({"initial_state": np.zeros(2)}, r"initial_state must have shape \(4,\), got \(2,\)"),
        ],
        ids=["low_one_element", "high_three_elements", "high_inf", "low_not_below_high", "initial_state_length"],
    )
    def test_bad_bounds_or_initial_state_rejected(self, fields, match):
        # dataclasses.replace builds a new EnvSpec, so the check runs again
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(make_env("point_reacher"), **fields)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"state_dim": 2.0}, "state_dim must be an integer, got 2.0"),
            ({"state_dim": True, "initial_state": np.zeros(1)}, "state_dim must be an integer, got True"),
            ({"action_dim": np.float64(1.0)}, "action_dim must be an integer, got "),
            ({"action_dim": 0, "action_low": np.zeros(0), "action_high": np.zeros(0)}, "action_dim must be >= 1, got 0"),
            ({"state_dim": 0, "initial_state": np.zeros(0)}, "state_dim must be >= 1, got 0"),
            ({"dynamics": None}, "dynamics must be callable, got None"),
            ({"stage_cost": 0.0}, "stage_cost must be callable, got 0.0"),
            ({"terminal_cost": None}, "terminal_cost must be callable, got None"),
            ({"constraint": None}, "constraint must be callable, got None"),
            ({"dynamics": _with_advance(0.0)}, "dynamics.advance must be callable, got 0.0"),
        ],
        ids=["state_dim_float", "state_dim_bool", "action_dim_numpy_float", "action_dim_zero", "state_dim_zero",
             "dynamics_none", "stage_cost_float", "terminal_cost_none", "constraint_none", "dynamics_advance_float"],
    )
    def test_bad_sizes_or_callables_rejected(self, fields, match):
        # each passed construction, then failed inside solve (TypeError, or ValueError from PolicyParams)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(make_env("pendulum_swingup"), **fields)

    def test_constraint_defaults_to_none(self):
        fields = {f.name: getattr(zero_env(), f.name) for f in dataclasses.fields(EnvSpec) if f.name != "constraint"}
        env = EnvSpec(**fields)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 1, 3))
        np.testing.assert_array_equal(env.constraint(np.zeros((5, 1)), u[:, :, 0]), np.full(5, -1.0))
        np.testing.assert_array_equal(rollout_batch(env, env.initial_state, u), rollout_batch(zero_env(), env.initial_state, u))

    def test_numpy_integer_sizes_accepted(self):
        env = dataclasses.replace(make_env("pendulum_swingup"), state_dim=np.int64(2), action_dim=np.int32(1))
        assert (env.state_dim, env.action_dim) == (2, 1)

    @pytest.mark.parametrize("penalty", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_nonfinite_or_negative_constraint_penalty_rejected(self, penalty):
        # a NaN penalty marked every rollout diverged; a negative one rewarded violations
        with pytest.raises(ValueError, match="constraint_penalty must be finite and >= 0, got"):
            dataclasses.replace(make_env("point_reacher"), constraint_penalty=penalty)

    def test_zero_constraint_penalty_allowed(self):
        assert dataclasses.replace(make_env("point_reacher"), constraint_penalty=0.0).constraint_penalty == 0.0

    def test_list_fields_stored_as_float_arrays(self):
        # lists passed every check, then bench.run_episode failed on list.reshape
        pendulum = make_env("pendulum_swingup")
        env = dataclasses.replace(pendulum, initial_state=[3.14159, 0.0], action_low=[-2], action_high=[2.0])
        for name in ("initial_state", "action_low", "action_high"):
            assert isinstance(getattr(env, name), np.ndarray) and getattr(env, name).dtype == np.float64
        arrays = dataclasses.replace(
            pendulum, initial_state=np.array([3.14159, 0.0]), action_low=np.array([-2.0]), action_high=np.array([2.0])
        )
        config = ExperimentConfig(env="pendulum_swingup", solver=SolverConfig(n_candidates=8, horizon=4, max_iterations=2),
                                  episode_steps=3)
        rows, expected = (run_episode(e, config, seed=0).rows for e in (env, arrays))
        assert [dataclasses.replace(r, wall_time=0.0) for r in rows] == [dataclasses.replace(r, wall_time=0.0) for r in expected]


class TestRegistry:
    def test_known_names(self):
        for name in (
            "quadratic_bowl",
            "bimodal_valley",
            "trap_corridor",
            "overlap_trap",
            "point_reacher",
            "pendulum_swingup",
        ):
            env = make_env(name)
            assert env.name == name
            assert env.action_low.shape == (env.action_dim,)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown environment"):
            make_env("does_not_exist")
