import numpy as np
import pytest

from rkmpc.envs import (
    BIMODAL_DEPTHS,
    BIMODAL_MODES,
    DEFAULT_DT,
    EnvSpec,
    PENDULUM_GRAVITY,
    TRAP_COST,
    TRAP_EDGE,
    bimodal_valley_cost,
    make_env,
    rollout_batch,
    trap_corridor_cost,
)


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
