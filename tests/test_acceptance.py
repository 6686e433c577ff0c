"""End-to-end acceptance checks for the whole library.

Each test prints a single PASS/FAIL line (run with -s to see them on
success) and exercises one externally visible guarantee at full scale:
numerical identities of the policy geometry, the accelerated optimizer,
the qualitative solver orderings on the analog tasks, and the real-time
control contract.
"""

import math
import statistics
import time

import numpy as np
import pytest

from rkmpc.bench import ExperimentConfig, normalize_scores, run_experiment
from rkmpc.envs import BIMODAL_MODES, TRAP_EDGE, make_env, rollout_batch
from rkmpc.policy import (
    PolicyParams,
    kl_divergence,
    log_density,
    mirror_inverse,
    mirror_map,
    sample_batch,
    standard_prior,
)
from rkmpc.solvers import (
    SolverConfig,
    SolverState,
    accel_update,
    agd_plus_step,
    compose_and_sample,
    noise_strength,
    reverse_update,
    solve,
    warm_start,
)
from rkmpc.weights import WeightConfig, signed_log_weights


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} acceptance {number}: {title}{suffix}")
    assert ok, f"acceptance {number}: {title}{suffix}"


class TestAcceptance:
    def test_01_mirror_map_identity_and_gradient(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(100)
        shape = (100, 1000)  # 1e5 element pairs in one vectorized object
        theta = PolicyParams(rng.normal(0, 3, shape), rng.uniform(0.05, 20.0, shape))
        ref = PolicyParams(rng.normal(0, 3, shape), rng.uniform(0.05, 20.0, shape))
        back_mu, back_sigma = mirror_inverse(*mirror_map(theta.mu, theta.sigma, ref.sigma), ref.sigma)
        ok_round = np.allclose(back_mu, theta.mu, rtol=1e-9, atol=1e-12) and np.allclose(
            back_sigma, theta.sigma, rtol=1e-9
        )

        ok_positive = True
        for _ in range(200):
            r = PolicyParams(rng.normal(0, 2, (2, 3)), rng.uniform(0.1, 10.0, (2, 3)))
            scale = 10.0 ** rng.uniform(-3, 9)
            _, sigma = mirror_inverse(rng.normal(0, 1, (2, 3)), rng.normal(0, scale, (2, 3)), r.sigma)
            ok_positive &= bool(np.all(sigma > 0.0) and np.all(np.isfinite(sigma)))

        # finite differences of the closed-form divergence; the map matches
        # its gradient up to the anchor offset, which cancels in every update
        ok_fd = True
        h = 1e-5
        for _ in range(20):
            th = PolicyParams(rng.normal(0, 2, (2, 3)), rng.uniform(0.5, 3.0, (2, 3)))
            r = PolicyParams(rng.normal(0, 2, (2, 3)), rng.uniform(0.5, 3.0, (2, 3)))
            z_mu, z_sigma = mirror_map(th.mu, th.sigma, r.sigma)
            z0_mu, z0_sigma = mirror_map(r.mu, r.sigma, r.sigma)
            for idx in np.ndindex(th.mu.shape):
                mu_p, mu_m = th.mu.copy(), th.mu.copy()
                mu_p[idx] += h
                mu_m[idx] -= h
                fd = (
                    kl_divergence(PolicyParams(mu_p, th.sigma), r)
                    - kl_divergence(PolicyParams(mu_m, th.sigma), r)
                ) / (2 * h)
                ok_fd &= abs(fd - (z_mu[idx] - z0_mu[idx])) <= 1e-6 * max(1.0, abs(fd))
                sg_p, sg_m = th.sigma.copy(), th.sigma.copy()
                sg_p[idx] += h
                sg_m[idx] -= h
                fd = (
                    kl_divergence(PolicyParams(th.mu, sg_p), r)
                    - kl_divergence(PolicyParams(th.mu, sg_m), r)
                ) / (2 * h)
                ok_fd &= abs(fd - (z_sigma[idx] - z0_sigma[idx])) <= 1e-6 * max(1.0, abs(fd))
        elapsed = time.monotonic() - t0
        report(
            1,
            "mirror map round trip, gradient match, positive scale",
            ok_round and ok_fd and ok_positive and elapsed < 10.0,
            f"{elapsed:.1f}s",
        )

    def test_02_kl_against_monte_carlo(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(200)
        failures = 0
        for _ in range(100):
            a = PolicyParams(rng.normal(0, 2, (1, 1)), rng.uniform(0.3, 3.0, (1, 1)))
            b = PolicyParams(rng.normal(0, 2, (1, 1)), rng.uniform(0.3, 3.0, (1, 1)))
            closed = kl_divergence(a, b)
            u = sample_batch(a, 10**6, rng)
            diffs = log_density(a, u) - log_density(b, u)
            se = diffs.std(ddof=1) / math.sqrt(diffs.size)
            if abs(diffs.mean() - closed) > 3 * se:
                failures += 1
        elapsed = time.monotonic() - t0
        report(
            2,
            "closed-form divergence within 3 SE of 1e6-sample Monte Carlo, 100 cases",
            failures == 0 and elapsed < 60.0,
            f"{failures} outliers, {elapsed:.1f}s",
        )

    def test_03_accelerated_recursion_equivalence(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(300)
        alpha = 0.05
        theta1 = PolicyParams(rng.normal(0, 1, (2, 3)), rng.uniform(0.5, 2.0, (2, 3)))
        anchor = theta1
        grads = [(rng.normal(0, 0.3, (2, 3)), rng.normal(0, 0.1, (2, 3))) for _ in range(100)]

        # oracle A: three-variable form keeping a running weighted average
        z_mu, z_sg = mirror_map(theta1.mu, theta1.sigma, anchor.sigma)
        y_mu, y_sg = theta1.mu.copy(), theta1.sigma.copy()
        orig = []
        A_prev = 0.0
        for i, (g_mu, g_sg) in enumerate(grads, start=1):
            a_i, a_next = alpha * i, alpha * (i + 1)
            A_i = A_prev + a_i
            A_next = A_i + a_next
            z_mu -= a_i * g_mu
            z_sg -= a_i * g_sg
            inv = PolicyParams(*mirror_inverse(z_mu, z_sg, anchor.sigma))
            y_mu = (A_prev / A_i) * y_mu + (a_i / A_i) * inv.mu
            y_sg = (A_prev / A_i) * y_sg + (a_i / A_i) * inv.sigma
            orig.append(
                PolicyParams(
                    (A_i / A_next) * y_mu + (a_next / A_next) * inv.mu,
                    (A_i / A_next) * y_sg + (a_next / A_next) * inv.sigma,
                )
            )
            A_prev = A_i

        # oracle B: momentum form carrying theta and the previous dual point
        z_mu, z_sg = mirror_map(theta1.mu, theta1.sigma, anchor.sigma)
        inv_prev, theta = theta1, theta1
        mom = []
        A_prev = 0.0
        for i, (g_mu, g_sg) in enumerate(grads, start=1):
            a_i, a_next = alpha * i, alpha * (i + 1)
            A_i = A_prev + a_i
            A_next = A_i + a_next
            z_mu -= a_i * g_mu
            z_sg -= a_i * g_sg
            inv = PolicyParams(*mirror_inverse(z_mu, z_sg, anchor.sigma))
            theta = PolicyParams(
                (A_i / A_next) * theta.mu
                + (a_next / A_next) * inv.mu
                + (a_i / A_next) * (inv.mu - inv_prev.mu),
                (A_i / A_next) * theta.sigma
                + (a_next / A_next) * inv.sigma
                + (a_i / A_next) * (inv.sigma - inv_prev.sigma),
            )
            mom.append(theta)
            inv_prev = inv
            A_prev = A_i

        theta, tilde = theta1, theta1
        ok = True
        A_prev = 0.0
        for i, (g_mu, g_sg) in enumerate(grads, start=1):
            a_i, a_next = alpha * i, alpha * (i + 1)
            A_i = A_prev + a_i
            A_next = A_i + a_next
            new, new_tilde = agd_plus_step(
                (theta.mu, theta.sigma), (tilde.mu, tilde.sigma), g_mu, g_sg, a_i, A_i, a_next, A_next,
                anchor=anchor.sigma,
            )
            theta, tilde = PolicyParams(*new), PolicyParams(*new_tilde)
            for oracle in (orig[i - 1], mom[i - 1]):
                ok &= bool(
                    np.allclose(theta.mu, oracle.mu, rtol=1e-9, atol=1e-12)
                    and np.allclose(theta.sigma, oracle.sigma, rtol=1e-9, atol=1e-12)
                )
            A_prev = A_i
        elapsed = time.monotonic() - t0
        report(
            3,
            "accelerated step matches both classical recursions over 100 iterations",
            ok and elapsed < 5.0,
            f"{elapsed:.1f}s",
        )

    def test_04_acceleration_benefit(self):
        t0 = time.monotonic()
        alpha, n, target = 0.02, 64, 0.5
        wc = WeightConfig(backend="mppi", temperature=1.0)
        cfg = SolverConfig(
            alpha=alpha, gamma=0.0, n_candidates=n, n_oversample=4 * n, weights=wc, horizon=1
        )

        def first_hit(variant, seed, iters=300):
            theta = standard_prior(1, 1)
            mu, sigma = np.stack((theta.mu, theta.mu)), np.stack((theta.sigma, theta.sigma))
            state = SolverState(mu, sigma, mu, sigma, a_i=alpha, A_i=alpha)
            rng = np.random.default_rng(seed)
            for i in range(1, iters + 1):
                if variant == "reverse":
                    u = sample_batch(state.theta_plus, n, rng)
                else:
                    u = compose_and_sample(
                        state.theta_plus, state.theta_minus, 4 * n, n, cfg.kappa, rng
                    )
                J = (np.tanh(u[:, 0, 0]) - target) ** 2
                lnH = signed_log_weights(J, wc)
                if variant == "reverse":
                    state = reverse_update(state, u, lnH, alpha)
                else:
                    state, _ = accel_update(state, u, lnH, J, cfg)
                if abs(math.tanh(state.theta_plus.mu[0, 0]) - target) < 0.01:
                    return i
            return iters + 1

        ratios = [first_hit("reverse", s) / first_hit("accel", s) for s in range(20)]
        median = float(np.median(ratios))
        elapsed = time.monotonic() - t0
        report(
            4,
            "accelerated variant converges >= 1.5x faster than plain mirror descent",
            median >= 1.5 and elapsed < 60.0,
            f"median speedup {median:.2f}x, {elapsed:.1f}s",
        )

    def test_05_mode_seeking_contrast(self):
        t0 = time.monotonic()
        env = make_env("bimodal_valley")
        cfg = SolverConfig(
            n_candidates=64, n_oversample=256, horizon=1, alpha=0.1, max_iterations=50,
            weights=WeightConfig(backend="cem", quantile=0.2),
        )

        def finals(variant):
            out = []
            for seed in range(20):
                _, st = solve(env, env.initial_state, cfg, variant=variant, seed=seed)
                out.append(
                    (float(np.tanh(st.theta_plus.mu[0, 0])), float(st.theta_plus.sigma[0, 0]))
                )
            return out

        reject = finals("reject")
        forward = finals("forward")
        hits = sum(
            1
            for mu, sg in reject
            if sg < 0.2 and min(abs(mu - m) for m in BIMODAL_MODES) < 0.1
        )
        med_reject = statistics.median(sg for _, sg in reject)
        med_forward = statistics.median(sg for _, sg in forward)
        elapsed = time.monotonic() - t0
        report(
            5,
            "decomposed solver collapses onto one mode, forward refit stays wide",
            hits >= 18 and med_forward >= 2.0 * med_reject and elapsed < 120.0,
            f"{hits}/20 collapsed, sigma {med_forward:.3f} vs {med_reject:.3f}, {elapsed:.1f}s",
        )

    def test_06_trap_avoidance_ordering(self):
        t0 = time.monotonic()
        solver = SolverConfig(
            n_candidates=64, n_oversample=256, horizon=1, alpha=0.1, max_iterations=20,
            weights=WeightConfig(backend="cem", quantile=0.2),
        )
        totals, trap_rates = {}, {}
        for variant in ("forward", "reverse", "reject"):
            cfg = ExperimentConfig(
                env="trap_corridor", variant=variant, solver=solver,
                episode_steps=10, seeds=tuple(range(20)),
            )
            records = run_experiment(cfg)
            totals[variant] = [r.total_reward for r in records]
            steps = [row for r in records for row in r.rows]
            trap_rates[variant] = sum(1 for row in steps if row.u[0] > TRAP_EDGE) / len(steps)
        normalized, _ = normalize_scores(totals)
        means = {k: statistics.mean(v) for k, v in normalized.items()}
        ok = (
            means["reject"] >= means["reverse"]
            and means["reject"] >= means["forward"]
            and trap_rates["reject"] < 0.05
        )
        elapsed = time.monotonic() - t0
        report(
            6,
            "decomposed solver scores best on the trap corridor and stays out of the trap",
            ok and elapsed < 120.0,
            f"scores {means['reject']:.3f}/{means['forward']:.3f}/{means['reverse']:.3f}, "
            f"trap rate {trap_rates['reject']:.1%}, {elapsed:.1f}s",
        )

    def test_07_rejection_anchor_ablation(self):
        t0 = time.monotonic()

        def totals(variant, kappa):
            solver = SolverConfig(
                n_candidates=16, n_oversample=64, horizon=1, alpha=0.3,
                max_iterations=5, kappa=kappa,
                weights=WeightConfig(backend="cem", quantile=0.2),
            )
            cfg = ExperimentConfig(
                env="overlap_trap", variant=variant, solver=solver,
                episode_steps=20, seeds=tuple(range(20)),
            )
            return [r.total_reward for r in run_experiment(cfg)]

        groups = {
            "kappa0": totals("reject", 0.0),
            "kappa1": totals("reject", 1.0),
            "kappa1e5": totals("reject", 1e5),
            "forward": totals("forward", 1.0),
        }
        normalized, _ = normalize_scores(groups)
        means = {k: statistics.mean(v) for k, v in normalized.items()}
        pooled = statistics.pstdev(normalized["kappa1e5"] + normalized["forward"])
        ok = (
            means["kappa1"] > means["kappa0"]
            and abs(means["kappa1e5"] - means["forward"]) <= pooled
        )
        elapsed = time.monotonic() - t0
        report(
            7,
            "zero anchor is worst on the overlapping trap, huge anchor matches forward",
            ok and elapsed < 120.0,
            f"k0 {means['kappa0']:.3f} < k1 {means['kappa1']:.3f}, "
            f"|k1e5-fw| {abs(means['kappa1e5'] - means['forward']):.3f} <= {pooled:.3f}, "
            f"{elapsed:.1f}s",
        )

    def test_08_noise_strength_statistic(self):
        t0 = time.monotonic()
        J = np.random.default_rng(800).standard_normal(10**5)
        mad = float(np.abs(J - J.mean()).mean())
        std = float(J.std())
        ratio = mad / std
        s_sym, _ = noise_strength(np.array([-1.0, 1.0] * 50), 0.0)
        elapsed = time.monotonic() - t0
        report(
            8,
            "dispersion ratio is 0.798 +/- 0.02 on Gaussian costs, exactly 0 on two-point",
            abs(ratio - 0.798) <= 0.02 and s_sym == 0.0 and elapsed < 5.0,
            f"ratio {ratio:.4f}, symmetric s {s_sym}, {elapsed:.1f}s",
        )

    def test_09_signed_weight_normalization(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(900)
        ok = True
        for backend in ("cem", "mppi"):
            for beta in (0.0, 0.25, 0.5, 1.0):
                config = WeightConfig(backend=backend, quantile=0.1, beta=beta)
                for n in (16, 100, 513):
                    J = rng.normal(0, 5, n)
                    lnH = signed_log_weights(J, config)
                    ok &= abs(lnH.sum() - (1.0 - beta) * n) <= 1e-9 * n
        elapsed = time.monotonic() - t0
        report(
            9,
            "signed log-weights sum to (1 - beta) * N for both backends",
            ok and elapsed < 5.0,
            f"{elapsed:.1f}s",
        )

    def test_10_real_time_contract(self):
        t0 = time.monotonic()
        deadline = 0.02
        solver = SolverConfig(
            n_candidates=32, n_oversample=128, horizon=12, alpha=0.05,
            max_iterations=10**6, deadline=deadline,
        )
        cfg = ExperimentConfig(
            env="pendulum_swingup", variant="accel", solver=solver,
            episode_steps=20, seeds=tuple(range(5)),
        )
        env = make_env("pendulum_swingup")
        within = 0
        total = 0
        min_iterations = 10**9
        for seed in cfg.seeds:
            x = env.initial_state
            state = None
            for step in range(cfg.episode_steps):
                result, state = solve(
                    env, x, solver, variant="accel", prev=state, seed=seed, step=step
                )
                total += 1
                min_iterations = min(min_iterations, result.iterations)
                if result.wall_time <= deadline + max(result.iteration_times):
                    within += 1
                x = env.dynamics(x.reshape(1, -1), result.u.reshape(1, -1))[0]

        # determinism across repeat runs, checked where the deadline is not
        # binding so the iteration count is timing-independent, and across
        # candidate batch layouts: rollouts of any chunking, concatenated,
        # equal the rollout of the whole batch
        det_solver = SolverConfig(
            n_candidates=32, n_oversample=128, horizon=12, alpha=0.05, max_iterations=6,
        )
        outputs = []
        for _ in range(3):
            result, st = solve(env, env.initial_state, det_solver, variant="accel", seed=11)
            outputs.append((result.u.copy(), st.theta_plus.mu.copy(), result.best_cost))
        batch = np.random.default_rng(11).uniform(-2.0, 2.0, (32, env.action_dim, 12))
        whole = rollout_batch(env, env.initial_state, batch)
        chunked = [
            np.concatenate([rollout_batch(env, env.initial_state, c) for c in np.split(batch, cuts)])
            for cuts in ([1], [16], [3, 7, 30], list(range(1, 32)))
        ]
        deterministic = all(
            np.array_equal(u, outputs[0][0])
            and np.array_equal(mu, outputs[0][1])
            and best == outputs[0][2]
            for u, mu, best in outputs[1:]
        ) and all(np.array_equal(J, whole) for J in chunked)
        elapsed = time.monotonic() - t0
        report(
            10,
            "deadline overshoot bounded by one iteration, bit-identical across runs and batch layouts",
            within / total >= 0.99 and min_iterations >= 1 and deterministic and elapsed < 120.0,
            f"{within}/{total} within bound, min iterations {min_iterations}, {elapsed:.1f}s",
        )

    def test_11_warm_start_formulas(self):
        prior = standard_prior(1, 6)
        _, a1, A1 = warm_start((prior.mu, prior.sigma), prior, a_prv=0.6, eta=1.0, alpha=0.05)
        ok_warm = a1 == pytest.approx(0.6, rel=1e-12) and A1 == pytest.approx(3.9, rel=1e-12)
        (mu_cold, sigma_cold), a_cold, A_cold = warm_start(
            (np.full((1, 6), 2.0), np.full((1, 6), 0.5)),
            prior, a_prv=0.6, eta=0.0, alpha=0.05,
        )
        ok_cold = (
            np.array_equal(mu_cold, prior.mu)
            and np.array_equal(sigma_cold, prior.sigma)
            and a_cold == 0.05
            and A_cold == pytest.approx(0.05, rel=1e-12)
        )
        report(
            11,
            "warm accumulators reproduce the triangular schedule, cold start is exact",
            ok_warm and ok_cold,
            f"a1 {a1}, A1 {A1}",
        )
