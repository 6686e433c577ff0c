"""The four sampling-based MPC optimizers and per-control-step orchestration.

Variants:
  forward -- weighted-MLE Gaussian refit with smoothing (CEM / MPPI style).
  reverse -- signed-weight mirror descent in the KL geometry.
  reject  -- decomposed +/- policies with pseudo-rejection batch sampling.
  accel   -- reject plus modified Nesterov acceleration on mirror descent,
             with a noise-adaptive step-size schedule.

All four share one iteration loop in `solve` (sample, roll out, weight,
update); only the sampler, the weight map and the update step differ per
variant.  Updates are pure functions; `solve` owns the per-step state, the
deadline bookkeeping, and the counter-based RNG streams that make each
iteration's batch a function of (seed, step, iteration) alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .envs import EnvSpec, rollout_batch
from .policy import (
    SIGMA_FLOOR,
    PolicyParams,
    log_density,
    mirror_inverse,
    mirror_map,
    sample_batch,
    squash,
    standard_prior,
)
from .weights import WeightConfig, forward_weights, partition_clusters, signed_log_weights

VARIANTS = ("forward", "reverse", "reject", "accel")
# Added to a batch's worst finite cost to price a diverged (J = +inf) candidate.
NONFINITE_PENALTY = 1e6


@dataclass(frozen=True)
class SolverConfig:
    n_candidates: int = 32
    n_oversample: int | None = None  # used by reject / accel; None means 4 * n_candidates
    horizon: int = 12
    alpha: float = 0.05
    gamma: float = 0.5
    eta: float = 0.25
    kappa: float = 1.0
    weights: WeightConfig = field(default_factory=WeightConfig)
    deadline: float = math.inf  # seconds of wall clock per control step
    max_iterations: int = 32

    def __post_init__(self):
        if self.n_oversample is None:
            object.__setattr__(self, "n_oversample", 4 * self.n_candidates)
        if self.n_candidates < 2:
            raise ValueError(f"need n_candidates >= 2, got {self.n_candidates}")
        if self.n_oversample < self.n_candidates:
            raise ValueError("n_oversample must be >= n_candidates")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.gamma >= 0.0 and self.kappa >= 0.0):
            raise ValueError("gamma and kappa must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.horizon < 1 or self.max_iterations < 1:
            raise ValueError("horizon and max_iterations must be >= 1")
        if not self.deadline >= 0.0:
            raise ValueError(f"deadline must be >= 0 seconds (inf for none), got {self.deadline}")


@dataclass(frozen=True)
class SolverState:
    theta_plus: PolicyParams
    theta_minus: PolicyParams
    theta_tilde_plus: PolicyParams
    theta_tilde_minus: PolicyParams
    a_i: float = 0.0
    A_i: float = 0.0
    sigma_max_running: float = 0.0


@dataclass(frozen=True)
class ControlResult:
    u: np.ndarray  # first squashed action, shape (A,)
    iterations: int
    best_cost: float
    wall_time: float
    noise_strength_final: float
    iteration_times: tuple[float, ...]
    cost_trace: tuple[float, ...] = ()  # min batch cost per iteration
    no_positive_update: bool = False
    nonfinite_candidates: int = 0


def forward_update(
    theta_i: PolicyParams,
    u_batch: np.ndarray,
    weights: np.ndarray,
    alpha: float,
) -> tuple[PolicyParams, bool]:
    """Smoothed weighted-MLE refit; returns (params, all_weights_zero flag)."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0.0:
        return theta_i, True
    wc = w[:, None, None] / total
    mu_star = (wc * u_batch).sum(axis=0)
    var_star = (wc * (u_batch - mu_star) ** 2).sum(axis=0)
    sigma_star = np.sqrt(var_star)
    mu = (1.0 - alpha) * theta_i.mu + alpha * mu_star
    sigma = (1.0 - alpha) * theta_i.sigma + alpha * sigma_star
    return PolicyParams(mu, np.maximum(sigma, SIGMA_FLOOR)), False


def md_gradient(
    theta: PolicyParams,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    cluster: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-averaged gradient of the signed weighted log-likelihood.

    g = (1/|C|) sum_{n in C} (-lnH^n) * grad_theta ln pi(U^n; theta), with the
    diagonal-Gaussian score functions written out element-wise.
    """
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValueError("empty cluster: no update for this side")
    u = u_batch[cluster]
    w = np.asarray(lnH, dtype=float)[cluster][:, None, None]
    diff = u - theta.mu
    var = theta.sigma**2
    g_mu = (-w * diff / var).mean(axis=0)
    g_sigma = (-w * (diff**2 - var) / (var * theta.sigma)).mean(axis=0)
    return g_mu, g_sigma


def reverse_update(
    theta_i: PolicyParams,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    alpha: float,
    cluster: np.ndarray | None = None,
) -> PolicyParams:
    """One mirror-descent step anchored at theta_i."""
    if cluster is None:
        cluster = np.arange(u_batch.shape[0])
    g_mu, g_sigma = md_gradient(theta_i, u_batch, lnH, cluster)
    z_mu, z_sigma = mirror_map(theta_i, theta_i)
    return mirror_inverse(z_mu - alpha * g_mu, z_sigma - alpha * g_sigma, theta_i)


def reject_update(
    state: SolverState,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    alpha: float,
) -> SolverState:
    """Update theta+ over C+ and theta- over C-, each side under its own
    mirror geometry; a side with an empty cluster is left untouched.

    theta- is trained with |lnH| as positive weights, so pi- becomes a
    density model of the bad candidates.
    """
    c_plus, c_minus = partition_clusters(lnH)
    theta_plus, theta_minus = state.theta_plus, state.theta_minus
    if c_plus.size:
        theta_plus = reverse_update(theta_plus, u_batch, lnH, alpha, c_plus)
    if c_minus.size:
        theta_minus = reverse_update(theta_minus, u_batch, -np.asarray(lnH), alpha, c_minus)
    return replace(state, theta_plus=theta_plus, theta_minus=theta_minus)


def selection_log_scores(
    theta_plus: PolicyParams,
    theta_minus: PolicyParams,
    u_batch: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """Unnormalized log score of the complementary distribution per candidate.

    score(U) = 1 / (pi-(U) + kappa * pi+(mu-)), evaluated in the log domain;
    the pi+(mu-) anchor keeps selection sane when the two policies overlap.
    """
    log_pm = log_density(theta_minus, u_batch)
    if kappa == 0.0:
        return -log_pm
    anchor = math.log(kappa) + float(log_density(theta_plus, theta_minus.mu))
    return -np.logaddexp(log_pm, anchor)


def compose_and_sample(
    theta_plus: PolicyParams,
    theta_minus: PolicyParams,
    n_tilde: int,
    n: int,
    kappa: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Oversample n_tilde candidates from pi+ and keep n of them, selected
    without replacement with probability proportional to the complementary
    distribution (Gumbel perturbed-key top-n, so no normalization constant
    is needed and the cost is one pass over n_tilde).
    """
    if n_tilde < n:
        raise ValueError("n_tilde must be >= n")
    u_all = sample_batch(theta_plus, n_tilde, rng)
    scores = selection_log_scores(theta_plus, theta_minus, u_all, kappa)
    keys = scores + rng.gumbel(size=n_tilde)
    chosen = np.sort(np.argsort(-keys, kind="stable")[:n])
    return u_all[chosen]


def noise_strength(J: np.ndarray, sigma_max_running: float) -> tuple[float, float]:
    """Scalar noise-strength estimate in [0, 1] from the cost dispersion.

    Compares the standard deviation with the mean absolute deviation (equal
    for symmetric two-point samples; ratio ~0.8 for Gaussians) and scales by
    the running maximum of the per-iteration MADs, which is robust to cost
    outliers.  Returns (s, updated running max).
    """
    J = np.asarray(J, dtype=float).ravel()
    if J.size < 2:
        raise ValueError("need at least two cost samples")
    std = float(J.std())
    mad = float(np.abs(J - J.mean()).mean())
    new_max = max(sigma_max_running, mad)
    if std <= 0.0 or new_max <= 0.0:
        return 0.0, new_max
    s = (1.0 - mad / std) * (std / new_max)
    return float(np.clip(s, 0.0, 1.0)), new_max


def step_size_advance(a_i: float, A_i: float, s_i: float, alpha: float, gamma: float) -> tuple[float, float]:
    """Advance the accelerated schedule: a grows by alpha, slowed by noise."""
    if a_i <= 0.0:
        raise ValueError("a_i must be > 0")
    a_next = a_i + alpha / (1.0 + 5.0 * gamma * s_i)
    return a_next, A_i + a_next


def agd_plus_step(
    theta_i: PolicyParams,
    theta_tilde_prev: PolicyParams,
    g_mu: np.ndarray,
    g_sigma: np.ndarray,
    a_i: float,
    A_i: float,
    a_next: float,
    A_next: float,
    anchor: PolicyParams | None = None,
) -> tuple[PolicyParams, PolicyParams]:
    """One accelerated mirror-descent step; returns (theta_next, theta_tilde).

    The mirror maps are anchored at theta_i (the dynamic geometry), unless an
    explicit static anchor is supplied.  The new iterate interpolates theta_i
    with the momentum point and adds the momentum difference term.
    """
    if anchor is None:
        anchor = theta_i
    z_mu, z_sigma = mirror_map(theta_tilde_prev, anchor)
    tilde = mirror_inverse(z_mu - a_i * g_mu, z_sigma - a_i * g_sigma, anchor)
    w_keep = A_i / A_next
    w_new = a_next / A_next
    w_mom = a_i / A_next
    mu = w_keep * theta_i.mu + w_new * tilde.mu + w_mom * (tilde.mu - theta_tilde_prev.mu)
    sigma = w_keep * theta_i.sigma + w_new * tilde.sigma + w_mom * (tilde.sigma - theta_tilde_prev.sigma)
    theta_next = PolicyParams(mu, np.maximum(sigma, SIGMA_FLOOR))
    return theta_next, tilde


def accel_update(
    state: SolverState,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    J: np.ndarray,
    config: SolverConfig,
) -> tuple[SolverState, float]:
    """One accelerated iteration for both policy sides; returns (state, s_i).

    Both sides carry independent momentum points.  The step accumulators are
    advanced exactly once per iteration, using the noise strength estimated
    from this batch's costs.
    """
    s_i, sigma_max = noise_strength(J, state.sigma_max_running)
    a_next, A_next = step_size_advance(state.a_i, state.A_i, s_i, config.alpha, config.gamma)
    lnH = np.asarray(lnH, dtype=float)
    c_plus, c_minus = partition_clusters(lnH)
    sides = []
    for theta, tilde, signed, cluster in (
        (state.theta_plus, state.theta_tilde_plus, lnH, c_plus),
        (state.theta_minus, state.theta_tilde_minus, -lnH, c_minus),
    ):
        if cluster.size:
            g = md_gradient(theta, u_batch, signed, cluster)
            theta, tilde = agd_plus_step(theta, tilde, *g, state.a_i, state.A_i, a_next, A_next)
        sides.append((theta, tilde))
    (theta_plus, tilde_plus), (theta_minus, tilde_minus) = sides
    new_state = replace(
        state,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        theta_tilde_plus=tilde_plus,
        theta_tilde_minus=tilde_minus,
        a_i=a_next,
        A_i=A_next,
        sigma_max_running=sigma_max,
    )
    return new_state, s_i


def warm_start(
    theta_star: PolicyParams,
    prior: PolicyParams,
    a_prv: float,
    eta: float,
    alpha: float,
) -> tuple[PolicyParams, float, float]:
    """Time-shifted blend of the previous optimum into the prior, plus the
    warm step accumulators: a1 interpolates alpha with the previous final
    step and A1 is read off the triangular schedule at the implied iteration.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    horizon = prior.horizon
    mu = prior.mu.copy()
    sigma = prior.sigma.copy()
    if horizon > 1:
        mu[:, : horizon - 1] = (1.0 - eta) * prior.mu[:, : horizon - 1] + eta * theta_star.mu[:, 1:]
        sigma[:, : horizon - 1] = (1.0 - eta) * prior.sigma[:, : horizon - 1] + eta * theta_star.sigma[:, 1:]
    a1 = (1.0 - eta) * alpha + eta * a_prv
    A1 = 0.5 * a1 * (a1 / alpha + 1.0)
    return PolicyParams(mu, sigma), a1, A1


def _iteration_rng(seed: int, step: int, iteration: int) -> np.random.Generator:
    """Counter-based stream: the batch never depends on earlier draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step, iteration)))


def _initial_state(
    config: SolverConfig,
    action_dim: int,
    prev: SolverState | None,
) -> SolverState:
    prior = standard_prior(action_dim, config.horizon)
    if prev is None:
        theta1, a1, A1 = warm_start(prior, prior, config.alpha, 0.0, config.alpha)
        minus1 = prior
    else:
        for name in ("theta_plus", "theta_minus"):
            shape = getattr(prev, name).mu.shape
            if shape != prior.mu.shape:
                raise ValueError(f"prev.{name} has shape {shape}, expected {prior.mu.shape}")
        theta1, a1, A1 = warm_start(prev.theta_plus, prior, prev.a_i, config.eta, config.alpha)
        minus1, _, _ = warm_start(prev.theta_minus, prior, prev.a_i, config.eta, config.alpha)
    return SolverState(
        theta_plus=theta1,
        theta_minus=minus1,
        theta_tilde_plus=theta1,
        theta_tilde_minus=minus1,
        a_i=a1,
        A_i=A1,
    )


def _update(
    variant: str,
    state: SolverState,
    u_batch: np.ndarray,
    w: np.ndarray,
    J: np.ndarray,
    config: SolverConfig,
) -> tuple[SolverState, bool, float]:
    """One variant's policy update from this batch's weights w.

    Returns (state, moved, s_i): moved says whether theta+ got a positive
    update, and s_i is the noise strength (accel only, else 0).
    """
    if variant == "forward":
        theta, zero = forward_update(state.theta_plus, u_batch, w, config.alpha)
        return replace(state, theta_plus=theta), not zero, 0.0
    if variant == "reverse":
        moved = bool(np.any(w != 0.0))
        theta = reverse_update(state.theta_plus, u_batch, w, config.alpha) if moved else state.theta_plus
        return replace(state, theta_plus=theta), moved, 0.0
    moved = partition_clusters(w)[0].size > 0
    if variant == "reject":
        return reject_update(state, u_batch, w, config.alpha), moved, 0.0
    state, s_i = accel_update(state, u_batch, w, J, config)
    return state, moved, s_i


def solve(
    env: EnvSpec,
    x_t: np.ndarray,
    config: SolverConfig,
    variant: str = "accel",
    prev: SolverState | None = None,
    seed: int = 0,
    step: int = 0,
) -> tuple[ControlResult, SolverState]:
    """Optimize one control step from the finite state x_t, shape (state_dim,),
    and return the first squashed action.

    Iterates sample -> rollout -> weight -> update until max_iterations, or
    until starting another iteration would be expected (from the running mean
    iteration time) to exceed the wall-clock deadline.  The first iteration
    always runs.  A diverged candidate (J = +inf) is counted in
    nonfinite_candidates and costs its batch's worst finite cost (0 if none)
    plus NONFINITE_PENALTY.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown solver variant {variant!r}, expected one of {VARIANTS}")
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (env.state_dim,) or not np.all(np.isfinite(x_t)):
        raise ValueError(f"x_t must be finite with shape {(env.state_dim,)}, got shape {x_t.shape}")
    state = _initial_state(config, env.action_dim, prev)
    two_sided = variant in ("reject", "accel")
    weigh = forward_weights if variant == "forward" else signed_log_weights

    start = time.monotonic()
    iter_times: list[float] = []
    cost_trace: list[float] = []
    s_final = 0.0
    moved_count = 0
    nonfinite_total = 0

    for i in range(1, config.max_iterations + 1):
        if iter_times:
            mean_t = sum(iter_times) / len(iter_times)
            if (time.monotonic() - start) + mean_t > config.deadline:
                break
        t0 = time.monotonic()
        rng = _iteration_rng(seed, step, i)
        if two_sided:
            u_batch = compose_and_sample(
                state.theta_plus, state.theta_minus,
                config.n_oversample, config.n_candidates, config.kappa, rng,
            )
        else:
            u_batch = sample_batch(state.theta_plus, config.n_candidates, rng)
        J = rollout_batch(env, x_t, squash(u_batch, env.action_low, env.action_high))

        finite = np.isfinite(J)
        if not finite.all():
            nonfinite_total += int((~finite).sum())
            ceiling = J[finite].max() if finite.any() else 0.0
            J = np.where(finite, J, ceiling + NONFINITE_PENALTY)
        cost_trace.append(float(J.min()))

        state, moved, s_final = _update(variant, state, u_batch, weigh(J, config.weights), J, config)
        moved_count += moved
        iter_times.append(time.monotonic() - t0)

    u_first = squash(state.theta_plus.mu, env.action_low, env.action_high)[:, 0]
    result = ControlResult(
        u=u_first,
        iterations=len(iter_times),
        best_cost=min(cost_trace),
        wall_time=time.monotonic() - start,
        noise_strength_final=s_final,
        iteration_times=tuple(iter_times),
        cost_trace=tuple(cost_trace),
        no_positive_update=(moved_count == 0),
        nonfinite_candidates=nonfinite_total,
    )
    return result, state
