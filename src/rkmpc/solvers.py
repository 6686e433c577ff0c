"""The four sampling-based MPC optimizers and per-control-step orchestration.

Variants:
  forward -- weighted-MLE Gaussian refit with smoothing (CEM / MPPI style).
  reverse -- signed-weight mirror descent in the KL geometry.
  reject  -- decomposed +/- policies with pseudo-rejection batch sampling.
  accel   -- reject plus modified Nesterov acceleration on mirror descent,
             with a noise-adaptive step-size schedule.

All four share one iteration loop in `solve` (sample, roll out, weight,
update); only the sampler, the weight map and the update step differ per
variant.  Every update takes a `SolverState` and returns a new one (accel
also returns its noise strength s_i), never writing into its input: forward
and reverse step theta+ only, reverse and reject run one mirror-descent step
over the clusters they are given, and all but accel return their input
state itself when every weight is zero.  `solve` owns the per-step state, the
deadline bookkeeping, and the counter-based RNG streams that make each
iteration's batch a function of (seed, step, iteration) alone.

Because the streams do not depend on earlier iterations, a reject or accel
solve that draws at least PREFETCH_MIN_NORMALS oversampled normals per
iteration (n_oversample * A * H), in a process that may run on two or more
CPUs, draws iteration i + 1's standard normals and Gumbel keys on one worker
thread while the calling thread runs iteration i (`rkmpc.prefetch`).  The
worker only fills one of two buffers the solve owns, from iteration i + 1's
own Generator in the serial order, so results are bit-identical with or
without the prefetch.  Sampling, rollouts, env callables, weights and
updates all stay on the calling thread.  Under a finite deadline a draw is
made ahead only for an iteration the deadline check is expected to let
start.  The worker is joined before `solve` returns or raises, after any
draw in flight, and `wall_time` counts that wait; an exception raised in a
draw reaches the caller of `solve` unchanged.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .envs import EnvSpec, rollout_batch
from .policy import (
    SIGMA_FLOOR,
    PolicyParams,
    _check_values,
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
Pair = tuple[np.ndarray, np.ndarray]  # (mu, sigma): one policy's (A, H), or sides stacked ahead
# Reject and accel draw n_oversample * A * H normals per iteration; from this many
# on, a solve draws the next iteration's on a worker thread.  In a sweep of reject
# and accel solves (A = 1 and 2, H = 12..50) the hand-offs cost more than they
# saved up to 16,384 normals (0.92-1.63x the serial iteration time), and from
# 32,768 on an iteration took 0.62-0.84x (see CHANGES.md).
PREFETCH_MIN_NORMALS = 32_768


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
        for name in ("n_candidates", "n_oversample", "horizon", "max_iterations"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_candidates < 2:
            raise ValueError(f"need n_candidates >= 2, got {self.n_candidates}")
        if self.n_oversample < self.n_candidates:
            raise ValueError("n_oversample must be >= n_candidates")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.gamma >= 0.0 and self.kappa >= 0.0):
            raise ValueError("gamma and kappa must be >= 0")
        if not math.isfinite(5.0 * self.gamma):  # else the step's 5 * gamma * s is NaN at s = 0
            raise ValueError(f"5 * gamma must be finite, got gamma={self.gamma}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.horizon < 1 or self.max_iterations < 1:
            raise ValueError("horizon and max_iterations must be >= 1")
        if not self.deadline >= 0.0:
            raise ValueError(f"deadline must be >= 0 seconds (inf for none), got {self.deadline}")


@dataclass(frozen=True)
class SolverState:
    """theta+- in (mu, sigma) and the momentum points theta~+- in (tilde_mu, tilde_sigma),
    each (2, action_dim, horizon) with the sides in the order (+, -).  Updates never
    write into these; the per-side properties return validated, frozen copies."""

    mu: np.ndarray
    sigma: np.ndarray
    tilde_mu: np.ndarray
    tilde_sigma: np.ndarray
    a_i: float = 0.0
    A_i: float = 0.0
    sigma_max_running: float = 0.0

    theta_plus = property(lambda self: PolicyParams(self.mu[0], self.sigma[0]))
    theta_minus = property(lambda self: PolicyParams(self.mu[1], self.sigma[1]))
    theta_tilde_plus = property(lambda self: PolicyParams(self.tilde_mu[0], self.tilde_sigma[0]))
    theta_tilde_minus = property(lambda self: PolicyParams(self.tilde_mu[1], self.tilde_sigma[1]))


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
    state: SolverState,
    u_batch: np.ndarray,
    weights: np.ndarray,
    alpha: float,
) -> SolverState:
    """Smoothed weighted-MLE refit of theta+; `state` itself when every weight is zero."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0.0:
        return state
    wc = w[:, None, None] / total
    tmp = wc * u_batch
    mu_star = tmp.sum(axis=0)
    np.subtract(u_batch, mu_star, out=tmp)
    tmp *= tmp
    tmp *= wc
    var_star = tmp.sum(axis=0)
    sigma_star = np.sqrt(var_star)
    mu = (1.0 - alpha) * state.mu[0] + alpha * mu_star
    sigma = (1.0 - alpha) * state.sigma[0] + alpha * sigma_star
    return _stepped(state, slice(0, 1), mu=mu, sigma=np.maximum(sigma, SIGMA_FLOOR))


def md_gradient(
    mu: np.ndarray,
    sigma: np.ndarray,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    cluster: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-averaged gradient of the signed weighted log-likelihood at (mu, sigma).

    g = (1/|C|) sum_{n in C} (-lnH^n) * grad_theta ln pi(U^n; theta), with the
    diagonal-Gaussian score functions written out element-wise.
    """
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValueError("empty cluster: no update for this side")
    u = u_batch[cluster]
    w = np.asarray(lnH, dtype=float)[cluster][:, None, None]
    diff = u - mu
    var = sigma**2
    t = -w * diff
    t /= var
    g_mu = t.sum(axis=0) / cluster.size
    diff *= diff
    diff -= var
    diff *= -w
    diff /= var * sigma
    g_sigma = diff.sum(axis=0) / cluster.size
    return g_mu, g_sigma


def _side_gradients(state: SolverState, u_batch: np.ndarray, lnH: np.ndarray, clusters: tuple):
    """(sides, g_mu, g_sigma): the slice of the side axis whose clusters (C+, C-)
    are not empty, and its gradients, theta+ over C+ with lnH and theta- over
    C- with -lnH (so pi- models the bad candidates), each over its own cluster."""
    lnH = np.asarray(lnH, dtype=float)
    live = [k for k in (0, 1) if clusters[k].size]
    g_mu = np.empty((len(live),) + state.mu.shape[1:])
    g_sigma = np.empty_like(g_mu)
    for j, k in enumerate(live):
        g_mu[j], g_sigma[j] = md_gradient(state.mu[k], state.sigma[k], u_batch, -lnH if k else lnH, clusters[k])
    return (slice(live[0], live[-1] + 1) if live else slice(0, 0)), g_mu, g_sigma


def _stepped(state: SolverState, sides: slice, **fields) -> SolverState:
    """replace(state, **fields); new policy arrays cover only `sides`, the other side keeps its values."""
    if sides != slice(0, 2):
        for name in fields.keys() & {"mu", "sigma", "tilde_mu", "tilde_sigma"}:
            full = getattr(state, name).copy()
            full[sides] = fields[name]
            fields[name] = full
    return replace(state, **fields)


def _mirror_descent(state: SolverState, u_batch: np.ndarray, lnH: np.ndarray, alpha: float, clusters: tuple):
    """One mirror-descent step of each side whose cluster is not empty, in the
    geometry anchored at that side; `state` itself when both are empty."""
    sides, g_mu, g_sigma = _side_gradients(state, u_batch, lnH, clusters)
    if not g_mu.shape[0]:
        return state
    mu, sigma = state.mu[sides], state.sigma[sides]
    z_mu, z_sigma = mirror_map(mu, sigma, sigma)
    mu, sigma = mirror_inverse(z_mu - alpha * g_mu, z_sigma - alpha * g_sigma, sigma)
    return _stepped(state, sides, mu=mu, sigma=sigma)


def reverse_update(
    state: SolverState,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    alpha: float,
) -> SolverState:
    """One mirror-descent step of theta+ over every candidate; `state` itself when lnH is all zero."""
    plus = np.arange(u_batch.shape[0] if np.any(lnH) else 0)  # C+ is every candidate, C- none
    return _mirror_descent(state, u_batch, lnH, alpha, (plus, np.arange(0)))


def reject_update(
    state: SolverState,
    u_batch: np.ndarray,
    lnH: np.ndarray,
    alpha: float,
) -> SolverState:
    """One mirror-descent step of both sides, each under its own geometry."""
    return _mirror_descent(state, u_batch, lnH, alpha, partition_clusters(lnH))


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
    chosen = np.sort(np.argpartition(-keys, n - 1)[:n])
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
    dev = J - J.sum() / J.size  # what J.std() and J.mean() compute, without their wrappers
    std = math.sqrt((dev * dev).sum() / J.size)
    mad = float(np.abs(dev).sum() / J.size)
    new_max = max(sigma_max_running, mad)
    if std <= 0.0 or new_max <= 0.0:
        return 0.0, new_max
    s = (1.0 - mad / std) * (std / new_max)
    return min(max(s, 0.0), 1.0), new_max


def step_size_advance(a_i: float, A_i: float, s_i: float, alpha: float, gamma: float) -> tuple[float, float]:
    """Advance the accelerated schedule: a grows by alpha, slowed by noise."""
    if a_i <= 0.0:
        raise ValueError("a_i must be > 0")
    a_next = a_i + alpha / (1.0 + 5.0 * gamma * s_i)
    return a_next, A_i + a_next


def agd_plus_step(
    theta_i: Pair,
    theta_tilde_prev: Pair,
    g_mu: np.ndarray,
    g_sigma: np.ndarray,
    a_i: float,
    A_i: float,
    a_next: float,
    A_next: float,
    anchor: np.ndarray | None = None,
) -> tuple[Pair, Pair]:
    """One accelerated mirror-descent step; returns (theta_next, theta_tilde).

    The mirror maps are anchored at theta_i's scale (the dynamic geometry),
    unless an explicit static anchor scale is supplied.  The new iterate
    interpolates theta_i with the momentum point and adds the momentum
    difference term.
    """
    (mu_i, sigma_i), (mu_prev, sigma_prev) = theta_i, theta_tilde_prev
    anchor = sigma_i if anchor is None else anchor
    z_mu, z_sigma = mirror_map(mu_prev, sigma_prev, anchor)
    t_mu, t_sigma = mirror_inverse(z_mu - a_i * g_mu, z_sigma - a_i * g_sigma, anchor)
    w_keep = A_i / A_next
    w_new = a_next / A_next
    w_mom = a_i / A_next
    mu = w_keep * mu_i + w_new * t_mu + w_mom * (t_mu - mu_prev)
    sigma = w_keep * sigma_i + w_new * t_sigma + w_mom * (t_sigma - sigma_prev)
    return (mu, np.maximum(sigma, SIGMA_FLOOR)), (t_mu, t_sigma)


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
    sides, g_mu, g_sigma = _side_gradients(state, u_batch, lnH, partition_clusters(lnH))
    theta, tilde = (state.mu[sides], state.sigma[sides]), (state.tilde_mu[sides], state.tilde_sigma[sides])
    (mu, sigma), (t_mu, t_sigma) = agd_plus_step(theta, tilde, g_mu, g_sigma, state.a_i, state.A_i, a_next, A_next)
    fields = {"a_i": a_next, "A_i": A_next, "sigma_max_running": sigma_max}
    return _stepped(state, sides, mu=mu, sigma=sigma, tilde_mu=t_mu, tilde_sigma=t_sigma, **fields), s_i


def warm_start(
    theta_star: Pair,
    prior: PolicyParams,
    a_prv: float,
    eta: float,
    alpha: float,
) -> tuple[Pair, float, float]:
    """Time-shifted blend of the previous optimum into the prior, plus the
    warm step accumulators: a1 interpolates alpha with the previous final
    step and A1 is read off the triangular schedule at the implied iteration.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    mu_star, sigma_star = theta_star
    mu, sigma = np.empty(np.shape(mu_star)), np.empty(np.shape(sigma_star))
    mu[...], sigma[...] = prior.mu, prior.sigma
    mu[..., :-1] = (1.0 - eta) * prior.mu[:, :-1] + eta * mu_star[..., 1:]
    sigma[..., :-1] = (1.0 - eta) * prior.sigma[:, :-1] + eta * sigma_star[..., 1:]
    a1 = (1.0 - eta) * alpha + eta * a_prv
    A1 = 0.5 * a1 * (a1 / alpha + 1.0)
    return (mu, sigma), a1, A1


def _iteration_rng(seed: int, step: int, iteration: int) -> np.random.Generator:
    """Counter-based stream: the batch never depends on earlier draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step, iteration)))


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _prefetches(variant: str, config: SolverConfig, action_dim: int) -> bool:
    """Whether a solve draws each next iteration's candidates on a worker thread."""
    return (
        variant in ("reject", "accel")
        and config.n_oversample * action_dim * config.horizon >= PREFETCH_MIN_NORMALS
        and _usable_cpus() >= 2
    )


def _initial_state(
    config: SolverConfig,
    action_dim: int,
    prev: SolverState | None,
    variant: str,
) -> SolverState:
    prior = standard_prior(action_dim, config.horizon)
    if prev is None:  # warm_start at eta = 0 from the prior: the prior itself, a1 = A1 = alpha
        mu, sigma = np.stack((prior.mu, prior.mu)), np.stack((prior.sigma, prior.sigma))
        return SolverState(mu, sigma, mu, sigma, a_i=config.alpha, A_i=config.alpha)
    want = (2,) + prior.mu.shape  # the (+, -) sides of one (A, H) policy each
    for name in ("mu", "sigma", "tilde_mu", "tilde_sigma"):
        got = np.shape(getattr(prev, name))
        if got != want:
            side = "theta_tilde_plus" if name.startswith("tilde") else "theta_plus"
            raise ValueError(f"prev.{side} has shape {got[1:]}, expected {want[1:]} (prev.{name}: {got}, not {want})")
    _check_values(prev.mu, prev.sigma, "prev.")
    _check_values(prev.tilde_mu, prev.tilde_sigma, "prev.tilde_")
    if not (math.isfinite(prev.a_i) and prev.a_i >= 0.0):
        raise ValueError(f"prev.a_i must be finite and >= 0, got {prev.a_i}")
    (mu, sigma), a1, A1 = warm_start((prev.mu, prev.sigma), prior, prev.a_i, config.eta, config.alpha)
    if not math.isfinite(A1):
        raise ValueError(f"prev.a_i = {prev.a_i} is too large: the warm-started A_1 overflows")
    if variant == "accel" and a1 == 0.0:  # only accel steps by a_i; a hand-built state has a_i = 0
        raise ValueError("prev.a_i = 0 at eta = 1 gives accel a first step size of 0; need prev.a_i > 0 or eta < 1")
    return SolverState(mu, sigma, mu, sigma, a_i=a1, A_i=A1)


def _update(
    variant: str,
    state: SolverState,
    u_batch: np.ndarray,
    w: np.ndarray,
    J: np.ndarray,
    config: SolverConfig,
) -> tuple[SolverState, bool, float]:
    """One variant's policy update from this batch's weights w.

    Returns (state, moved, s_i): moved says whether C+ is non-empty, and s_i
    is the noise strength (accel only, else 0).
    """
    if variant in ("forward", "reverse"):  # each returns `state` itself exactly when C+ is empty
        new = (forward_update if variant == "forward" else reverse_update)(state, u_batch, w, config.alpha)
        return new, new is not state, 0.0
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
    if seed < 0 or step < 0:
        raise ValueError(f"seed and step must be >= 0, got seed={seed}, step={step}")
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (env.state_dim,) or not np.isfinite(x_t).all():
        raise ValueError(f"x_t must be finite with shape {(env.state_dim,)}, got shape {x_t.shape}")
    state = _initial_state(config, env.action_dim, prev, variant)
    two_sided = variant in ("reject", "accel")
    prefetch = None
    if _prefetches(variant, config, env.action_dim):
        from .prefetch import Prefetch  # loaded only where used; see its module docstring

        shape = (config.n_oversample, env.action_dim, config.horizon)
        prefetch = Prefetch(lambda k: _iteration_rng(seed, step, k), shape)
    weigh = forward_weights if variant == "forward" else signed_log_weights

    start = time.monotonic()
    iter_times: list[float] = []
    cost_trace: list[float] = []
    s_final = 0.0
    moved_count = 0
    nonfinite_total = 0

    try:
        for i in range(1, config.max_iterations + 1):
            if iter_times:
                mean_t = sum(iter_times) / len(iter_times)
                if (time.monotonic() - start) + mean_t > config.deadline:
                    break
            t0 = time.monotonic()
            if prefetch is None:
                rng = _iteration_rng(seed, step, i)
            else:  # draw i + 1 ahead only if the check above is expected to let it start
                ahead = i < config.max_iterations and (
                    config.deadline == math.inf or bool(iter_times) and (t0 - start) + 2.0 * mean_t <= config.deadline
                )
                rng = prefetch.draw(i, ahead)
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
    finally:
        if prefetch is not None:
            prefetch.close()

    u_first = squash(state.mu[0], env.action_low, env.action_high)[:, 0]
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
