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

Because the streams do not depend on earlier iterations, a solve that draws
at least PREFETCH_MIN_NORMALS normals per iteration (n_oversample * A * H for
reject and accel, n_candidates * A * H for forward and reverse) draws
iteration i + 1's standard normals, and for reject and accel its Gumbel keys,
on one worker thread while the calling thread runs iteration i, on any host:
the rule reads only the solve's own arguments.  During its last iteration
the worker draws the next control step's iteration 1 instead; the returned
`SolverState` carries that draw, and a later solve uses it for its own
iteration 1 at most once.  `rkmpc.prefetch` owns that hand-off: which draw
is asked ahead, the keys a carried draw is made and taken under, and the
worker's lifetime.  The worker only fills buffers the solve owns, from the
draw's own Generator in the serial order, so results are bit-identical with
or without the prefetch and the carry.  Sampling, rollouts, env callables,
weights and updates all stay on the calling thread.  Under a finite deadline
a draw is made ahead only for an iteration the deadline check is expected
to let start, and the next step's only when the same check passes at the
last iteration.  The worker is joined before `solve` returns or raises,
after any draw in flight, and `wall_time` counts that wait; an exception
raised in a draw of this step reaches the caller of `solve` unchanged, while
one raised in the next step's draw is dropped, and that step draws
iteration 1 itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .envs import EnvSpec, _check_integers, _check_reals, rollout_batch
from .policy import (
    LOG_2PI,
    SIGMA_FLOOR,
    Gaussian,
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

if TYPE_CHECKING:
    from .prefetch import Carried

VARIANTS = ("forward", "reverse", "reject", "accel")
# Added to a batch's worst finite cost to price a diverged (J = +inf) candidate;
# where the sum rounds back to that cost (past about 1e22), the next float up is used.
NONFINITE_PENALTY = 1e6
Pair = tuple[np.ndarray, np.ndarray]  # (mu, sigma): one policy's (A, H), or sides stacked ahead
# From this many normals drawn per iteration on, a solve draws the next
# iteration's on a worker thread.  In a sweep of reject and accel solves (A = 1
# and 2, H = 12..50) the hand-offs cost more than they saved up to 16,384 normals
# (0.92-1.63x the serial iteration time), and from 32,768 on an iteration took
# 0.62-0.84x; forward took 0.71-0.94x from 32,800 on, and reverse 0.89-0.97x in
# 8 of 9 sets at 32,800 (1.03x in the ninth) and 0.85-0.94x from 49,200 on
# (see CHANGES.md).
PREFETCH_MIN_NORMALS = 32_768
# A warm-start prev whose theta+- holds a |mu| or sigma above this is rejected.  From
# a prev at 1e70 the updates overflowed; at 1e50 and 1e60 none did (see README).
PREV_CEILING = 1e50


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
        if not isinstance(self.weights, WeightConfig):
            raise TypeError(f"weights must be a WeightConfig, got {type(self.weights).__name__}")
        if self.n_oversample is None:
            object.__setattr__(self, "n_oversample", 4 * self.n_candidates)
        sizes = ("n_candidates", "n_oversample", "horizon", "max_iterations")
        _check_integers({name: getattr(self, name) for name in sizes})
        _check_reals({name: getattr(self, name) for name in ("alpha", "gamma", "eta", "kappa", "deadline")})
        if self.n_candidates < 2:
            raise ValueError(f"need n_candidates >= 2, got {self.n_candidates}")
        if self.n_oversample < self.n_candidates:
            raise ValueError("n_oversample must be >= n_candidates")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.gamma >= 0.0 and self.kappa >= 0.0):
            raise ValueError("gamma and kappa must be >= 0")
        if not math.isfinite(self.kappa):  # else every selection score is -inf and the top-N ties
            raise ValueError(f"kappa must be finite, got kappa={self.kappa}")
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
    write into these; the per-side properties return validated, frozen copies.

    `carry` is the next step's iteration-1 draw, made by a prefetching `solve`
    during its last iteration, or None (see `rkmpc.prefetch`).  A solve takes
    it at most once, and only for the draw it was made for; equality and
    repr ignore it, and no state `solve` builds from a `prev` copies it."""

    mu: np.ndarray
    sigma: np.ndarray
    tilde_mu: np.ndarray
    tilde_sigma: np.ndarray
    a_i: float = 0.0
    A_i: float = 0.0
    sigma_max_running: float = 0.0
    carry: Carried | None = field(default=None, compare=False, repr=False)

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
    cost_trace: tuple[float, ...] = ()  # least rollout cost per iteration, inf if every candidate diverged
    no_positive_update: bool = False
    nonfinite_candidates: int = 0


def forward_update(
    state: SolverState,
    u_batch: np.ndarray,
    weights: np.ndarray,
    alpha: float,
) -> SolverState:
    """Smoothed weighted-MLE refit of theta+; `state` itself when every weight is zero.

    With wc = w / sum(w) and the batch flattened to (N, A*H), the refit takes
    two passes: mu* = sum_n wc[n] u[n] and var* = sum_n wc[n] (u[n] - mu*)^2,
    each one einsum that adds the rows in order, as (wc * u).sum(axis=0) does,
    so both have its bits (a zero may change sign).  The deviations are the
    one (N, A*H) temporary.  A batch with A*H = 1, or not in C order, keeps
    the broadcast form: numpy sums a contiguous column pairwise, which einsum
    does not.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0.0:
        return state
    wc = w / total
    if u_batch.flags.c_contiguous and u_batch[0].size > 1:
        flat = u_batch.reshape(u_batch.shape[0], -1)
        mu_star = np.einsum("n,nk->k", wc, flat)
        d = flat - mu_star
        d *= d
        mu_star = mu_star.reshape(u_batch.shape[1:])
        var_star = np.einsum("n,nk->k", wc, d).reshape(mu_star.shape)
    else:  # the broadcast form, whose sums einsum does not reproduce here (see above)
        wc = wc[:, None, None]
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
    diagonal-Gaussian score functions written out element-wise.  The work is
    `_cluster_gradient`'s, which `_side_gradients` calls for both sides.
    """
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValueError("empty cluster: no update for this side")
    neg_w = np.asarray(lnH, dtype=float).take(cluster)  # a gathered copy, negated once in place
    return _cluster_gradient(mu, sigma, u_batch, cluster, np.negative(neg_w, out=neg_w))


def _cluster_gradient(mu, sigma, u_batch, cluster, neg_w, g_mu=None, g_sigma=None):
    """md_gradient over the non-empty index array `cluster`, given its rows'
    weights neg_w = -lnH[cluster], which it only reads, into g_mu and g_sigma
    if they are given.

    The rows are gathered into one (|C|, A, H) buffer twice, once for each
    sum, rather than kept beside a second temporary of that size: with two
    such arrays alive at once, malloc returned the freed pair to the system
    after every update and faulted it back in at the next iteration (reverse
    at (1024, 2, 50) took about 370 minor faults per iteration, forward 8).
    Every element sees the operations of the two-temporary form, and each sum
    adds the rows in the same order, so the bits are the same.  The second
    gather costs small batches what it saves large ones: at the swing-up's
    N = 32, _side_gradients took 36.4 us against the two-temporary form's
    33.4 (median of 40 interleaved timings), under 1% of an accel iteration.
    """
    n = cluster.size
    neg_w = neg_w[:, None, None]
    var = sigma * sigma
    u = u_batch.take(cluster, axis=0)  # a gathered copy, written in place below
    u -= mu
    u *= neg_w
    u /= var
    g_mu = np.add.reduce(u, axis=0, out=g_mu)  # what .sum(axis=0) calls, without its wrapper
    g_mu /= n
    # the same rows into the same buffer; "wrap" is not buffered as "raise" is, and the
    # indices passed the first take, so it gathers the same rows
    u_batch.take(cluster, axis=0, out=u, mode="wrap")
    u -= mu
    u *= u
    u -= var
    u *= neg_w
    u /= var * sigma
    g_sigma = np.add.reduce(u, axis=0, out=g_sigma)
    g_sigma /= n
    return g_mu, g_sigma


def _side_gradients(state: SolverState, u_batch: np.ndarray, lnH: np.ndarray, clusters: tuple):
    """(sides, g_mu, g_sigma): the slice of the side axis whose clusters (C+, C-)
    are not empty, and its gradients, theta+ over C+ with lnH and theta- over
    C- with -lnH (so pi- models the bad candidates), each over its own cluster.
    Each side's weights are gathered once, the ones md_gradient would get:
    -lnH[C+] for theta+ and lnH[C-] itself for theta-, whose -(-lnH) it is."""
    lnH = np.asarray(lnH, dtype=float)
    live = [k for k in (0, 1) if clusters[k].size]
    g_mu = np.empty((len(live),) + state.mu.shape[1:])
    g_sigma = np.empty_like(g_mu)
    for j, k in enumerate(live):
        w = lnH.take(clusters[k])
        if not k:
            np.negative(w, out=w)
        _cluster_gradient(state.mu[k], state.sigma[k], u_batch, clusters[k], w, g_mu[j], g_sigma[j])
    return (slice(live[0], live[-1] + 1) if live else slice(0, 0)), g_mu, g_sigma


def _stepped(state: SolverState, sides: slice, **fields) -> SolverState:
    """replace(state, **fields), `carry` included; new policy arrays cover only
    `sides`, the other side keeps its values."""
    if sides != slice(0, 2):
        for name in fields.keys() & {"mu", "sigma", "tilde_mu", "tilde_sigma"}:
            full = getattr(state, name).copy()
            full[sides] = fields[name]
            fields[name] = full
    get = fields.get  # built directly: dataclasses.replace reads the fields' list on every call
    return SolverState(
        get("mu", state.mu), get("sigma", state.sigma), get("tilde_mu", state.tilde_mu),
        get("tilde_sigma", state.tilde_sigma), get("a_i", state.a_i), get("A_i", state.A_i),
        get("sigma_max_running", state.sigma_max_running), state.carry,
    )


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
    theta_plus: PolicyParams | Gaussian,
    theta_minus: PolicyParams | Gaussian,
    u_batch: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """Unnormalized log score of the complementary distribution per candidate
    of a batch (N, A, H).

    score(U) = 1 / (pi-(U) + kappa * pi+(mu-)), evaluated in the log domain;
    the pi+(mu-) anchor keeps selection sane when the two policies overlap.
    log pi-(U) is taken as sum(-log(2 pi) / 2 - log sigma-) - sum(z * z) / 2
    with z = (U - mu-) / sigma-: three passes over the batch, where
    `log_density` makes six.  Its last bits may differ from `log_density`'s.
    """
    z = u_batch - theta_minus.mu
    z /= theta_minus.sigma
    z = z.reshape(z.shape[0], -1)
    log_pm = np.einsum("ij,ij->i", z, z)
    log_pm *= -0.5
    log_pm += float(np.add.reduce(-0.5 * LOG_2PI - np.log(theta_minus.sigma), axis=None))
    if kappa == 0.0:
        return -log_pm
    anchor = math.log(kappa) + float(log_density(theta_plus, theta_minus.mu))
    return -np.logaddexp(log_pm, anchor)


def compose_and_sample(
    theta_plus: PolicyParams | Gaussian,
    theta_minus: PolicyParams | Gaussian,
    n_tilde: int,
    n: int,
    kappa: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Oversample n_tilde candidates from pi+ and keep n of them, selected
    without replacement with probability proportional to the complementary
    distribution (Gumbel perturbed-key top-n, so no normalization constant
    is needed and the cost is one pass over n_tilde).

    Either policy may be a `PolicyParams` or a `Gaussian` of views, read
    unchecked (`solve` passes views of its state's sides; see there).
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
    outliers.  Returns (s, updated running max).  The costs must be finite
    (ValueError otherwise).

    Costs whose peak |J| reaches 2**480 are scaled by 2**-k, with 2**k the
    power of two just above the peak, so that no sum or square overflows,
    and std and mad are scaled back.  Scaling by a power of two is exact
    above the subnormals, and a cost it makes subnormal (one below 2**-1021
    times the peak) is too small to change a sum, so every finite batch
    gets the bits of the same sums taken without overflow.  The running max
    is never scaled, as a tiny one would underflow.
    """
    J = np.asarray(J, dtype=float).ravel()
    if J.size < 2:
        raise ValueError("need at least two cost samples")
    peak = np.maximum.reduce(np.abs(J))  # NaN where any cost is NaN
    if not math.isfinite(peak):
        raise ValueError("costs must be finite")
    k = 0
    if peak >= 2.0**480:  # below it, N * (2 * peak)**2 stays finite for any N below 2**60
        k = math.frexp(peak)[1]
        J = np.ldexp(J, -k)
    # what J.std() and J.mean() compute, and the reductions their .sum() calls, without the wrappers
    absdev = np.abs(J - np.add.reduce(J) / J.size)
    mad = math.ldexp(np.add.reduce(absdev) / J.size, k)
    absdev *= absdev  # |d| * |d| has the bits of d * d
    std = math.ldexp(math.sqrt(np.add.reduce(absdev) / J.size), k)
    new_max = max(sigma_max_running, mad)
    if std <= 0.0:  # new_max <= 0 means every deviation is 0, and so std too
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


def _drawn_per_iteration(variant: str, config: SolverConfig) -> int:
    """Candidates drawn per iteration: oversampled for reject and accel."""
    return config.n_oversample if variant in ("reject", "accel") else config.n_candidates


def _prefetches(variant: str, config: SolverConfig, action_dim: int) -> bool:
    """Whether a solve draws each next iteration's candidates on a worker thread:
    one rule for all four variants, on the normals each draws per iteration.

    The host's CPUs play no part: pinned to one CPU, prefetched reject and
    accel episodes measured neither faster nor slower than serial ones,
    reacher-shape forward about 1% slower, and reverse and smaller forward
    draws 3-7% slower (README).
    """
    return _drawn_per_iteration(variant, config) * action_dim * config.horizon >= PREFETCH_MIN_NORMALS


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
    if not isinstance(prev, SolverState):  # such as the ControlResult, or a (mu, sigma) pair
        raise TypeError(f"prev must be a SolverState (solve's second return value) or None, got {type(prev).__name__}")
    want = (2,) + prior.mu.shape  # the (+, -) sides of one (A, H) policy each
    for name in ("mu", "sigma", "tilde_mu", "tilde_sigma"):
        got = np.shape(getattr(prev, name))
        if got != want:
            side = "theta_tilde_plus" if name.startswith("tilde") else "theta_plus"
            raise ValueError(f"prev.{side} has shape {got[1:]}, expected {want[1:]} (prev.{name}: {got}, not {want})")
    _check_values(prev.mu, prev.sigma, "prev.")
    _check_values(prev.tilde_mu, prev.tilde_sigma, "prev.tilde_")
    for name in ("mu", "sigma"):  # the values the warm start reads
        peak = np.abs(getattr(prev, name)).max()
        if peak > PREV_CEILING:
            raise ValueError(f"prev.{name} must be within +-{PREV_CEILING:g}, got a value of magnitude {peak:g}")
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
    J: np.ndarray,
    config: SolverConfig,
) -> tuple[SolverState, bool, float]:
    """One variant's policy update from this batch's costs J, through its weight
    map: forward_weights for forward, signed_log_weights for the other three.

    Returns (state, moved, s_i): moved says whether C+ is non-empty, and s_i
    is the noise strength (accel only, else 0).
    """
    w = (forward_weights if variant == "forward" else signed_log_weights)(J, config.weights)
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
    until the time elapsed plus the estimate mean_t of one iteration exceeds
    the wall-clock deadline.  mean_t is the mean of the timed iterations and
    infinite until one is timed: the first iteration always runs, and a
    prefetched draw of iteration i + 1 is made only if the time elapsed plus
    2 * mean_t fits (under a finite deadline, never for iteration 2).  At
    max_iterations, where that test passes, a prefetching solve draws the
    next step's iteration 1 instead and returns it in the state's `carry`.
    The first solve from that state that asks for exactly that draw (the
    key `rkmpc.prefetch` states) takes it as its own iteration 1's; any
    other draws iteration 1 itself, to the same bits.  The worker is joined
    before solve returns.  A solve stopped by the deadline, or one that
    raises, carries nothing.  A diverged candidate (J = +inf) is counted in
    nonfinite_candidates and costs its batch's worst finite cost (0 if
    none) plus NONFINITE_PENALTY, so it always ranks below every finite
    candidate.  cost_trace and best_cost take each batch's least cost before
    that pricing: inf where every candidate diverged.  The state returned
    has theta+- clipped to PREV_CEILING, so it is always accepted as the
    next prev.
    The samplers read theta+- as `Gaussian` views of the state, not as
    validated `PolicyParams` copies: the prior is the one `PolicyParams` a
    solve builds.  An update that left theta+ non-finite surfaces as squash's
    ValueError("squash input must be finite"); a non-finite theta- fails that
    side's next update with ValueError("mirror point entries must be finite").
    """
    if not isinstance(env, EnvSpec):  # such as an env's name: make_env builds its EnvSpec
        raise TypeError(f"env must be an EnvSpec (see make_env), got {type(env).__name__}")
    if not isinstance(config, SolverConfig):
        raise TypeError(f"config must be a SolverConfig, got {type(config).__name__}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown solver variant {variant!r}, expected one of {VARIANTS}")
    _check_integers({"seed": seed, "step": step})
    if seed < 0 or step < 0:
        raise ValueError(f"seed and step must be >= 0, got seed={seed}, step={step}")
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (env.state_dim,) or not np.isfinite(x_t).all():
        raise ValueError(f"x_t must be finite with shape {(env.state_dim,)}, got shape {x_t.shape}")
    state = _initial_state(config, env.action_dim, prev, variant)
    two_sided = variant in ("reject", "accel")
    iter_times: list[float] = []
    total_t = 0.0  # sum of iter_times, kept as they are timed
    mean_t = math.inf  # mean of iter_times; infinite until an iteration is timed
    cost_trace: list[float] = []
    s_final = 0.0
    moved_count = 0
    nonfinite_total = 0
    prefetch = carry = None
    if _prefetches(variant, config, env.action_dim):
        from .prefetch import Prefetch  # loaded only where used; see its module docstring

        shape = (_drawn_per_iteration(variant, config), env.action_dim, config.horizon)
        prefetch = Prefetch(_iteration_rng, seed, step, shape, two_sided, None if prev is None else prev.carry)

    try:
        start = time.monotonic()
        for i in range(1, config.max_iterations + 1):
            t0 = time.monotonic()
            if iter_times and (t0 - start) + mean_t > config.deadline:
                break
            if prefetch is None:
                rng = _iteration_rng(seed, step, i)
            else:  # the next draw only if the stop test above is expected to let one more iteration start
                rng = prefetch.draw(i, i == config.max_iterations, (t0 - start) + 2.0 * mean_t <= config.deadline)
            plus = Gaussian(state.mu[0], state.sigma[0])  # views, not validated PolicyParams copies
            if two_sided:
                minus = Gaussian(state.mu[1], state.sigma[1])
                u_batch = compose_and_sample(plus, minus, config.n_oversample, config.n_candidates, config.kappa, rng)
            else:
                u_batch = sample_batch(plus, config.n_candidates, rng)
            J = rollout_batch(env, x_t, squash(u_batch, env.action_low, env.action_high))

            cost_trace.append(float(J.min()))  # before pricing: +inf when every candidate diverged
            finite = np.isfinite(J)
            if np.count_nonzero(finite) != finite.size:  # not .all(): the same test at less cost
                nonfinite_total += int((~finite).sum())
                ceiling = J[finite].max() if finite.any() else 0.0
                J = np.where(finite, J, max(ceiling + NONFINITE_PENALTY, np.nextafter(ceiling, np.inf)))

            state, moved, s_final = _update(variant, state, u_batch, J, config)
            moved_count += moved
            iter_times.append(time.monotonic() - t0)
            total_t += iter_times[-1]
            mean_t = total_t / len(iter_times)
    finally:
        if prefetch is not None:
            carry = prefetch.close()

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
    # an update may step past PREV_CEILING: clipped to it, every returned state is a valid prev
    mu, sigma = np.clip(state.mu, -PREV_CEILING, PREV_CEILING), np.minimum(state.sigma, PREV_CEILING)
    return result, replace(state, mu=mu, sigma=sigma, carry=carry)
