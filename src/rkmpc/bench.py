"""Seeded experiment runner, score normalization, and ablation sweeps.

Results CSVs are fully deterministic (same config -> byte-identical file);
wall-clock timing goes to a separate timing CSV so determinism checks stay
meaningful.  Floats are serialized with 9 significant digits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from statistics import mean, pstdev

from .envs import EnvSpec, make_env, rollout_batch
from .solvers import VARIANTS, SolverConfig, SolverState, solve
from .policy import squash

SWEEPABLE = ("kappa", "gamma", "beta", "alpha")

TIMING_HEADER = ["seed", "step", "wall_time"]


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _csv(header: list[str], rows) -> str:
    """The one CSV dialect of every table (header row first, `\\n` line ends);
    the byte-identical results files depend on it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class ExperimentConfig:
    env: str = "quadratic_bowl"
    variant: str = "accel"
    solver: SolverConfig = field(default_factory=SolverConfig)
    episode_steps: int = 20
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown solver variant {self.variant!r}, expected one of {VARIANTS}")
        if self.episode_steps < 1:
            raise ValueError("episode_steps must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")


@dataclass(frozen=True)
class StepRow:
    step: int
    wall_time: float
    iterations: int
    u: tuple[float, ...]
    chosen_cost: float
    realized_cost: float
    noise_strength: float
    a_i: float


@dataclass(frozen=True)
class EpisodeRecord:
    seed: int
    rows: tuple[StepRow, ...]
    total_reward: float  # negative sum of realized stage costs


def run_episode(env: EnvSpec, config: ExperimentConfig, seed: int) -> EpisodeRecord:
    """One deterministic closed-loop episode for a single seed."""
    x = env.initial_state.copy()
    state: SolverState | None = None
    rows = []
    total_cost = 0.0
    for step in range(config.episode_steps):
        result, state = solve(
            env, x, config.solver, variant=config.variant,
            prev=state, seed=seed, step=step,
        )
        mean_seq = squash(state.theta_plus.mu, env.action_low, env.action_high)
        chosen = float(rollout_batch(env, x, mean_seq[None])[0])
        u = result.u.reshape(1, env.action_dim)
        xb = x.reshape(1, env.state_dim)
        realized = float(env.stage_cost(xb, u)[0])
        realized += env.constraint_penalty * max(0.0, float(env.constraint(xb, u)[0]))
        total_cost += realized
        x = env.dynamics(xb, u)[0]
        rows.append(
            StepRow(
                step=step,
                wall_time=result.wall_time,
                iterations=result.iterations,
                u=tuple(float(v) for v in result.u),
                chosen_cost=chosen,
                realized_cost=realized,
                noise_strength=result.noise_strength_final,
                a_i=state.a_i,
            )
        )
    return EpisodeRecord(seed=seed, rows=tuple(rows), total_reward=-total_cost)


def run_experiment(config: ExperimentConfig) -> list[EpisodeRecord]:
    """One episode per seed, fully deterministic per seed."""
    env = make_env(config.env)
    return [run_episode(env, config, seed) for seed in config.seeds]


def result_header(action_dim: int) -> list[str]:
    return (
        ["seed", "step", "iterations"]
        + [f"u_{a}" for a in range(action_dim)]
        + ["chosen_J", "realized_cost", "s_i", "a_i"]
    )


def results_csv(records: list[EpisodeRecord]) -> str:
    """Deterministic per-step results table (no wall-clock columns)."""
    return _csv(
        result_header(len(records[0].rows[0].u)),
        (
            [rec.seed, row.step, row.iterations]
            + [_fmt(v) for v in row.u]
            + [_fmt(row.chosen_cost), _fmt(row.realized_cost), _fmt(row.noise_strength), _fmt(row.a_i)]
            for rec in records
            for row in rec.rows
        ),
    )


def timing_csv(records: list[EpisodeRecord]) -> str:
    return _csv(TIMING_HEADER, ([rec.seed, row.step, _fmt(row.wall_time)] for rec in records for row in rec.rows))


def normalize_scores(totals: dict[str, list[float]]) -> tuple[dict[str, list[float]], bool]:
    """Min-max normalize episode totals across all methods on one task.

    Returns (normalized, degenerate); when every total is identical all
    scores are set to 0.5 and the degenerate flag is raised.
    """
    pooled = [v for scores in totals.values() for v in scores]
    if len(pooled) < 2:
        raise ValueError("need at least two totals to normalize")
    lo, hi = min(pooled), max(pooled)
    if hi == lo:
        return {k: [0.5] * len(v) for k, v in totals.items()}, True
    return {k: [(v - lo) / (hi - lo) for v in scores] for k, scores in totals.items()}, False


def _with_param(config: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    if param == "beta":
        weights = replace(config.solver.weights, beta=value)
        return replace(config, solver=replace(config.solver, weights=weights))
    return replace(config, solver=replace(config.solver, **{param: value}))


def ablation_sweeps(
    base: ExperimentConfig, param: str, values: list[float]
) -> list[tuple[float, float, float]]:
    """Per-value (value, mean total reward, population std) over the seeds."""
    if param not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ValueError("empty sweep")
    out = []
    for value in values:
        records = run_experiment(_with_param(base, param, value))
        totals = [r.total_reward for r in records]
        out.append((value, mean(totals), pstdev(totals) if len(totals) > 1 else 0.0))
    return out


def summary_csv(rows: list[tuple[float, float, float]], param: str) -> str:
    return _csv([param, "mean_total_reward", "std_total_reward"], ([_fmt(v), _fmt(m), _fmt(s)] for v, m, s in rows))


def compare_csv(normalized: dict[str, list[float]]) -> str:
    return _csv(
        ["method", "seed_index", "normalized_score"],
        ([method, idx, _fmt(score)] for method, scores in normalized.items() for idx, score in enumerate(scores)),
    )


def gnuplot_script(csv_name: str, title: str, out_name: str) -> str:
    """Box-plot style gnuplot script for a compare CSV (data files, no images)."""
    return "\n".join(
        [
            "set datafile separator ','",
            f"set title '{title}'",
            "set ylabel 'normalized score'",
            "set style data boxplot",
            "set style boxplot outliers pointtype 7",
            "set xtics rotate by -30",
            f"set output '{out_name}'",
            f"plot '{csv_name}' every ::1 using (1):3:(0.5):1 with boxplot notitle",
            "",
        ]
    )
