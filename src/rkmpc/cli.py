"""`bench` command line: run / sweep / compare.

Configuration comes from an INI-style file (sections [experiment], [solver],
[weights]) with CLI flags overriding file values.  Output goes to --output,
falling back to the BENCH_OUTPUT_DIR environment variable, then the current
directory.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import replace

from .bench import (
    ExperimentConfig,
    ablation_sweeps,
    compare_csv,
    default_output_dir,
    gnuplot_script,
    normalize_scores,
    results_csv,
    run_experiment,
    summary_csv,
    timing_csv,
)
from .solvers import VARIANTS, SolverConfig
from .weights import WeightConfig


class ConfigError(Exception):
    pass


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override file values")
    p.add_argument("--env", help="environment name")
    p.add_argument("--solver", help=f"solver variant, one of {', '.join(VARIANTS)}")
    p.add_argument("--horizon", type=int)
    p.add_argument("--candidates", type=int, help="candidates per iteration (N)")
    p.add_argument("--oversample", type=int, help="oversample count for reject/accel")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--lambda", dest="quantile", type=float, help="CEM elite fraction")
    p.add_argument("--temperature", type=float)
    p.add_argument("--backend", choices=["cem", "mppi"])
    p.add_argument("--deadline-ms", type=float, help="per-step wall-clock budget (ms)")
    p.add_argument("--iterations", type=int, help="max iterations per control step")
    p.add_argument("--steps", type=int, help="episode length in control steps")
    p.add_argument("--seed", type=str, help="comma-separated seed list")
    p.add_argument("--output", help="output directory")
    p.add_argument("--name", default="bench", help="output file stem")


def _file_values(path: str | None) -> dict:
    values: dict = {}
    if path is None:
        return values
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    for section in parser.sections():
        for key, raw in parser[section].items():
            values[key.replace("-", "_")] = raw
    return values


_FLOAT_KEYS = {"alpha", "beta", "gamma", "eta", "kappa", "quantile", "temperature", "deadline_ms"}
_INT_KEYS = {"horizon", "candidates", "oversample", "iterations", "steps"}


def _merged(args: argparse.Namespace) -> dict:
    merged = _file_values(args.config)
    for key, value in vars(args).items():
        if value is not None and key not in ("config", "command", "func"):
            merged[key] = value
    out = {}
    for key, value in merged.items():
        if key in _FLOAT_KEYS:
            out[key] = float(value)
        elif key in _INT_KEYS:
            out[key] = int(value)
        else:
            out[key] = value
    return out


def build_config(values: dict) -> ExperimentConfig:
    try:
        weights = WeightConfig(
            backend=values.get("backend", "mppi"),
            quantile=values.get("quantile", 0.01),
            temperature=values.get("temperature", 1.0),
            beta=values.get("beta", 1.0),
        )
        n = values.get("candidates", 32)
        deadline_ms = values.get("deadline_ms")
        solver = SolverConfig(
            n_candidates=n,
            n_oversample=values.get("oversample", 4 * n),
            horizon=values.get("horizon", 12),
            alpha=values.get("alpha", 0.05),
            gamma=values.get("gamma", 0.5),
            eta=values.get("eta", 0.25),
            kappa=values.get("kappa", 1.0),
            weights=weights,
            deadline=math.inf if deadline_ms is None else deadline_ms / 1000.0,
            max_iterations=values.get("iterations", 32),
        )
        seeds = values.get("seed", "0")
        if isinstance(seeds, str):
            seeds = tuple(int(s) for s in seeds.split(","))
        return ExperimentConfig(
            env=values.get("env", "quadratic_bowl"),
            variant=values.get("solver", "accel"),
            solver=solver,
            episode_steps=values.get("steps", 20),
            seeds=seeds,
            output_dir=values.get("output"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outdir(config: ExperimentConfig) -> str:
    path = config.output_dir or default_output_dir()
    os.makedirs(path, exist_ok=True)
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    config = build_config(_merged(args))
    records = run_experiment(config)
    outdir = _outdir(config)
    stem = os.path.join(outdir, f"{args.name}_{config.env}_{config.variant}")
    _write(stem + "_results.csv", results_csv(records))
    _write(stem + "_timing.csv", timing_csv(records))
    totals = [r.total_reward for r in records]
    mean_total = sum(totals) / len(totals)
    print(f"{config.variant} on {config.env}: mean total reward {mean_total:.6g} over {len(totals)} seeds")
    print(f"wrote {stem}_results.csv")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _merged(args)
    config = build_config(values)
    sweep_values = [float(v) for v in args.values.split(",")] if args.values else []
    rows = ablation_sweeps(config, args.param, sweep_values)
    outdir = _outdir(config)
    path = os.path.join(outdir, f"{args.name}_{config.env}_{config.variant}_{args.param}_sweep.csv")
    _write(path, summary_csv(rows, args.param))
    for value, m, s in rows:
        print(f"{args.param}={value:g}: {m:.6g} +/- {s:.6g}")
    print(f"wrote {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    values = _merged(args)
    solvers = (args.solvers or "forward,reverse,reject,accel").split(",")
    totals: dict[str, list[float]] = {}
    base = build_config(values)
    for variant in solvers:
        config = replace(base, variant=variant.strip())
        records = run_experiment(config)
        totals[variant.strip()] = [r.total_reward for r in records]
    normalized, degenerate = normalize_scores(totals)
    outdir = _outdir(base)
    csv_path = os.path.join(outdir, f"{args.name}_{base.env}_compare.csv")
    _write(csv_path, compare_csv(normalized))
    gp_path = os.path.join(outdir, f"{args.name}_{base.env}_compare.gp")
    _write(gp_path, gnuplot_script(os.path.basename(csv_path), base.env, f"{args.name}_{base.env}.svg"))
    for method, scores in normalized.items():
        m = sum(scores) / len(scores)
        print(f"{method}: mean normalized score {m:.4f}")
    if degenerate:
        print("warning: all totals identical; scores flagged degenerate (0.5)")
    print(f"wrote {csv_path} and {gp_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment (one episode per seed)")
    _add_common_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="ablation sweep over one parameter")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="kappa | gamma | beta | alpha")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare solver variants on one task")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--solvers", help="comma-separated solver variants")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
