"""`bench` command line: run / sweep / compare.

Configuration comes from an INI-style file (sections [experiment], [solver],
[weights]) whose keys are the long flag names, with CLI flags overriding file
values.  Output goes to --output, falling back to the BENCH_OUTPUT_DIR
environment variable, then the current directory.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace

from .bench import (
    ExperimentConfig,
    ablation_sweeps,
    compare_csv,
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


def _file_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The INI file's values keyed by flag dest.

    Keys are long flag names (`deadline-ms` or `deadline_ms`); a key that
    names no flag of this subcommand is an error, not silently dropped, and
    so is a file configparser cannot parse.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    dests = {
        opt[2:]: action.dest
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and action.dest not in ("help", "config")
    }
    ini = configparser.ConfigParser(interpolation=None)  # a `%` is read literally
    try:
        ini.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    values = {}
    for section in ini.sections():
        for key, raw in ini[section].items():
            flag = key.replace("_", "-")
            if flag not in dests:
                raise ConfigError(f"{path}: [{section}] key {key!r} is not a flag of this command")
            values[dests[flag]] = raw
    return values


def _merged(args: argparse.Namespace) -> dict:
    return {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in ("config", "command", "func")
    }


def _given(values: dict, **fields: str) -> dict:
    """The given values keyed by dataclass field, from field=key pairs."""
    return {name: values[key] for name, key in fields.items() if key in values}


def build_config(values: dict) -> ExperimentConfig:
    """Only the keys given are passed on, so the dataclasses own the defaults."""
    try:
        weights = _given(
            values, backend="backend", quantile="quantile", temperature="temperature", beta="beta",
        )
        solver = _given(
            values, n_candidates="candidates", n_oversample="oversample", horizon="horizon",
            alpha="alpha", gamma="gamma", eta="eta", kappa="kappa", max_iterations="iterations",
        )
        if "deadline_ms" in values:
            solver["deadline"] = values["deadline_ms"] / 1000.0
        experiment = _given(values, env="env", variant="solver", episode_steps="steps", seeds="seed")
        if isinstance(experiment.get("seeds"), str):
            experiment["seeds"] = tuple(int(s) for s in experiment["seeds"].split(","))
        solver_config = SolverConfig(weights=WeightConfig(**weights), **solver)
        return ExperimentConfig(solver=solver_config, **experiment)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outdir(args: argparse.Namespace) -> str:
    """--output (or the INI `output` key), then BENCH_OUTPUT_DIR, then `.`."""
    path = args.output or os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_run(args: argparse.Namespace, config: ExperimentConfig) -> int:
    records = run_experiment(config)
    stem = os.path.join(_outdir(args), f"{args.name}_{config.env}_{config.variant}")
    _write(stem + "_results.csv", results_csv(records))
    _write(stem + "_timing.csv", timing_csv(records))
    totals = [r.total_reward for r in records]
    mean_total = sum(totals) / len(totals)
    print(f"{config.variant} on {config.env}: mean total reward {mean_total:.6g} over {len(totals)} seeds")
    print(f"wrote {stem}_results.csv")
    return 0


def cmd_sweep(args: argparse.Namespace, config: ExperimentConfig) -> int:
    sweep_values = [float(v) for v in args.values.split(",")] if args.values else []
    rows = ablation_sweeps(config, args.param, sweep_values)
    path = os.path.join(_outdir(args), f"{args.name}_{config.env}_{config.variant}_{args.param}_sweep.csv")
    _write(path, summary_csv(rows, args.param))
    for value, m, s in rows:
        print(f"{args.param}={value:g}: {m:.6g} +/- {s:.6g}")
    print(f"wrote {path}")
    return 0


def cmd_compare(args: argparse.Namespace, base: ExperimentConfig) -> int:
    solvers = (args.solvers or "forward,reverse,reject,accel").split(",")
    totals: dict[str, list[float]] = {}
    for variant in solvers:
        config = replace(base, variant=variant.strip())
        records = run_experiment(config)
        totals[variant.strip()] = [r.total_reward for r in records]
    normalized, degenerate = normalize_scores(totals)
    outdir = _outdir(args)
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
        if args.config is not None:
            # file values become the subcommand's defaults, so each is
            # converted by its flag's own type and a given flag overrides it
            command = sub.choices[args.command]
            command.set_defaults(**_file_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args, build_config(_merged(args)))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
