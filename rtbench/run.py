"""Closed-loop real-time control benchmark for rkmpc.

Run from the repository root:

    python3 rtbench/run.py --workload swingup_rt20 --seed 1 --seconds 36 --trace 0

The benchmark drives closed-loop episodes through rkmpc's public API
(``make_env``, ``solve`` and the env callables).  It is a closed loop with one
client: the plant waits for every control step, so the next ``solve`` starts
only after the previous one returned.  Every call into ``solve`` is timed
from outside with a monotonic clock.  Workloads are defined in
``workloads.json``; episode solver seeds are derived from ``--seed``.

The host's speed drifts: on a shared 2-vCPU VM the same code runs up to
twice as fast in one ten-second stretch as in another.  So a fixed reference
kernel (``HostMeter``) is timed between control steps, about every 0.1 s of
solving, and the gated throughput counts the candidate steps solved in the
time of one reference iteration.  The raw figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced episodes on the same seeds and prints per-layer metrics
(see ``tracer.py``); the gap between the two is the tracing overhead.

Outputs are checked in the same run: every action must be finite and within
the action bounds, and on fixed-iteration workloads the results table must be
bit-identical across repeats and between traced and untraced episodes.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".rtbench_out"
SETUP_PROBES = 7
# HostMeter probes about every PROBE_EVERY_S seconds of solving, each for
# about PROBE_S seconds.
PROBE_EVERY_S = 0.1
PROBE_S = 0.01
# Gated metrics.  On a shared 2-vCPU VM (Xeon, Python 3.11), speed shifts
# between a fast and a slow state for seconds to minutes at a time, so raw
# throughput over a 30 s run spreads by 0.15-0.3 between runs.  Throughput
# measured against the interleaved reference kernel spreads by a few percent.
UNITS_E2E = {
    "setup_s": "s",
    "step_ms_p90": "ms",
    "candidate_steps_per_ref_iter": "count",
    "episode_cost_mean": "cost",
    "deadline_met_frac": "frac",
    "step_ok_frac": "frac",
    "peak_rss_mb": "MB",
}
# Printed, not gated: raw speed, which follows the host (see above), the
# iterations reached under the deadline, which is raw speed again, and the two
# failure fractions, which are 0 on a healthy run; their complements are gated.
UNITS_INFO = {
    "step_ms_p50": "ms",
    "iter_ms_p50": "ms",
    "candidate_steps_per_s": "1/s",
    "iters_per_step_mean": "count",
    "ref_iter_ms": "ms",
    "deadline_miss_frac": "frac",
    "failed_frac": "frac",
}


PER_LAYER_UNITS = {
    "solvers.solve.self_us_per_iter": "us",
    "solvers.compose_and_sample.self_us_per_iter": "us",
    "solvers.selection_log_scores.self_us_per_iter": "us",
    "solvers.compose_and_sample.kept_per_drawn": "ratio",
    "solvers.update.us_per_iter": "us",
    "solvers.deadline_slack_ms_p50": "ms",
    "solvers.deadline_overshoot_ms_p90": "ms",
    "policy.sample_batch.us_per_iter": "us",
    "policy.sample_batch.normals_per_iter": "count",
    "policy.log_density.us_per_iter": "us",
    "policy.squash.us_per_iter": "us",
    "policy.mirror.us_per_iter": "us",
    "policy.PolicyParams.constructions_per_iter": "count",
    "policy.PolicyParams.validate_us_per_iter": "us",
    "weights.weights.us_per_iter": "us",
    "weights.partition_clusters.calls_per_iter": "count",
    "envs.rollout_batch.us_per_iter": "us",
    "envs.rollout_batch.ns_per_candidate_step": "ns",
    "envs.rollout_batch.nonfinite_frac": "frac",
    "solvers.self_us_per_iter": "us",
    "policy.self_us_per_iter": "us",
    "weights.self_us_per_iter": "us",
    "envs.self_us_per_iter": "us",
    "trace.overhead_frac": "frac",
    "trace.iter_overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def import_rkmpc():
    """Import rkmpc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rkmpc" / "__init__.py").is_file():
        raise SystemExit(f"rtbench: no rkmpc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rkmpc

    if Path(rkmpc.__file__).resolve().parent != (SRC / "rkmpc").resolve():
        raise SystemExit(f"rtbench: imported rkmpc from {rkmpc.__file__}, not from {SRC}")
    return rkmpc


def solver_config(rkmpc, spec: dict):
    """SolverConfig of a workload; fields not named keep the library default."""
    solver = dict(spec["solver"])
    deadline_ms = solver.pop("deadline_ms")
    solver["deadline"] = math.inf if deadline_ms is None else deadline_ms / 1000.0
    config = rkmpc.SolverConfig(weights=rkmpc.WeightConfig(**spec["weights"]), **solver)
    if getattr(config, "rollout_threads", 1) != 1:
        raise SystemExit("rtbench: rollouts must run on one thread")
    return config


def setup(rkmpc, spec: dict):
    """make_env, config and one warm-up solve, which pays lazy initialization."""
    env = rkmpc.make_env(spec["env"])
    config = solver_config(rkmpc, spec)
    rkmpc.solve(env, env.initial_state, config, variant=spec["variant"], seed=0, step=0)
    return env, config


class HostMeter:
    """Speed of the host, from a fixed reference kernel timed between steps.

    The kernel is ``reference_iteration``: one iteration of a toy sampling
    controller at the workload's candidate-batch shape.  It mixes small numpy
    calls and interpreter work as the solver does, so a host slowdown that
    hits the solver hits it too.  A probe repeats it for about PROBE_S seconds;
    the repeat count is fixed when the meter is made.  The kernel is the
    benchmark's own code, so it costs the same on every commit of rkmpc.
    """

    def __init__(self, shape: tuple[int, int], n_keep: int):
        self._rng = np.random.default_rng(0)
        self._mean = np.zeros(shape[1])
        self._shape, self._n_keep = shape, n_keep
        self._reps = 1
        self._time_reps()  # warm-up
        self._reps = max(1, round(PROBE_S / self._time_reps()))
        self.seconds: list[float] = []  # seconds per reference iteration, one per probe
        self.pending_s = 0.0
        self.probe()

    def _time_reps(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self._reps):
            self._mean = reference_iteration(self._rng, self._mean, self._shape[0], self._n_keep)
        return (time.perf_counter() - t0) / self._reps

    def probe(self) -> None:
        self.seconds.append(self._time_reps())
        self.pending_s = 0.0

    @property
    def last(self) -> int:
        return len(self.seconds) - 1

    def after_step(self, step_s: float) -> None:
        """Probe once about every PROBE_EVERY_S seconds of solving."""
        self.pending_s += step_s
        if self.pending_s >= PROBE_EVERY_S:
            self.probe()

    def close(self) -> None:
        """Probe after the last chunk of steps, so every chunk has an end."""
        if self.pending_s > 0.0:
            self.probe()


def reference_iteration(rng, mean: np.ndarray, n_draw: int, n_keep: int) -> np.ndarray:
    """Draw n_draw action sequences around ``mean``, roll them through a
    pendulum, keep the n_keep cheapest and return their softmax-weighted mean."""
    u = np.clip(mean + 0.5 * rng.standard_normal((n_draw, mean.size)), -2.0, 2.0)
    theta, omega, cost = np.full(n_draw, math.pi), np.zeros(n_draw), np.zeros(n_draw)
    for t in range(mean.size):
        omega = omega + 0.05 * (u[:, t] - 9.8 * np.sin(theta))
        theta = theta + 0.05 * omega
        cost += theta * theta + 0.1 * omega * omega + 0.01 * u[:, t] * u[:, t]
    keep = np.argpartition(cost, n_keep - 1)[:n_keep]
    w = np.exp(cost[keep].min() - cost[keep])
    return (w / w.sum()) @ u[keep]


def meter_for(spec: dict) -> HostMeter:
    """A meter at the batch shape the solver draws: ñ x H where candidates are
    oversampled, N x H otherwise."""
    solver = spec["solver"]
    oversampled = spec["variant"] in ("reject", "accel")
    n_draw = solver["n_oversample"] if oversampled else solver["n_candidates"]
    return HostMeter((n_draw, solver["horizon"]), solver["n_candidates"])


def setup_probe(workload: str) -> float:
    """Seconds to import rkmpc, make_env and run the warm-up solve.

    numpy is already imported when the clock starts: on a shared 2-vCPU VM its
    import took 0.13-0.23 s and swung by half between batches of runs,
    which would swamp any change to rkmpc's own set-up.
    """
    t0 = time.perf_counter()
    rkmpc = import_rkmpc()
    setup(rkmpc, load_workloads()[workload])
    return time.perf_counter() - t0


def cold_setup_seconds(workload: str) -> float:
    """Setup time of a fresh interpreter, which this process waits for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Episode:
    seed: int
    step_s: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    longest_iter_s: list[float] = field(default_factory=list)
    nonfinite: int = 0
    probe_ids: list[int] = field(default_factory=list)  # HostMeter probe before each step
    rows: list[str] = field(default_factory=list)
    cost: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.failed == 0

    def table(self) -> str:
        return "".join(self.rows)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")  # round-trips, so equal text means equal bits


def run_episode(env, config, variant: str, steps: int, seed: int, solve, tracer=None, label="", meter=None) -> Episode:
    """One closed-loop episode from the env's initial state.

    With a ``meter``, the host is probed between steps, outside their timing.
    """
    ep = Episode(seed=seed)
    x = np.array(env.initial_state, dtype=float)
    state = None
    for step in range(steps):
        ep.attempted += 1
        if tracer is not None:
            tracer.set_key((label, seed, step))
        t0 = time.perf_counter()
        try:
            result, state = solve(env, x, config, variant=variant, prev=state, seed=seed, step=step)
        except Exception as exc:  # a step that raises counts as failed
            ep.failed += 1
            ep.errors.append(f"step {step}: {type(exc).__name__}: {exc}")
            return ep
        elapsed = time.perf_counter() - t0
        u = np.asarray(result.u, dtype=float)
        if u.shape != (env.action_dim,) or not np.all(np.isfinite(u)) or np.any(u < env.action_low) or np.any(u > env.action_high):
            ep.failed += 1
            ep.errors.append(f"step {step}: action {u!r} not finite or out of bounds")
            return ep
        ep.step_s.append(elapsed)
        if meter is not None:
            ep.probe_ids.append(meter.last)
            meter.after_step(elapsed)
        ep.iterations.append(result.iterations)
        ep.longest_iter_s.append(max(result.iteration_times))
        ep.nonfinite += result.nonfinite_candidates
        xb, ub = x.reshape(1, -1), u.reshape(1, -1)
        realized = float(env.stage_cost(xb, ub)[0])
        realized += env.constraint_penalty * max(0.0, float(env.constraint(xb, ub)[0]))
        ep.cost += realized
        ep.rows.append(",".join(
            [str(seed), str(step), str(result.iterations)]
            + [_fmt(v) for v in u]
            + [_fmt(result.best_cost), _fmt(realized), _fmt(result.noise_strength_final)]
        ) + "\n")
        x = env.dynamics(xb, ub)[0]
    return ep


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def throughput_per_ref_iter(episodes: list[Episode], config, ref_s: list[float]) -> float:
    """Candidate steps solved in the time of one reference iteration.

    Steps are grouped into the chunks between two HostMeter probes.  Each
    chunk's candidate steps per second is multiplied by the geometric mean of
    the reference seconds probed before and after it; the median over chunks
    is returned.
    """
    steps, seconds = {}, {}
    for ep in episodes:
        for t, n, pid in zip(ep.step_s, ep.iterations, ep.probe_ids):
            steps[pid] = steps.get(pid, 0) + config.n_candidates * config.horizon * n
            seconds[pid] = seconds.get(pid, 0.0) + t
    rates = []
    for pid in steps:
        ref = math.sqrt(ref_s[pid] * ref_s[min(pid + 1, len(ref_s) - 1)])
        rates.append(steps[pid] / seconds[pid] * ref)
    return statistics.median(rates)


def end_to_end(episodes: list[Episode], config, setup_s: list[float], ref_s: list[float]) -> dict[str, float]:
    step_s = [t for ep in episodes for t in ep.step_s]
    iters = [n for ep in episodes for n in ep.iterations]
    longest = [t for ep in episodes for t in ep.longest_iter_s]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    # A step breaks the real-time contract of acceptance criterion 10 when it
    # returns later than the deadline plus its own longest iteration.
    misses = failed + sum(t > config.deadline + lg for t, lg in zip(step_s, longest))
    costs = [ep.cost for ep in episodes if ep.complete]
    return {
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": percentile(step_s, 50) * 1e3,
        "step_ms_p90": percentile(step_s, 90) * 1e3,
        "iter_ms_p50": percentile([t / n for t, n in zip(step_s, iters)], 50) * 1e3,
        "candidate_steps_per_s": config.n_candidates * config.horizon * sum(iters) / sum(step_s),
        "candidate_steps_per_ref_iter": throughput_per_ref_iter(episodes, config, ref_s),
        "ref_iter_ms": statistics.median(ref_s) * 1e3,
        "iters_per_step_mean": statistics.fmean(iters),
        "episode_cost_mean": statistics.fmean(costs) if costs else math.nan,
        "deadline_met_frac": 1.0 - misses / attempted,
        "step_ok_frac": 1.0 - failed / attempted,
        "deadline_miss_frac": misses / attempted,
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def deadline_layer(episodes: list[Episode], config) -> dict[str, float]:
    """Slack left before, and overshoot past, the deadline per untraced step."""
    step_s = [t for ep in episodes for t in ep.step_s]
    if not step_s or math.isinf(config.deadline):
        return {"solvers.deadline_slack_ms_p50": 0.0, "solvers.deadline_overshoot_ms_p90": 0.0}
    return {
        "solvers.deadline_slack_ms_p50": percentile([max(0.0, config.deadline - t) for t in step_s], 50) * 1e3,
        "solvers.deadline_overshoot_ms_p90": percentile([max(0.0, t - config.deadline) for t in step_s], 90) * 1e3,
    }


def environment() -> dict[str, str]:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(os.cpu_count()),
        "git_sha": sha,
    }


def trace_metrics(tracing, tracer, plain: list[Episode], traced: list[Episode], config, checks: list[str]):
    """Per-layer metrics of the traced episodes, against their untraced twins."""
    spans = tracer.arrays()
    names = tracer.names
    roots = spans["parent"] < 0
    if np.any(spans["name"][roots] != names.index("solvers.solve")):
        checks.append("a traced span ran outside solve")
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    root_total = float((spans["end"] - spans["start"])[roots].sum())
    if not math.isclose(float(own.sum()), root_total, rel_tol=1e-9):
        checks.append(f"self times sum to {own.sum()} s, not the traced step time {root_total} s")

    iterations = sum(sum(ep.iterations) for ep in traced)
    values = tracing.layer_metrics(spans, names, iterations)
    candidates = config.n_candidates * sum(sum(ep.iterations) for ep in plain + traced)
    values["envs.rollout_batch.nonfinite_frac"] = sum(ep.nonfinite for ep in plain + traced) / candidates
    values.update(deadline_layer(plain, config))

    def step_p50(eps):
        return percentile([t for ep in eps for t in ep.step_s], 50)

    def iter_mean(eps):
        return sum(sum(ep.step_s) for ep in eps) / sum(sum(ep.iterations) for ep in eps)

    # Per-step sum of layer self times, keyed by the step's root span.
    step_self = np.bincount(tracing.root_of(spans["parent"]), weights=own, minlength=own.size)[roots]
    values["trace.overhead_frac"] = step_p50(traced) / step_p50(plain) - 1.0
    values["trace.iter_overhead_frac"] = iter_mean(traced) / iter_mean(plain) - 1.0
    values["trace.accounted_frac"] = float(np.median(step_self)) / step_p50(plain)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0

    spec = workloads[args.workload]
    rkmpc = import_rkmpc()
    env, config = setup(rkmpc, spec)
    steps, variant = spec["episode_steps"], spec["variant"]
    fixed_iterations = math.isinf(config.deadline)

    def episode(index: int, solve, tracer=None, meter=None) -> Episode:
        return run_episode(env, config, variant, steps, 1000 * args.seed + index, solve, tracer, args.workload, meter)

    checks: list[str] = []
    episodes: list[Episode] = []
    traced_eps: list[Episode] = []
    setup_s: list[float] = []
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        traced_solve = tracer.wrap(rkmpc.solve, "solvers.solve")
        end = time.perf_counter() + args.seconds
        while not traced_eps or time.perf_counter() < end:
            plain = episode(len(episodes), rkmpc.solve)
            with tracing.installed(tracer):
                traced = episode(len(episodes), traced_solve, tracer)
            episodes.append(plain)
            traced_eps.append(traced)
            if fixed_iterations and plain.complete and traced.complete and plain.table() != traced.table():
                checks.append(f"episode seed {plain.seed}: traced results differ from untraced")
                traced.failed += traced.attempted
    else:
        # Cold setups are probed between episodes, spread over the run, so
        # their median sees the same host speed as the control steps do.
        meter = meter_for(spec)
        measured = 0.0
        while not episodes or measured < args.seconds:
            if len(setup_s) < SETUP_PROBES and measured >= len(setup_s) * args.seconds / SETUP_PROBES:
                setup_s.append(cold_setup_seconds(args.workload))
                meter.probe()  # the chunk after a setup probe starts afresh
            episodes.append(episode(len(episodes), rkmpc.solve, meter=meter))
            meter.close()
            measured += sum(episodes[-1].step_s)
        while len(setup_s) < SETUP_PROBES:
            setup_s.append(cold_setup_seconds(args.workload))
        if fixed_iterations:
            repeat = episode(0, rkmpc.solve)
            if repeat.table() != episodes[0].table():
                checks.append(f"episode seed {repeat.seed}: repeat results differ")
                episodes[0].failed += episodes[0].attempted

    all_eps = episodes + traced_eps
    for ep in all_eps:
        checks.extend(f"episode seed {ep.seed}: {e}" for e in ep.errors)
    cap_hits = sum(n >= config.max_iterations for ep in episodes for n in ep.iterations)
    if fixed_iterations and any(n != config.max_iterations for ep in all_eps for n in ep.iterations):
        checks.append("a fixed-iteration step stopped early")
    elif not fixed_iterations and cap_hits:
        checks.append(f"{cap_hits} steps hit the iteration cap, so the deadline did not bind")
    attempted = sum(ep.attempted for ep in all_eps)
    failed = sum(ep.failed for ep in all_eps)
    good = any(ep.step_s for ep in episodes)
    if not good:
        checks.append("no control step completed")

    print(f"rtbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in environment().items():
        print(f"  env.{key} = {value}")
    print(f"  config env={spec['env']} variant={variant} episode_steps={steps}")
    print(f"  config solver={asdict(config)}")
    digest = hashlib.sha256(episodes[0].table().encode()).hexdigest()[:16]
    print(f"  results digest (episode seed {episodes[0].seed}) = {digest}"
          + ("" if fixed_iterations else " (deadline-bound, varies with timing)"))
    print(f"  episodes={len(episodes)} steps={sum(len(ep.step_s) for ep in episodes)} attempted={attempted} failed={failed}")
    print(f"  iteration cap hits = {cap_hits}")

    metrics: dict[str, tuple[float, str]] = {}
    if good and not args.trace:
        values = end_to_end(episodes, config, setup_s, meter.seconds)
        metrics = {name: (values[name], UNITS_E2E[name]) for name in UNITS_E2E}
        for name, unit in UNITS_INFO.items():
            print(f"  {name} = {values[name]:.6g} {unit} (not gated)")
    elif good:
        metrics = trace_metrics(tracing, tracer, episodes, traced_eps, config, checks)
        tracer.save(OUT_DIR / f"spans_{args.workload}.npz")
        print(f"  spans written to {(OUT_DIR / f'spans_{args.workload}.npz').relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in checks:
        print(f"  CHECK FAILED: {problem}")

    correct = not checks
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
