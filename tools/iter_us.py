"""Microseconds per solver iteration: this checkout's `src` against a base revision.

Run from anywhere in the repository:

    python tools/iter_us.py --base HEAD~1 --env pendulum_swingup --variant accel \
        --n 32 --n-oversample 128 --horizon 12 --pairs 10

Both versions of `rkmpc` are loaded into one process, the working tree's
`src` as the head and the committed tree of `--base` (exported with
`git archive` into a temporary directory) as the base.  Each pair runs one
closed-loop episode of `--steps` warm-started solves of exactly
`--iterations` iterations on each side, on the same seed, and alternates
which side goes first.  Every figure is taken over the `solve` calls alone,
not the closed-loop `env.dynamics` step between them.  A side's figure is
the wall time of its episode's solves divided by their iterations, and its
minor page faults per iteration are the growth of
`getrusage(RUSAGE_SELF).ru_minflt` over the solves (so they count the
prefetch worker thread too) divided by their iterations.  The report gives each
side's median and quartiles of time, its median faults, the ratio of the time
medians, the pairs the head won (ties count for neither), and whether both
sides chose the same actions bit for bit.

With `--calls`, one more episode per side runs after the timed pairs, untimed,
under `sys.setprofile`, and the report gives each side's Python and C calls per
iteration on the calling thread: the "call" and "c_call" events, which count
Python functions and builtins but not ufuncs or operators.  Without a
prefetch worker (fewer than PREFETCH_MIN_NORMALS normals per iteration) the
count repeats exactly for fixed-iteration solves, so it shows a change in
dispatches as a count, free of the host's speed.

With `--waits`, one more untimed episode per side runs after the timed
pairs with `Prefetch.draw` timed, and the report gives each side's median
time per call and the number of calls, one per iteration of a prefetching
solve and none for a shape that does not prefetch.  That time is the calling
thread's wait for the worker's draw (or its own draw, where none was made
ahead), so a median near zero says the calling thread bounds the shape and
a large one that the draw does.

`--n` below 2, `--n-oversample` below `--n`, `--horizon` below 1 and an
unknown `--env` or `--variant` exit 2 with a message, before anything is
exported.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, src: Path):
    """Import the `rkmpc` package under `src` as the module `name`."""
    package = src / "rkmpc"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def export(rev: str, dest: Path, paths: tuple[str, ...] = ("src",)) -> None:
    """Write `paths` as committed at `rev` under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, *paths], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def config_of(lib, args):
    return lib.SolverConfig(
        n_candidates=args.n, n_oversample=args.n_oversample, horizon=args.horizon, max_iterations=args.iterations,
    )


def closed_loop(lib, args, seed: int, solve) -> tuple[list, int]:
    """(actions, iterations) of one closed-loop episode of `args.steps` solves,
    each a call of `solve`, lib.solve or a wrapper of it."""
    env, config = lib.make_env(args.env), config_of(lib, args)
    x, state, actions, iterations = env.initial_state, None, [], 0
    for step in range(args.steps):
        result, state = solve(env, x, config, args.variant, prev=state, seed=seed, step=step)
        x = env.dynamics(x[None, :], result.u[None, :])[0]
        actions.append(result.u)
        iterations += result.iterations
    return actions, iterations


def episode(lib, args, seed: int) -> tuple[float, float, bytes]:
    """(us per iteration, minor faults per iteration, the episode's actions as
    bytes) of one closed-loop episode's solves."""
    spent = {"s": 0.0, "faults": 0}

    def measured(*argv, **kwargs):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            return lib.solve(*argv, **kwargs)
        finally:
            spent["s"] += time.perf_counter() - start
            spent["faults"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    actions, iterations = closed_loop(lib, args, seed, measured)
    return spent["s"] * 1e6 / iterations, spent["faults"] / iterations, np.concatenate(actions).tobytes()


def calls(lib, args, seed: int) -> tuple[float, float]:
    """(Python calls, C calls) per iteration on this thread, over one episode's solves."""
    counts = {"call": 0, "c_call": 0}
    inside = [False]  # setting an item makes no call for the profiler to see

    def profile(frame, event, arg):
        if inside[0] and event in counts:
            counts[event] += 1

    def counted(*argv, **kwargs):
        inside[0] = True
        try:
            return lib.solve(*argv, **kwargs)
        finally:
            inside[0] = False

    sys.setprofile(profile)
    try:
        _, iterations = closed_loop(lib, args, seed, counted)
    finally:
        sys.setprofile(None)
    return counts["call"] / iterations, counts["c_call"] / iterations


def draw_waits(lib, args, seed: int) -> list[float]:
    """The us of each `Prefetch.draw` call on this thread, over one episode."""
    prefetch = importlib.import_module(f"{lib.__name__}.prefetch")
    draw, waits = prefetch.Prefetch.draw, []

    def timed(self, *argv):
        start = time.perf_counter()
        try:
            return draw(self, *argv)
        finally:
            waits.append((time.perf_counter() - start) * 1e6)

    prefetch.Prefetch.draw = timed
    try:
        closed_loop(lib, args, seed, lib.solve)
    finally:
        prefetch.Prefetch.draw = draw
    return waits


def at_least(low: int):
    """An argparse type: an integer >= `low`."""
    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return check


positive = at_least(1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    head = load("rkmpc_head", ROOT / "src")  # its names check --env and --variant
    parser.add_argument("--env", default="pendulum_swingup", choices=sorted(head.envs.REGISTRY))
    parser.add_argument("--variant", default="accel", choices=head.solvers.VARIANTS)
    parser.add_argument("--n", type=at_least(2), default=32, help="candidates N")
    parser.add_argument("--n-oversample", type=positive, default=None,
                        help="oversampled candidates for reject and accel, >= N (default: SolverConfig's 4 * N)")
    parser.add_argument("--horizon", type=positive, default=12)
    parser.add_argument("--iterations", type=positive, default=64, help="iterations per solve")
    parser.add_argument("--steps", type=positive, default=10, help="warm-started solves per episode")
    parser.add_argument("--pairs", type=positive, default=10)
    parser.add_argument("--calls", action="store_true",
                        help="also count each side's Python and C calls per iteration, in one untimed episode")
    parser.add_argument("--waits", action="store_true",
                        help="also time each side's Prefetch.draw calls, in one untimed episode")
    args = parser.parse_args(argv)
    if args.n_oversample is not None and args.n_oversample < args.n:
        parser.error(f"argument --n-oversample: must be >= --n ({args.n}), got {args.n_oversample}")

    with tempfile.TemporaryDirectory(prefix="iter_us_") as tmp:
        export(args.base, Path(tmp))
        sides = {"base": load("rkmpc_base", Path(tmp) / "src"), "head": head}
        for lib in sides.values():  # lazy set-up, outside the timed pairs
            episode(lib, args, seed=args.pairs)
        us = {name: [] for name in sides}
        faults = {name: [] for name in sides}
        same = True
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            actions = {}
            for name in order:
                t, f, actions[name] = episode(sides[name], args, seed=pair)
                us[name].append(t)
                faults[name].append(f)
            same = same and actions["base"] == actions["head"]
        counted = {name: calls(lib, args, seed=0) for name, lib in sides.items()} if args.calls else None
        waited = {name: draw_waits(lib, args, seed=0) for name, lib in sides.items()} if args.waits else None
        n_oversample = config_of(sides["head"], args).n_oversample

    print(f"iter_us: {args.env} {args.variant} N={args.n} n_oversample={n_oversample} H={args.horizon}, "
          f"{args.iterations} iterations x {args.steps} steps, {args.pairs} pairs")
    for name, label in (("base", f"base {args.base}"), ("head", "head (working tree)")):
        q1, med, q3 = quartiles(us[name])
        print(f"{label}: median {med:.1f} us/iter [Q1 {q1:.1f}, Q3 {q3:.1f}], IQR {q3 - q1:.1f}; "
              f"median {quartiles(faults[name])[1]:.1f} minor faults/iter")
    won = sum(h < b for h, b in zip(us["head"], us["base"]))
    ratio = quartiles(us["head"])[1] / quartiles(us["base"])[1]
    print(f"head/base {ratio:.3f}; head faster in {won} of {args.pairs} pairs; "
          f"actions {'identical' if same else 'DIFFER'}")
    if counted:
        print("calls/iter on the calling thread: " + "; ".join(
            f"{name} {py:.2f} Python + {c:.2f} C = {py + c:.2f}" for name, (py, c) in counted.items()))
    if waited:
        print("Prefetch.draw wait per iteration: " + "; ".join(
            f"{name} median {np.median(w):.1f} us over {len(w)} draws" if w else f"{name} no draws"
            for name, w in waited.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
