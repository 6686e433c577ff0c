"""rtbench end-to-end metrics in interleaved pairs: this checkout against a base revision.

Run from anywhere in the repository:

    python tools/pairs.py --base HEAD~1 --workload reacher_forward_bulk --pairs 10 \
        --seconds 32 --out BENCH_example.json

The base is `git archive REV src rtbench BENCHMARK.json`, and the head is a
copy of the working tree's same three paths; both are written into sibling
temporary directories, since `setup_s` follows the directory a tree sits in.
Pair i runs `rtbench/run.py --workload W --seed S+i --seconds T --trace 0`
once from each tree, with PYTHONDONTWRITEBYTECODE=1 and this interpreter,
the base first in even pairs and the head first in odd ones.  Each run's last
line of output is its JSON summary, and a run that exits non-zero or reads
"correct": false stops the tool with exit code 1.

The output file holds the workload's config, the base revision and both SHAs
(the head marked dirty when those paths differ from HEAD), the Python and
numpy versions, the seeds, every pair's metrics and results digests, and per
gated metric each side's median, quartiles and IQR over median, and the pairs
the head won, in the direction BENCHMARK.json gives (ties count for neither).
rtbench's "(not gated)" lines, such as iters_per_step_mean, iter_ms_p50 and
ref_iter_ms, are kept too: each pair's values, as printed to 6 significant
digits, under "info", and each side's median and quartiles under the
report's "info", with their units and no direction.  A seed below 0 is
rejected with the arguments, before any tree is exported.

Since the runs do not write bytecode, every rtbench run compiles `rkmpc` from
source, and longer source reads as a higher `setup_s`.  So each pair also
records, per side under "info", `source_bytes`, the size of the tree's
src/rkmpc/*.py, and `compile_ms`, the median of COMPILE_RUNS timed
`compile()` passes over those files in this process, made right after that
side's run.  It also records `code_lines`, those files' lines that hold
code: not blank, not only a comment, and not part of a docstring.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

from iter_us import at_least, export, positive, quartiles

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("src", "rtbench", "BENCHMARK.json")
COMPILE_RUNS = 7
NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def copy_working_tree(dest: Path) -> None:
    """Copy PATHS as they stand in the working tree under `dest`."""
    skip = shutil.ignore_patterns("__pycache__", ".rtbench_out")
    for name in PATHS:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run(tree: Path, args, seed: int) -> dict:
    """The metric values and results digest of one rtbench run from `tree`."""
    cmd = [sys.executable, "rtbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or summary.get("correct") is not True:
        sys.exit(f"pairs: {tree.name} run, seed {seed}, failed (exit {proc.returncode}):\n"
                 + "\n".join(lines[-5:]) + proc.stderr[-2000:])
    digest = re.search(r"results digest \(episode seed \d+\) = (\w+)", proc.stdout)
    info = re.findall(r"^  (\w+) = (\S+) (\S+) \(not gated\)$", proc.stdout, re.MULTILINE)
    return {
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "info": {name: {"value": float(value), "unit": unit} for name, value, unit in info},
        "digest": digest.group(1) if digest else None,
    }


def code_lines(source: bytes) -> int:
    """The lines of a module's source that hold a token other than a comment
    or a module, class or function docstring."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def source_info(tree: Path) -> dict:
    """The size and code lines of `tree`'s src/rkmpc/*.py and the median time to compile them."""
    sources = [(str(path), path.read_bytes()) for path in sorted((tree / "src" / "rkmpc").glob("*.py"))]
    times = []
    for _ in range(COMPILE_RUNS):
        start = time.perf_counter()
        for name, text in sources:
            compile(text, name, "exec")
        times.append(time.perf_counter() - start)
    return {
        "source_bytes": {"value": float(sum(len(text) for _, text in sources)), "unit": "bytes"},
        "compile_ms": {"value": float(f"{np.median(times) * 1e3:.6g}"), "unit": "ms"},
        "code_lines": {"value": float(sum(code_lines(text) for _, text in sources)), "unit": "lines"},
    }


def summary_of(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=positive, default=10)
    parser.add_argument("--seconds", type=float, default=32.0, help="rtbench --seconds of every run")
    parser.add_argument("--seed", type=at_least(0), default=1, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    try:
        base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base!r} names no commit")
    directions = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds = [args.seed + i for i in range(args.pairs)]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs_") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        export(args.base, trees["base"], PATHS)
        copy_working_tree(trees["head"])
        workloads = json.loads((trees["head"] / "rtbench" / "workloads.json").read_text())
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], args, seed)
                pair[side]["info"].update(source_info(trees[side]))
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['candidate_steps_per_ref_iter']:.6g}"
                for side in ("base", "head")), flush=True)

    metrics = {}
    for name, better in directions.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in ("base", "head")}
        sign = 1.0 if better == "higher" else -1.0
        metrics[name] = {
            "better": better,
            "base": summary_of(values["base"]),
            "head": summary_of(values["head"]),
            "head_won": sum(sign * (h - b) > 0 for h, b in zip(values["head"], values["base"])),
        }
    info = {}
    runs = [p[side]["info"] for p in pairs for side in ("base", "head")]
    for name, first in runs[0].items():
        if not all(name in run for run in runs):  # printed by one tree's rtbench only
            continue
        values = {side: [p[side]["info"][name]["value"] for p in pairs] for side in ("base", "head")}
        info[name] = {"unit": first["unit"], "base": summary_of(values["base"]), "head": summary_of(values["head"])}
    report = {
        "workload": args.workload,
        "workload_config": workloads[args.workload],
        "seconds": args.seconds,
        "base": {"rev": args.base, "sha": base_sha},
        "head": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", *PATHS))},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": seeds,
        "pairs": pairs,
        "metrics": metrics,
        "info": info,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name} ({m['better']} is better): base {m['base']['median']:.6g} -> head {m['head']['median']:.6g}, "
              f"head better in {m['head_won']} of {args.pairs}")
    for name, m in info.items():
        print(f"{name} (not gated): base {m['base']['median']:.6g} -> head {m['head']['median']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
