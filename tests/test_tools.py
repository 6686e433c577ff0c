"""Smoke test of the developer tools under tools/."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# rtbench prints these unchecked; tools/pairs.py records them beside the gated metrics
NOT_GATED = {"iters_per_step_mean", "iter_ms_p50", "step_ms_p50", "ref_iter_ms", "candidate_steps_per_s"}


def tool(name: str, *argv: str) -> list[str]:
    """The output lines of `tools/<name> --base HEAD *argv`, which must exit 0."""
    has_head = shutil.which("git") and subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode == 0
    if not has_head:
        pytest.skip("needs a git checkout with a commit")
    cmd = [sys.executable, f"tools/{name}", "--base", "HEAD", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def iter_us(*argv: str) -> list[str]:
    return tool("iter_us.py", *argv)


def test_iter_us_runs_head_against_head():
    lines = iter_us("--variant", "reject", "--n", "4", "--n-oversample", "8", "--horizon", "3",
                    "--iterations", "2", "--steps", "2", "--pairs", "3")
    assert lines[0] == "iter_us: pendulum_swingup reject N=4 n_oversample=8 H=3, 2 iterations x 2 steps, 3 pairs"
    number = r"\d+\.\d"
    side = rf": median {number} us/iter \[Q1 {number}, Q3 {number}\], IQR {number}; median {number} minor faults/iter"
    assert re.fullmatch("base HEAD" + side, lines[1]), lines[1]
    assert re.fullmatch(r"head \(working tree\)" + side, lines[2]), lines[2]
    assert re.fullmatch(r"head/base \d+\.\d{3}; head faster in [0-3] of 3 pairs; actions (identical|DIFFER)", lines[3])


def test_iter_us_oversamples_4n_by_default():
    # with no --n-oversample, SolverConfig's 4 * N applies (a fixed 128 once failed every N above 128)
    lines = iter_us("--variant", "forward", "--n", "64", "--horizon", "3", "--iterations", "2", "--steps", "2",
                    "--pairs", "1")
    assert lines[0] == "iter_us: pendulum_swingup forward N=64 n_oversample=256 H=3, 2 iterations x 2 steps, 1 pairs"
    assert lines[3].endswith("actions identical"), lines[3]


@pytest.mark.parametrize("flag", ["--pairs", "--steps", "--iterations", "--horizon", "--n-oversample"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_iter_us_rejects_counts_below_one(flag, value):
    # --pairs 0 used to die in np.percentile and --steps 0 in a division, after the
    # export and warm-up; --horizon 0 died in SolverConfig after the export
    cmd = [sys.executable, "tools/iter_us.py", "--base", "HEAD", flag, value]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"argument {flag}: must be >= 1, got {value}" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--n", "1"], "argument --n: must be >= 2, got 1"),
    (["--n", "8", "--n-oversample", "7"], "argument --n-oversample: must be >= --n (8), got 7"),
    (["--env", "nope"], "argument --env: invalid choice: 'nope'"),
    (["--variant", "nope"], "argument --variant: invalid choice: 'nope'"),
], ids=["n_one", "oversample_below_n", "env", "variant"])
def test_iter_us_rejects_bad_shapes_before_the_export(argv, message):
    # each used to die with a traceback from SolverConfig or make_env, after the export;
    # a --base that names no commit shows that nothing was exported first
    cmd = [sys.executable, "tools/iter_us.py", "--base", "no-such-revision", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_iter_us_counts_calls_exactly():
    # without a prefetch worker, a fixed-iteration episode makes the same calls on
    # every run: each side counts the same in two runs, and with src as committed
    # (as in CI) HEAD's two sides count the same
    number = r"(\d+\.\d\d)"
    side = rf"{number} Python \+ {number} C = {number}"
    counts = []
    for _ in range(2):
        lines = iter_us("--variant", "accel", "--n", "4", "--n-oversample", "8", "--horizon", "3",
                        "--iterations", "2", "--steps", "2", "--pairs", "1", "--calls")
        got = re.fullmatch(rf"calls/iter on the calling thread: base {side}; head {side}", lines[4])
        assert got, lines[4]
        counts.append((got.groups()[:3], got.groups()[3:]))
    assert counts[0] == counts[1]
    (base, head), _ = counts
    assert float(base[2]) > 0 and float(head[2]) > 0
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True)
    if not status.stdout:  # src as committed
        assert base == head


@pytest.mark.parametrize("argv, draws", [
    # 1024 * 2 * 16 normals per iteration: a prefetching forward solve, one draw per iteration
    (["--env", "point_reacher", "--variant", "forward", "--n", "1024", "--horizon", "16"], 4),
    (["--variant", "accel", "--n", "4", "--n-oversample", "8", "--horizon", "3"], 0),
], ids=["prefetching", "serial"])
def test_iter_us_times_the_prefetch_draws(argv, draws):
    lines = iter_us(*argv, "--iterations", "2", "--steps", "2", "--pairs", "1", "--waits")
    side = rf"median \d+\.\d us over {draws} draws" if draws else "no draws"
    assert re.fullmatch(rf"Prefetch.draw wait per iteration: base {side}; head {side}", lines[4]), lines[4]


def test_pairs_runs_head_against_head(tmp_path):
    out = tmp_path / "pairs.json"
    tool("pairs.py", "--workload", "swingup_rt20", "--pairs", "1", "--seconds", "0", "--out", str(out))
    report = json.loads(out.read_text())
    gated = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(report) == {"workload", "workload_config", "seconds", "base", "head", "python", "numpy", "seeds",
                           "pairs", "metrics", "info"}
    assert report["workload"] == "swingup_rt20" and report["workload_config"]["variant"] == "accel"
    assert report["base"]["rev"] == "HEAD" and re.fullmatch("[0-9a-f]{40}", report["base"]["sha"])
    assert report["head"]["sha"] == report["base"]["sha"] and isinstance(report["head"]["dirty"], bool)
    assert report["seeds"] == [1] and len(report["pairs"]) == 1
    pair = report["pairs"][0]
    assert pair["seed"] == 1 and pair["first"] == "base"
    for side in ("base", "head"):
        assert set(pair[side]["metrics"]) == set(gated)
        assert re.fullmatch("[0-9a-f]{16}", pair[side]["digest"])
    assert set(report["metrics"]) == set(gated)
    for name, m in report["metrics"].items():
        assert m["better"] == gated[name] and m["head_won"] in (0, 1)
        for side in ("base", "head"):
            assert m[side]["median"] == pair[side]["metrics"][name]
            assert m[side]["q1"] == m[side]["q3"] == m[side]["median"]
    # rtbench's "(not gated)" lines, per pair and summarised, with their units
    assert NOT_GATED <= set(report["info"])
    for name, m in report["info"].items():
        for side in ("base", "head"):
            got = pair[side]["info"][name]
            assert got["unit"] == m["unit"] and math.isfinite(got["value"])
            assert m[side]["median"] == m[side]["q1"] == m[side]["q3"] == got["value"]
    assert report["info"]["iters_per_step_mean"]["unit"] == "count"
    assert report["info"]["iters_per_step_mean"]["head"]["median"] >= 1
    # what setup_s compiles: the size of src/rkmpc/*.py (the head is the working
    # tree's) and the time compile() takes over it
    assert report["info"]["source_bytes"]["unit"] == "bytes"
    size = sum(len(path.read_bytes()) for path in (ROOT / "src" / "rkmpc").glob("*.py"))
    assert report["info"]["source_bytes"]["head"]["median"] == size
    assert report["info"]["compile_ms"]["unit"] == "ms"
    assert all(report["info"]["compile_ms"][side]["median"] > 0 for side in ("base", "head"))


def test_pairs_rejects_a_negative_seed(tmp_path):
    # a negative seed used to fail only inside the first rtbench run, after the export
    out = tmp_path / "pairs.json"
    cmd = [sys.executable, "tools/pairs.py", "--base", "HEAD", "--workload", "swingup_rt20", "--seed", "-1",
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "argument --seed: must be >= 0, got -1" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_is_well_formed(path):
    # each is tools/pairs.py's output: every gated metric in BENCHMARK.json's
    # direction, and one pair per seed, in order
    report = json.loads(path.read_text())
    gated = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {name: m["better"] for name, m in report["metrics"].items()} == gated
    seeds = report["seeds"]
    assert len(report["pairs"]) == len(seeds) >= 1
    assert [pair["seed"] for pair in report["pairs"]] == seeds
    for pair in report["pairs"]:
        for side in ("base", "head"):
            assert set(pair[side]["metrics"]) == set(gated)
    for m in report["metrics"].values():
        assert 0 <= m["head_won"] <= len(seeds)
