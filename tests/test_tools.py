"""Smoke test of the developer tools under tools/."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def iter_us(*argv: str) -> list[str]:
    """The output lines of `tools/iter_us.py --base HEAD *argv`, which must exit 0."""
    has_head = shutil.which("git") and subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode == 0
    if not has_head:
        pytest.skip("needs a git checkout with a commit")
    cmd = [sys.executable, "tools/iter_us.py", "--base", "HEAD", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
