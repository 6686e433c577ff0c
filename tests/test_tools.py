"""Smoke test of the developer tools under tools/."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_iter_us_runs_head_against_head():
    has_head = shutil.which("git") and subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode == 0
    if not has_head:
        pytest.skip("needs a git checkout with a commit")
    argv = ["--base", "HEAD", "--variant", "reject", "--n", "4", "--n-oversample", "8", "--horizon", "3",
            "--iterations", "2", "--steps", "2", "--pairs", "3"]
    proc = subprocess.run([sys.executable, "tools/iter_us.py", *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "iter_us: pendulum_swingup reject N=4 n_oversample=8 H=3, 2 iterations x 2 steps, 3 pairs"
    number = r"\d+\.\d"
    side = rf": median {number} us/iter \[Q1 {number}, Q3 {number}\], IQR {number}"
    assert re.fullmatch("base HEAD" + side, lines[1]), lines[1]
    assert re.fullmatch(r"head \(working tree\)" + side, lines[2]), lines[2]
    assert re.fullmatch(r"head/base \d+\.\d{3}; head faster in [0-3] of 3 pairs; actions (identical|DIFFER)", lines[3])
