"""Byte-for-byte regression check of `bench run` results CSVs.

The files under tests/golden/ were written by `bench run` with the flags in
CASES, using each variant; a refactor that keeps behaviour keeps every byte.
A change that alters them on purpose regenerates them and says why.
"""

from pathlib import Path

import pytest

from rkmpc.cli import main
from rkmpc.solvers import VARIANTS

GOLDEN = Path(__file__).parent / "golden"

COMMON = ["--steps", "6", "--seed", "0,1", "--iterations", "6", "--horizon", "8", "--candidates", "32"]
CASES = {
    "pendulum_swingup": [],
    "bimodal_valley": ["--backend", "cem", "--lambda", "0.1"],
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("env", sorted(CASES))
def test_results_csv_matches_golden(tmp_path, env, variant):
    argv = ["run", "--env", env, "--solver", variant, *CASES[env], *COMMON, "--output", str(tmp_path), "--name", "golden"]
    assert main(argv) == 0
    name = f"golden_{env}_{variant}_results.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
