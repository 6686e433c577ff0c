"""Byte-for-byte regression check of `bench run` results CSVs.

The files under tests/golden/ were written by `bench run` with the flags in
CASES, using each variant; a refactor that keeps behaviour keeps every byte.
A change that alters them on purpose regenerates them and says why.

MULTI_BLOCK runs N * H = 9,000 candidate-steps per rollout, more than
`rkmpc.envs.BLOCK_ROWS`, so `rollout_batch` evaluates the costs in several
blocks of steps (6, 6 and a partial 3 at N = 600); the other cases fit in one.

NORTH_STAR runs accel and reject at the real-time benchmark's shape.

BULK runs the shapes of the bulk benchmark workloads at a few steps each:
reject selecting N = 1024 of n_oversample = 4096 candidates, and forward
refits of a 2-D action at N = 1024, both over H = 50 in 4-step rollout blocks.
Reverse runs the forward case's shape, the only golden of reverse at A = 2.
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
BULK = {
    "overlap_trap_reject": ["--env", "overlap_trap", "--solver", "reject", "--candidates", "1024",
                            "--oversample", "4096", "--horizon", "50", "--iterations", "4", "--steps", "4", "--seed", "0"],
    "point_reacher_forward": ["--env", "point_reacher", "--solver", "forward", "--candidates", "1024",
                              "--horizon", "50", "--iterations", "8", "--steps", "4", "--seed", "0"],
    "point_reacher_reverse": ["--env", "point_reacher", "--solver", "reverse", "--candidates", "1024",
                              "--horizon", "50", "--iterations", "8", "--steps", "4", "--seed", "0"],
}
# The real-time benchmark's north-star shape (N = 32, n_oversample = 128,
# H = 12) at 24 iterations, about what accel reaches in a 20 ms step.
NORTH_STAR = ["--env", "pendulum_swingup", "--candidates", "32", "--oversample", "128", "--horizon", "12",
              "--iterations", "24", "--steps", "6", "--seed", "0,1"]
MULTI_BLOCK = ["--env", "pendulum_swingup", "--solver", "accel", "--steps", "4", "--seed", "0",
               "--iterations", "3", "--horizon", "15", "--candidates", "600"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("env", sorted(CASES))
def test_results_csv_matches_golden(tmp_path, env, variant):
    argv = ["run", "--env", env, "--solver", variant, *CASES[env], *COMMON, "--output", str(tmp_path), "--name", "golden"]
    assert main(argv) == 0
    name = f"golden_{env}_{variant}_results.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_multi_block_results_csv_matches_golden(tmp_path):
    argv = ["run", *MULTI_BLOCK, "--output", str(tmp_path), "--name", "golden_multiblock"]
    assert main(argv) == 0
    name = "golden_multiblock_pendulum_swingup_accel_results.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("case", sorted(BULK))
def test_bulk_results_csv_matches_golden(tmp_path, case):
    argv = ["run", *BULK[case], "--output", str(tmp_path), "--name", "golden_bulk"]
    assert main(argv) == 0
    name = f"golden_bulk_{case}_results.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("variant", ["accel", "reject"])
def test_north_star_results_csv_matches_golden(tmp_path, variant):
    argv = ["run", *NORTH_STAR, "--solver", variant, "--output", str(tmp_path), "--name", "golden_northstar"]
    assert main(argv) == 0
    name = f"golden_northstar_pendulum_swingup_{variant}_results.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
