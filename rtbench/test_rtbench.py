"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest rtbench -q
"""

import dataclasses
import json
import math
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing

HERE = Path(__file__).resolve().parent
rkmpc = run.import_rkmpc()


class FakeClock:
    """Advances by a fixed tick on every read, so durations are exact."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def test_self_time_is_duration_minus_children():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has child [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    own = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 3.0, 3.0, 1.0])
    assert own.sum() == pytest.approx(10.0)
    np.testing.assert_array_equal(tracing.root_of(parent), [0, 0, 0, 0])


def test_wrapped_calls_nest_and_self_times_sum_to_root():
    t = tracing.Tracer(clock=FakeClock())
    leaf = t.wrap(lambda x: x + 1, "b.leaf", count=lambda x: float(x))
    mid = t.wrap(lambda x: leaf(x) + leaf(x), "a.mid")
    root = t.wrap(lambda: mid(1) + leaf(2), "solvers.solve")
    t.set_key(("w", 0, 0))
    assert root() == 7
    spans = t.arrays()
    assert [t.names[i] for i in spans["name"]] == ["solvers.solve", "a.mid", "b.leaf", "b.leaf", "b.leaf"]
    np.testing.assert_array_equal(spans["parent"], [-1, 0, 1, 1, 0])
    np.testing.assert_array_equal(spans["count"], [0.0, 0.0, 1.0, 1.0, 2.0])
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    assert own.sum() == pytest.approx(spans["end"][0] - spans["start"][0])
    assert np.all(own > 0)


def test_span_closes_when_the_call_raises():
    t = tracing.Tracer(clock=FakeClock())

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        t.wrap(boom, "x")()
    assert np.isfinite(t.arrays()["end"]).all()


def traced_steps(spec, steps=3):
    env, config = run.setup(rkmpc, spec)
    plain = run.run_episode(env, config, spec["variant"], steps, 7, rkmpc.solve)
    t = tracing.Tracer()
    with tracing.installed(t):
        traced = run.run_episode(env, config, spec["variant"], steps, 7, t.wrap(rkmpc.solve, "solvers.solve"), t)
    return config, plain, traced, t


@pytest.mark.parametrize("variant", ["accel", "forward"])
def test_layer_self_times_account_for_the_step_time(variant):
    spec = {
        "env": "pendulum_swingup",
        "variant": variant,
        "episode_steps": 3,
        "solver": {"n_candidates": 16, "n_oversample": 64, "horizon": 8, "deadline_ms": None, "max_iterations": 4},
        "weights": {"backend": "mppi"},
    }
    config, plain, traced, t = traced_steps(spec)
    assert plain.table() == traced.table()
    spans = t.arrays()
    roots = spans["parent"] < 0
    assert roots.sum() == 3
    iterations = sum(traced.iterations)
    m = tracing.layer_metrics(spans, t.names, iterations)
    layer_sum = sum(m[f"{layer}.self_us_per_iter"] for layer in ("solvers", "policy", "weights", "envs"))
    step_us = float((spans["end"] - spans["start"])[roots].sum()) * 1e6 / iterations
    assert layer_sum == pytest.approx(step_us, rel=1e-9)
    assert m["policy.sample_batch.normals_per_iter"] == (64 if variant == "accel" else 16) * 8
    assert m["envs.rollout_batch.ns_per_candidate_step"] > 0
    if variant == "accel":
        assert m["weights.partition_clusters.calls_per_iter"] == 2.0
        assert m["solvers.compose_and_sample.kept_per_drawn"] == 0.25
    else:
        assert m["solvers.compose_and_sample.self_us_per_iter"] == 0.0
        assert m["weights.partition_clusters.calls_per_iter"] == 0.0


def test_a_step_that_raises_or_leaves_the_bounds_counts_as_failed():
    env, config = run.setup(rkmpc, run.load_workloads()["swingup_rt20"])

    def out_of_bounds(env, x, config, **kwargs):
        result, state = rkmpc.solve(env, x, config, **kwargs)
        return dataclasses.replace(result, u=env.action_high + 1.0), state

    def raises(*args, **kwargs):
        raise FloatingPointError("diverged")

    for solve, message in ((out_of_bounds, "out of bounds"), (raises, "diverged")):
        ep = run.run_episode(env, config, "accel", 5, 0, solve)
        assert (ep.attempted, ep.failed, ep.step_s) == (1, 1, [])
        assert message in ep.errors[0]


def test_throughput_per_ref_iter_scales_each_chunk_by_its_probes():
    config = run.solver_config(rkmpc, run.load_workloads()["swingup_rt20"])
    per_iter = config.n_candidates * config.horizon
    # chunk 0: 2 steps of 1 iteration in 0.5 s, between probes of 1 s and 4 s;
    # chunk 1: 1 step of 3 iterations in 1 s, between probes of 4 s and 9 s
    ep = run.Episode(seed=0, step_s=[0.25, 0.25, 1.0], iterations=[1, 1, 3], probe_ids=[0, 0, 1])
    rates = [2 * per_iter / 0.5 * 2.0, 3 * per_iter / 1.0 * 6.0]
    assert run.throughput_per_ref_iter([ep], config, [1.0, 4.0, 9.0]) == pytest.approx(statistics.median(rates))


def test_host_meter_probes_after_each_chunk_of_solving():
    meter = run.meter_for(run.load_workloads()["trap_reject_bulk"])
    assert meter.last == 0
    meter.after_step(run.PROBE_EVERY_S / 2)
    assert meter.last == 0
    meter.after_step(run.PROBE_EVERY_S / 2)
    assert meter.last == 1
    meter.close()
    assert meter.last == 1 and all(s > 0 for s in meter.seconds)


def test_installed_restores_the_library():
    originals = {attr: owner.__dict__[attr] for owner, attr, _, _ in tracing._targets()}
    with tracing.installed(tracing.Tracer()):
        assert rkmpc.solvers.rollout_batch is not originals["rollout_batch"]
    for owner, attr, _, _ in tracing._targets():
        assert owner.__dict__[attr] is originals[attr]


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS_E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads())
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_workload_configs_are_valid():
    for name, spec in run.load_workloads().items():
        config = run.solver_config(rkmpc, spec)
        assert config.n_oversample >= config.n_candidates, name
        assert math.isinf(config.deadline) or config.max_iterations >= 10**6, name


def command(*args, cwd):
    return subprocess.run(
        [sys.executable, "rtbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_short_run_prints_every_metric_and_passes_its_checks():
    proc = command("--workload", "swingup_rt20", "--seed", "3", "--seconds", "0", "--trace", "0", cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.UNITS_E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "rtbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = command("--workload", "swingup_rt20", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
