"""In-memory span tracer for rkmpc, installed from outside the library.

Each traced function is replaced at the name its caller binds (for example
``rkmpc.solvers.rollout_batch``, because ``solvers`` imports it by name), so
the library's code stays unchanged.  Spans are kept in flat arrays while the
benchmark runs and written out once at the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

UPDATE_SPANS = (
    "solvers.forward_update",
    "solvers.reverse_update",
    "solvers.reject_update",
    "solvers.accel_update",
)


class Tracer:
    """Nested spans of one thread.

    Span i has a name id, a start and an end (seconds of ``clock``), the index
    of its parent span (-1 for a root), the id of the (workload, seed, step)
    key it ran under, and a work count supplied by its wrapper.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.keys: list[tuple] = []
        self.name = array("i")
        self.parent = array("i")
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_key(self, key: tuple) -> None:
        """Tag the spans opened from now on with ``key``."""
        self.keys.append(key)

    def open(self, nid: int, count: float = 0.0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.key.append(len(self.keys) - 1)
        self.count.append(count)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(*args, **kwargs)``
        gives the span's work count."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid, count(*args, **kwargs) if count else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "key": np.frombuffer(self.key, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = np.array([list(map(str, k)) for k in self.keys] or np.empty((0, 3)), dtype=str)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), keys=keys, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations add up.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's root span."""
    root = np.arange(parent.size)
    up = parent.copy()
    while np.any(up >= 0):
        root = np.where(up >= 0, up, root)
        up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
    return root


def _sample_normals(params, count, rng):
    return float(count * params.mu.size)


def _kept_per_drawn(theta_plus, theta_minus, n_tilde, n, kappa, rng):
    return n / n_tilde


def _candidate_steps(env, x_t, u_squashed):
    return float(u_squashed.shape[0] * u_squashed.shape[2])


def _targets():
    """(owner, attribute, span name, count) for every traced function."""
    import rkmpc.solvers as solvers
    from rkmpc.policy import PolicyParams

    bound_in_solvers = [
        ("compose_and_sample", "solvers.compose_and_sample", _kept_per_drawn),
        ("selection_log_scores", "solvers.selection_log_scores", None),
        ("forward_update", "solvers.forward_update", None),
        ("reverse_update", "solvers.reverse_update", None),
        ("reject_update", "solvers.reject_update", None),
        ("accel_update", "solvers.accel_update", None),
        ("warm_start", "solvers.warm_start", None),
        ("sample_batch", "policy.sample_batch", _sample_normals),
        ("squash", "policy.squash", None),
        ("log_density", "policy.log_density", None),
        ("mirror_map", "policy.mirror_map", None),
        ("mirror_inverse", "policy.mirror_inverse", None),
        ("standard_prior", "policy.standard_prior", None),
        ("forward_weights", "weights.forward_weights", None),
        ("signed_log_weights", "weights.signed_log_weights", None),
        ("partition_clusters", "weights.partition_clusters", None),
        ("rollout_batch", "envs.rollout_batch", _candidate_steps),
    ]
    targets = [(solvers, attr, name, count) for attr, name, count in bound_in_solvers]
    targets.append((PolicyParams, "__post_init__", "policy.PolicyParams.__post_init__", None))
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Trace rkmpc's layer functions for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: dict[str, np.ndarray], names: list[str], iterations: int) -> dict[str, float]:
    """Per-layer metrics from the spans of traced control steps.

    The root of each step is a ``solvers.solve`` span.  Times are per solver
    iteration, summed over all traced steps: ``us_per_iter`` includes a
    span's children, ``self_us_per_iter`` excludes them.
    """
    if iterations < 1:
        raise ValueError("need at least one traced iteration")
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, spans["start"], spans["end"])
    ids = {n: i for i, n in enumerate(names)}

    def mask(*span_names):
        return np.isin(name, [ids[n] for n in span_names if n in ids])

    def us(values, m):
        return float(values[m].sum()) * 1e6 / iterations

    solve = mask("solvers.solve")
    under_solve = (parent >= 0) & solve[np.maximum(parent, 0)]
    rollout = mask("envs.rollout_batch")
    candidate_steps = float(spans["count"][rollout].sum())
    compose = mask("solvers.compose_and_sample")
    out = {
        "solvers.solve.self_us_per_iter": us(own, solve),
        "solvers.compose_and_sample.self_us_per_iter": us(own, compose),
        "solvers.selection_log_scores.self_us_per_iter": us(own, mask("solvers.selection_log_scores")),
        "solvers.compose_and_sample.kept_per_drawn": float(spans["count"][compose].mean()) if compose.any() else 0.0,
        "solvers.update.us_per_iter": us(dur, mask(*UPDATE_SPANS) & under_solve),
        "policy.sample_batch.us_per_iter": us(dur, mask("policy.sample_batch")),
        "policy.sample_batch.normals_per_iter": float(spans["count"][mask("policy.sample_batch")].sum()) / iterations,
        "policy.log_density.us_per_iter": us(dur, mask("policy.log_density")),
        "policy.squash.us_per_iter": us(dur, mask("policy.squash")),
        "policy.mirror.us_per_iter": us(dur, mask("policy.mirror_map", "policy.mirror_inverse")),
        "policy.PolicyParams.constructions_per_iter": float(mask("policy.PolicyParams.__post_init__").sum()) / iterations,
        "policy.PolicyParams.validate_us_per_iter": us(dur, mask("policy.PolicyParams.__post_init__")),
        "weights.weights.us_per_iter": us(dur, mask("weights.forward_weights", "weights.signed_log_weights")),
        "weights.partition_clusters.calls_per_iter": float(mask("weights.partition_clusters").sum()) / iterations,
        "envs.rollout_batch.us_per_iter": us(dur, rollout),
        "envs.rollout_batch.ns_per_candidate_step": float(dur[rollout].sum()) * 1e9 / candidate_steps if candidate_steps else 0.0,
    }
    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])[name]
    for layer in ("solvers", "policy", "weights", "envs"):
        out[f"{layer}.self_us_per_iter"] = us(own, layer_of == layer)
    return out
