"""Candidate draws made one solver iteration ahead, on a worker thread.

An iteration's standard normals (and, for reject and accel, its Gumbel keys)
come from a Generator that depends on (seed, step, iteration) alone, so
iteration i + 1's can be drawn while iteration i runs.  `Prefetch` draws them
on one worker thread into buffers it owns, for any of the four variants.
numpy fills an array without holding the GIL, so the fill runs beside the
calling thread's numpy work; everything else stays on the calling thread.
`solve` imports this module only when it prefetches (see
`rkmpc.solvers.PREFETCH_MIN_NORMALS`): where bytecode is not cached,
compiling it costs about 1.5 ms of every cold start that does not need it.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable

import numpy as np


def _served(array: np.ndarray, size) -> np.ndarray:
    shape = tuple(size) if np.iterable(size) else (size,)
    if array.shape != shape:
        raise ValueError(f"a draw of size {shape} asked of one made at {array.shape}")
    return array


class Drawn:
    """Stands in for an iteration's Generator in `sample_batch` and
    `compose_and_sample`: serves the standard normals and Gumbel keys drawn
    from it beforehand, with the shapes they were drawn at.  `sample_batch`
    transforms the served normals in place, as it does a Generator's, so the
    buffer becomes the iteration's batch.  A one-sided draw has no keys
    (None)."""

    __slots__ = ("normals", "keys")

    def __init__(self, normals: np.ndarray, keys: np.ndarray | None):
        self.normals, self.keys = normals, keys

    def standard_normal(self, size) -> np.ndarray:
        return _served(self.normals, size)

    def gumbel(self, size) -> np.ndarray:
        return _served(self.keys, size)


class Prefetch:
    """The draws of one solve, iteration i + 1's made on one worker thread
    while the calling thread runs iteration i.

    `rng_of(k)` is iteration k's Generator.  Its normals fill buffer k % 2 of
    `shape`, (n_oversample, A, H) for reject and accel or (n_candidates, A, H)
    for forward and reverse, and then, with `keys`, its Gumbel keys are drawn:
    the order the serial path draws in, so the bits are the same.  The calling
    thread asks for a draw on one queue and takes it, or the exception raised
    in it, from another, and it takes each draw before asking for the next: at
    most one draw is in flight, and the worker never writes the buffer the
    calling thread is sampling from.  `close` asks the worker to stop and joins it
    after the draw in flight.
    """

    def __init__(self, rng_of: Callable[[int], np.random.Generator], shape: tuple[int, int, int], keys: bool):
        self._rng_of, self._keys = rng_of, keys
        self._buffers = (np.empty(shape), np.empty(shape))
        self._asked: queue.SimpleQueue[int] = queue.SimpleQueue()  # iterations to draw; 0 stops the worker
        self._drawn: queue.SimpleQueue[Drawn | BaseException] = queue.SimpleQueue()
        self._ahead = 0  # the last iteration asked of the worker, 0 for none
        self._thread: threading.Thread | None = None

    def _fill(self, k: int) -> Drawn:
        rng = self._rng_of(k)
        normals = self._buffers[k % 2]
        rng.standard_normal(normals.shape, out=normals)
        return Drawn(normals, rng.gumbel(size=normals.shape[0]) if self._keys else None)

    def _work(self) -> None:
        for k in iter(self._asked.get, 0):
            try:
                self._drawn.put(self._fill(k))
            except BaseException as exc:  # raised again on the calling thread, by `draw`
                self._drawn.put(exc)

    def draw(self, i: int, then_next: bool) -> Drawn:
        """Iteration i's draws; with `then_next`, the worker starts on iteration
        i + 1's before this returns."""
        drawn = self._drawn.get() if self._ahead == i else None
        if isinstance(drawn, BaseException):
            raise drawn
        if then_next:
            if self._thread is None:
                thread = threading.Thread(target=self._work, name="rkmpc-prefetch")
                thread.start()  # kept only once started, so that `close` never joins an unstarted one
                self._thread = thread
            self._asked.put(i + 1)
            self._ahead = i + 1
        return drawn if drawn is not None else self._fill(i)  # beside the worker's draw of i + 1

    def close(self) -> None:
        """Stop and join the worker, after the draw in flight, if any."""
        if self._thread is not None:
            self._asked.put(0)
            self._thread.join()
            self._thread = None
