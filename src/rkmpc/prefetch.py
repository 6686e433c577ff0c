"""Candidate draws made one solver iteration ahead, on a worker thread.

An iteration's standard normals and Gumbel keys come from a Generator that
depends on (seed, step, iteration) alone, so iteration i + 1's can be drawn
while iteration i runs.  `Prefetch` draws them on one worker thread into
buffers it owns.  numpy fills an array without holding the GIL, so the fill
runs beside the calling thread's numpy work; everything else stays on the
calling thread.  `solve` imports this module only when it prefetches (see
`rkmpc.solvers.PREFETCH_MIN_NORMALS`): where bytecode is not cached,
compiling it costs about 1.5 ms of every cold start that does not need it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np


def _served(array: np.ndarray, size) -> np.ndarray:
    shape = tuple(size) if np.iterable(size) else (size,)
    if array.shape != shape:
        raise ValueError(f"a draw of size {shape} asked of one made at {array.shape}")
    return array


class Drawn:
    """Stands in for an iteration's Generator in `compose_and_sample`: serves the
    standard normals and Gumbel keys drawn from it beforehand, with the shapes
    they were drawn at.  `sample_batch` transforms the normals in place."""

    __slots__ = ("normals", "keys")

    def __init__(self, normals: np.ndarray, keys: np.ndarray):
        self.normals, self.keys = normals, keys

    def standard_normal(self, size) -> np.ndarray:
        return _served(self.normals, size)

    def gumbel(self, size) -> np.ndarray:
        return _served(self.keys, size)


class Prefetch:
    """The draws of one two-sided solve, iteration i + 1's made on one worker
    thread while the calling thread runs iteration i.

    `rng_of(k)` is iteration k's Generator.  Its normals fill buffer k % 2 of
    shape (n_oversample, A, H), and then its Gumbel keys are drawn, the order
    the serial path draws in, so the bits are the same.  The worker never
    writes the buffer the calling thread is sampling from.  At most one draw
    is in flight, and `close` joins the worker after it.
    """

    def __init__(self, rng_of: Callable[[int], np.random.Generator], shape: tuple[int, int, int]):
        self._rng_of = rng_of
        self._buffers = (np.empty(shape), np.empty(shape))
        self._go, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._pending = 0  # the iteration the worker is drawing, 0 for none
        self._result: Drawn | BaseException | None = None
        self._thread: threading.Thread | None = None

    def _fill(self, k: int) -> Drawn:
        rng = self._rng_of(k)
        normals = self._buffers[k % 2]
        rng.standard_normal(normals.shape, out=normals)
        return Drawn(normals, rng.gumbel(size=normals.shape[0]))

    def _work(self) -> None:
        while True:
            self._go.acquire()
            if not self._pending:
                return
            try:
                self._result = self._fill(self._pending)
            except BaseException as exc:  # raised again on the calling thread, by `draw`
                self._result = exc
            self._done.release()

    def _submit(self, k: int) -> None:
        if self._thread is None:
            thread = threading.Thread(target=self._work, name="rkmpc-prefetch")
            thread.start()
            self._thread = thread
        self._pending = k
        self._go.release()

    def _wait(self) -> Drawn | BaseException:
        self._done.acquire()
        result, self._result, self._pending = self._result, None, 0
        return result

    def draw(self, i: int, then_next: bool) -> Drawn:
        """Iteration i's draws; with `then_next`, the worker starts on iteration
        i + 1's before this returns."""
        if self._pending == i:
            drawn = self._wait()
            if isinstance(drawn, BaseException):
                raise drawn
            if then_next:
                self._submit(i + 1)
            return drawn
        if then_next:
            self._submit(i + 1)
        return self._fill(i)  # beside the worker's draw of i + 1

    def close(self) -> None:
        """Stop and join the worker, after the draw in flight, if any."""
        if self._thread is None:
            return
        if self._pending:
            self._wait()
        self._go.release()  # with nothing pending: stop
        self._thread.join()
        self._thread = None
