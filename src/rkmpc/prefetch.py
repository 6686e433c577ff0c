"""Candidate draws made one solver iteration ahead, on a worker thread.

An iteration's standard normals (and, for reject and accel, its Gumbel keys)
come from a Generator that depends on (seed, step, iteration) alone, so
iteration i + 1's can be drawn while iteration i runs, and the next control
step's iteration 1 while this step's last iteration runs.  `Prefetch` draws
them on one worker thread into buffers it owns, for any of the four variants.
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


class Carried:
    """A control step's iteration-1 draw, made during the last iteration of
    the step before and held by the `SolverState` that step returned.

    `key` is (seed, step, drawn shape, two-sided) of the solve it was drawn
    for.  `take` hands the draw out once, to the first solve that asks with
    that key: the solve transforms it in place, so any later solve from the
    same state draws iteration 1 itself, to the same bits.
    """

    __slots__ = ("key", "_box")

    def __init__(self, key: tuple, drawn: Drawn):
        self.key, self._box = key, [drawn]

    def take(self, key: tuple) -> Drawn | None:
        """The draw, if it was made for `key` and no solve has taken it yet."""
        if key != self.key:
            return None
        try:
            return self._box.pop()  # one atomic pop: of two solves taking at once, one gets it
        except IndexError:
            return None


class Prefetch:
    """The draws of one solve of control step `step`, the draw after
    iteration i's made on one worker thread while the calling thread runs
    iteration i.

    `rng_of(s, k)` is step s's iteration-k Generator.  Its normals fill buffer
    k % 2 of `shape`, (n_oversample, A, H) for reject and accel or
    (n_candidates, A, H) for forward and reverse, and then, with `keys`, its
    Gumbel keys are drawn: the order the serial path draws in, so the bits are
    the same.  The draw after the last iteration is the next step's
    iteration 1, into the buffer the last iteration does not use; `close`
    hands it back.  A `first` draw, carried from the step before, serves
    iteration 1 and its normals become buffer 1.  The calling thread asks
    for a draw on one queue and takes it, or the exception raised in it, from
    another, and it takes each draw before asking for the next: at most one
    draw is in flight, and the worker never writes the buffer the calling
    thread is sampling from.
    """

    def __init__(
        self,
        rng_of: Callable[[int, int], np.random.Generator],
        step: int,
        shape: tuple[int, int, int],
        keys: bool,
        first: Drawn | None = None,
    ):
        self._rng_of, self._step, self._keys = rng_of, step, keys
        self._buffers = (np.empty(shape), np.empty(shape) if first is None else first.normals)
        self._asked: queue.SimpleQueue = queue.SimpleQueue()  # ((step, k), buffer) to draw; None stops the worker
        self._drawn: queue.SimpleQueue[Drawn | BaseException] = queue.SimpleQueue()
        self._ahead: tuple[int, int] | None = None  # the (step, k) last asked of the worker or carried in
        self._thread: threading.Thread | None = None
        if first is not None:
            self._drawn.put(first)
            self._ahead = (step, 1)

    def _fill(self, key: tuple[int, int], normals: np.ndarray) -> Drawn:
        rng = self._rng_of(*key)
        rng.standard_normal(normals.shape, out=normals)
        return Drawn(normals, rng.gumbel(size=normals.shape[0]) if self._keys else None)

    def _work(self) -> None:
        for key, normals in iter(self._asked.get, None):
            try:
                self._drawn.put(self._fill(key, normals))
            except BaseException as exc:  # raised again on the calling thread, by `draw`
                self._drawn.put(exc)

    def draw(self, i: int, ahead: tuple[int, int] | None) -> Drawn:
        """Iteration i's draws.  With `ahead`, a (step, iteration) key, the
        worker starts on that key's draws before this returns: (step, i + 1),
        or after the last iteration (step + 1, 1)."""
        drawn = self._drawn.get() if self._ahead == (self._step, i) else None
        if isinstance(drawn, BaseException):
            raise drawn
        if ahead is not None:
            if self._thread is None:
                thread = threading.Thread(target=self._work, name="rkmpc-prefetch")
                thread.start()  # kept only once started, so that `close` never joins an unstarted one
                self._thread = thread
            self._asked.put((ahead, self._buffers[(i + 1) % 2]))
            self._ahead = ahead
        return drawn if drawn is not None else self._fill((self._step, i), self._buffers[i % 2])  # beside the worker

    def close(self) -> Drawn | None:
        """Stop and join the worker, after the draw in flight, if any.  Returns
        the next step's iteration-1 draw if it was asked for; None if it was
        not, or if it raised (the next step then draws iteration 1 itself)."""
        if self._thread is not None:
            self._asked.put(None)
            self._thread.join()
            self._thread = None
        if self._ahead != (self._step + 1, 1):
            return None
        drawn = self._drawn.get()
        return drawn if isinstance(drawn, Drawn) else None
