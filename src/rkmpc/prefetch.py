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

The hand-off between control steps is decided here alone.  A draw is keyed
by (seed, step, drawn shape, two-sided): the key of a solve of `step` at
`seed` drawing `shape` with keys (two-sided) or without.  A `Prefetch` takes
iteration 1's draw from the `Carried` of the state it warm-starts from under
its own key, and otherwise draws iteration 1 itself.  While iteration i runs
it draws (step, i + 1), or (step + 1, 1) when i is the last iteration, but
only when the solve expects another iteration to start.  `close` returns that
(step + 1, 1) draw as a `Carried` under the next step's key, or None.  The
worker starts as the last step of building a `Prefetch` and `close` joins
it, after the draw in flight, so a solve that closes in a `finally` leaves
no thread behind.
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
    """The draws of one solve of control step `step` at `seed`, the draw after
    iteration i's made on one worker thread while the calling thread runs
    iteration i.

    `rng(seed, s, k)` is step s's iteration-k Generator.  Its normals fill
    buffer k % 2 of `shape`, (n_oversample, A, H) for reject and accel or
    (n_candidates, A, H) for forward and reverse, and then, with `keys`, its
    Gumbel keys are drawn: the order the serial path draws in, so the bits are
    the same.  The draw after the last iteration is the next step's
    iteration 1, into the buffer the last iteration does not use.  A draw
    `carry` holds for this solve's key serves iteration 1, and its normals
    become buffer 1.  The calling thread asks for a draw on one queue and
    takes it, or the exception raised in it, from another, and it takes each
    draw before asking for the next: at most one draw is in flight, and the
    worker never writes the buffer the calling thread is sampling from.  The
    worker runs from the end of `__init__` until `close`.
    """

    def __init__(
        self,
        rng: Callable[[int, int, int], np.random.Generator],
        seed: int,
        step: int,
        shape: tuple[int, int, int],
        keys: bool,
        carry: Carried | None,
    ):
        self._rng, self._seed, self._step, self._keys = rng, seed, step, keys
        self._next_key = (seed, step + 1, shape, keys)  # the key `close` carries the (step + 1, 1) draw under
        first = None if carry is None else carry.take((seed, step, shape, keys))
        self._buffers = (np.empty(shape), np.empty(shape) if first is None else first.normals)
        self._asked: queue.SimpleQueue = queue.SimpleQueue()  # ((step, k), buffer) to draw; None stops the worker
        self._drawn: queue.SimpleQueue[Drawn | BaseException] = queue.SimpleQueue()
        self._ahead: tuple[int, int] | None = None  # the (step, k) last asked of the worker or carried in
        if first is not None:
            self._drawn.put(first)
            self._ahead = (step, 1)
        self._thread = threading.Thread(target=self._work, name="rkmpc-prefetch")
        self._thread.start()

    def _fill(self, key: tuple[int, int], normals: np.ndarray) -> Drawn:
        rng = self._rng(self._seed, *key)
        rng.standard_normal(normals.shape, out=normals)
        return Drawn(normals, rng.gumbel(size=normals.shape[0]) if self._keys else None)

    def _work(self) -> None:
        for key, normals in iter(self._asked.get, None):
            try:
                self._drawn.put(self._fill(key, normals))
            except BaseException as exc:  # raised again on the calling thread, by `draw`
                self._drawn.put(exc)

    def draw(self, i: int, last: bool, ahead: bool) -> Drawn:
        """Iteration i's draws.  With `ahead`, the worker starts on the next
        draw before this returns: (step, i + 1), or (step + 1, 1) if i is
        the `last` iteration."""
        drawn = self._drawn.get() if self._ahead == (self._step, i) else None
        if isinstance(drawn, BaseException):
            raise drawn
        if ahead:
            self._ahead = (self._step + 1, 1) if last else (self._step, i + 1)
            self._asked.put((self._ahead, self._buffers[(i + 1) % 2]))
        return drawn if drawn is not None else self._fill((self._step, i), self._buffers[i % 2])  # beside the worker

    def close(self) -> Carried | None:
        """Stop and join the worker, after the draw in flight, if any.  Returns
        the next step's iteration-1 draw under its key if it was asked for;
        None if it was not, or if it raised (the next step then draws
        iteration 1 itself)."""
        self._asked.put(None)
        self._thread.join()
        if self._ahead != (self._step + 1, 1):
            return None
        drawn = self._drawn.get()
        return Carried(self._next_key, drawn) if isinstance(drawn, Drawn) else None
