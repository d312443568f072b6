"""Row-parallel kernels for prediction and training.

A kernel body `body(lo, hi)` computes rows [lo, hi) of its outputs from
numpy arrays alone. `run(body, n)` calls it once over all n rows, except on
the thread that has opened `threads()`: there the rows are cut into one
contiguous part per usable CPU, the caller runs the first part and a
persistent pool of daemon threads runs the others, and the call returns
once every part has finished. numpy releases the interpreter lock inside
its loops and BLAS calls, so the parts run at the same time. A `run`
called from inside a part runs inline: the pool's threads are already
busy with its siblings. One object, `_Pool`, holds the threads, their
queue, the scope's lock and the scope's owner. A part is handed over by
one queue put and one get (README, Threads: why not `concurrent.futures`).

Inside that scope the OpenBLAS that numpy loaded is pinned to one thread:
BLAS's own threads would compete with the pool's for the same cores, and
between BLAS calls an idle one spins. The earlier count comes back on exit,
also when the scope raises. With one usable CPU, or without an OpenBLAS
whose thread count can be set, no thread starts and every body runs inline.
`MGTModel.predict_batch`, `pretrain.pretrain_step` and
`pipeline.finetune_step` open the scope.

A body must not build a `Tensor` nor call anything that may be wrapped from
outside: a pool thread runs it while the caller's thread runs its own part.
With `groups`, parts start where the group id changes, so a part never
splits a group. Bodies whose rows are independent, or whose sums stay
within a group, give bitwise the outputs of one call over all rows;
`nn._run_rows` says which matrix products qualify, and
`tensor._weight_grad` sums over rows in fixed blocks for the same reason.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from collections.abc import Callable
from contextlib import contextmanager
from functools import cache

import numpy as np

# Fewer rows than this per part cost more to hand over than they save.
MIN_PART_ROWS = 256
# A body of a few cheap passes over its elements, such as a segment sum or
# a batch norm, also needs this many elements per part: waking a pool
# thread costs about what such passes over tens of thousands of elements
# do (on 2 vCPUs, splitting them at 256 rows cost perfbench's predict-large
# 1.5 % of its throughput).
MIN_PART_SIZE = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _blas_threads() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of the OpenBLAS numpy is linked to,
    or None. Looked up through numpy's core extension, whose dependencies
    include the BLAS it calls."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _Pool:
    """Daemon threads on one task queue, the scope's lock and its owner."""

    def __init__(self):
        self.lock = threading.Lock()
        self.owner: int | None = None
        self.workers = 0
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()

    def resize(self, workers: int):
        """Start threads, or queue stops for idle ones, until `workers` serve."""
        for _ in range(workers, self.workers):
            self.tasks.put(None)
        for _ in range(self.workers, workers):
            threading.Thread(target=self._serve, name="crysfuse-rows",
                             daemon=True).start()
        self.workers = workers

    def _serve(self):
        for body, lo, hi, done in iter(self.tasks.get, None):
            try:
                body(lo, hi)
            except BaseException as exc:  # raised again in the caller
                done.put(exc)
            else:
                done.put(None)
            # while idle, hold nothing of the last part (its kernel's arrays)
            del body, done

    def run(self, body, cuts: list[int]):
        """body over each part [cuts[i], cuts[i + 1]), the first on this
        thread; after every part has finished, raise the first error."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            self.tasks.put((body, lo, hi, done))
        errors = []
        try:
            body(cuts[0], cuts[1])
        except BaseException as exc:
            errors.append(exc)
        for _ in range(len(cuts) - 2):
            if (exc := done.get()) is not None:
                errors.append(exc)
        if errors:
            raise errors[0]


_pool = _Pool()


def _forget_pool():
    """A forked child has none of its parent's threads: start afresh."""
    global _pool
    _pool = _Pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextmanager
def threads():
    """Split `run` bodies called on this thread across the usable CPUs,
    with BLAS on one thread, until the block exits.

    While another thread's block is open, or inside an open block, this
    one changes nothing, and its bodies run inline on their thread.
    """
    pool = _pool
    if not pool.lock.acquire(blocking=False):
        yield
        return
    try:
        blas = _blas_threads()
        workers = usable_cpus() - 1
        if blas is None or workers < 1:
            yield
            return
        get, put = blas
        previous = get()
        pool.resize(workers)
        put(1)
        pool.owner = threading.get_ident()
        try:
            yield
        finally:
            pool.owner = None
            put(previous)
    finally:
        pool.lock.release()


def _cuts(n: int, parts: int, groups: np.ndarray | None) -> list[int]:
    cuts = [n * i // parts for i in range(1, parts)]
    if groups is not None:
        cuts = np.searchsorted(groups, groups[cuts], side="left").tolist()
    return sorted({0, n, *cuts})


def run(body: Callable[[int, int], None], n: int,
        groups: np.ndarray | None = None, size: int | None = None) -> None:
    """body(lo, hi) over the rows [0, n): once, or in parts on the pool
    inside this thread's `threads()` block, but not inside a part. `groups`,
    if given, is each row's non-decreasing group id, and a part boundary
    only falls where it changes (unsorted ids run once over all rows).
    `size`, if given, is the element count of a cheap body's arrays, and
    each part then needs `MIN_PART_SIZE` of them too."""
    pool = _pool
    parts = n // MIN_PART_ROWS
    if size is not None:
        parts = min(parts, size // MIN_PART_SIZE)
    owner = threading.get_ident()
    if pool.owner != owner or parts < 2 or (
            groups is not None and np.any(groups[1:] < groups[:-1])):
        body(0, n)
        return
    pool.owner = None  # a run from inside a part, this thread's too, is inline
    try:
        pool.run(body, _cuts(n, min(parts, pool.workers + 1), groups))
    finally:
        pool.owner = owner
