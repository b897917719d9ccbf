"""Deterministic chunked parallelism for sample-based estimators.

Work is cut into fixed logical chunks before any worker pool is involved;
each chunk derives its RNG stream from the master seed and its own chunk
index, and results are reduced in chunk order.  Estimates are therefore
bit-identical for any worker count, including the serial path.  A chunk
task may take its arrays from the per-process arena (_ARENA).
EstimatorResult, the mean and stderr that the sampled estimators reduce
their chunks to, lives here with _mean_result, the one rule that computes
it, so that each engine can return it without importing another.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = ["EstimatorResult", "parallel_chunk_map"]


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    n_samples: int
    seed: int


def _mean_result(values: np.ndarray, seed: int) -> EstimatorResult:
    """Mean and stderr of the samples; equal samples read exactly, with stderr 0."""
    n = values.size
    if float(values.min()) == float(values.max()):
        return EstimatorResult(float(values[0]), 0.0, n, seed)
    sd = float(np.std(values, ddof=1))
    return EstimatorResult(float(np.mean(values)), sd / math.sqrt(n), n, seed)


def _chunk_plan(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """(count, chunk_index) pairs covering range(n_items)."""
    if n_items < 1:
        raise ValueError("n_items must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [(min(chunk_size, n_items - start), index)
            for index, start in enumerate(range(0, n_items, chunk_size))]


def _run_chunk(task, seed: int, count: int, chunk_index: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    return task(rng, count)


def parallel_chunk_map(task, n_items: int, chunk_size: int, seed: int,
                       workers: int | None = None) -> list:
    """Run task(rng, count) over every chunk, in chunk order.

    rng is the chunk's own stream, SeedSequence(seed, spawn_key=(chunk_index,)).
    task must be picklable (a module-level function or functools.partial of
    one) when workers > 1.  workers=None uses os.cpu_count().
    """
    run = partial(_run_chunk, task, seed)
    plan = _chunk_plan(n_items, chunk_size)
    if workers is None or workers <= 0:
        workers = os.cpu_count() or 1
    workers = min(workers, len(plan))
    if workers == 1:
        return [run(count, index) for count, index in plan]
    import multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ctx.Pool(workers) as pool:
        return pool.starmap(run, plan, chunksize=max(1, len(plan) // (4 * workers)))


class _Arena(threading.local):
    """One byte block per process, handed out as a stack of array views.

    A chunk task, or a one-off kernel, opens it with chunk(nbytes), and the
    arrays it takes (a Monte Carlo chunk's levels and upward passes, a
    subset lattice) are views of the block, all freed when the chunk ends.
    So after the first chunk they reuse pages already faulted in, where
    heap arrays are faulted in afresh and trimmed back to the OS every
    chunk.  The block grows to the largest reservation and is held
    for the life of the process (one per thread, so threads never share
    it).  An array that does not fit, or is taken outside a chunk, comes
    from np.empty: correct, just slower.  Chunks do not nest: chunk()
    hands out the whole block again.

    scratch() frees on exit what was taken inside it, so no generator that
    takes arrays may be resumed inside a scratch frame opened outside it.
    Gathers into views use take(..., mode="clip"): the indices are always
    in range, and the default mode="raise" gathers into a temporary first.
    """

    def __init__(self):
        self.block = np.empty(0, np.uint8)
        self.top = 0

    def empty(self, n: int, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = -(-self.top // 64) * 64         # views start on cache-line boundaries
        end = start + n * dtype.itemsize
        if end > self.block.size:
            return np.empty(n, dtype)
        self.top = end
        return self.block[start:end].view(dtype)

    @contextmanager
    def chunk(self, nbytes: int):
        if nbytes > self.block.size:
            self.block = np.empty(0, np.uint8)       # free the old block first
            self.block = np.empty(nbytes, np.uint8)
        self.top = 0
        try:
            yield
        finally:
            self.top = self.block.size

    @contextmanager
    def scratch(self):
        top = self.top
        try:
            yield
        finally:
            self.top = top


_ARENA = _Arena()
