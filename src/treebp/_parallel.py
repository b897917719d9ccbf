"""Deterministic chunked parallelism for sample-based estimators.

Work is cut into fixed logical chunks before any worker pool is involved;
each chunk derives its RNG stream from the master seed and its own chunk
index, and results are reduced in chunk order.  Estimates are therefore
bit-identical for any worker count, including the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import partial

import numpy as np

__all__ = ["parallel_chunk_map"]


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
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ctx.Pool(workers) as pool:
        return pool.starmap(run, plan, chunksize=max(1, len(plan) // (4 * workers)))
