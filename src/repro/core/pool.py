"""Shared fork-pool machinery for CPU-bound fan-out.

Both the parallel scenario engine (grids of independent cells) and the
fleet runner (one job per node over a pre-partitioned stream) shard pure,
CPU-bound job functions across a process pool.  The mechanics are identical
— clamp the pool to the host's cores, prefer the ``fork`` start method so
workers inherit memoised traces / pre-partitioned batches copy-on-write,
fall back to serial execution when a pool cannot help — so they live here
once.

Jobs must be *pure* with respect to the pool: the same job must produce the
same result whether it runs inline or in a worker, which is what lets the
golden tests pin serial/pooled bit-identity.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence, TypeVar

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


@contextmanager
def pool_state(state: dict, **values) -> Iterator[dict]:
    """Populate a module-level pre-fork state dict, *guaranteed* cleared.

    Fork-inherited job functions read their inputs from a module global that
    the caller fills just before the pool map.  That handoff must not leak:
    if a worker raises, the parent would otherwise keep (and every later
    fork would inherit) arbitrarily large state — e.g. a whole pre-
    partitioned stream.  Using this context manager makes clearing
    exception-safe by construction::

        with pool_state(_POOL_STATE, slices=slices, configs=configs):
            results = fork_pool_map(job, jobs, n_workers)
    """
    state.update(values)
    try:
        yield state
    finally:
        state.clear()


def effective_workers(n_workers: int, n_jobs: int,
                      respect_cores: bool = True) -> int:
    """Pool size actually worth using for ``n_jobs`` CPU-bound jobs.

    A pool wider than the job list idles; a pool wider than the core count
    only adds fork and IPC overhead, so the requested size is clamped to the
    host unless the caller opts out (``respect_cores=False``, e.g. to
    exercise the fork path on a single-core machine).
    """
    workers = min(int(n_workers), int(n_jobs))
    if respect_cores:
        workers = min(workers, os.cpu_count() or 1)
    return workers


def fork_pool_map(fn: Callable[[_Job], _Result], jobs: Sequence[_Job],
                  n_workers: int, respect_cores: bool = True,
                  require_fork: bool = False) -> List[_Result]:
    """Map ``fn`` over ``jobs``, sharding across a fork-based process pool.

    Runs serially in-process when the effective pool size is <= 1.  The
    ``fork`` start method is preferred so that workers inherit the parent's
    memoised state copy-on-write; on platforms without ``fork`` the default
    start method is used unless ``require_fork`` is set, in which case the
    jobs run serially instead (for job functions that read parent globals
    populated just before the map, which a spawned worker would not see).
    """
    workers = effective_workers(n_workers, len(jobs), respect_cores)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        if require_fork:
            return [fn(job) for job in jobs]
        context = None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


__all__ = ["effective_workers", "fork_pool_map", "pool_state"]
