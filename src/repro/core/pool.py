"""Process-pool sizing and the fork pool of the scenario engine.

:func:`effective_workers` is the one place a requested parallelism is
clamped to the job count and the host's cores; the shard and fleet tiers
size their resident worker pools (:mod:`repro.monitor.workers`) with it.
:func:`fork_pool_map` is the scenario engine's pool (grids of independent
cells): jobs arrive as arguments and results as return values — nothing is
handed over through module state — and the ``fork`` start method is
preferred so workers inherit the parent's memoised traces copy-on-write.

Jobs must be *pure* with respect to the pool: the same job must produce the
same result whether it runs inline or in a worker, which is what lets the
golden tests pin serial/pooled bit-identity.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


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
                  n_workers: int, respect_cores: bool = True
                  ) -> List[_Result]:
    """Map ``fn`` over ``jobs``, sharding across a fork-based process pool.

    Runs serially in-process when the effective pool size is <= 1.  The
    ``fork`` start method is preferred so that workers inherit the parent's
    memoised state copy-on-write; on platforms without ``fork`` the default
    start method is used.
    """
    workers = effective_workers(n_workers, len(jobs), respect_cores)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


__all__ = ["effective_workers", "fork_pool_map"]
