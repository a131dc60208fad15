"""Multi-tenant allocation engine: per-bin cost of the columnar kernels.

The vectorised allocation engine (``repro.core.fairness`` kernels plus
the two-tier tenant allocator in ``repro.core.tenancy``) allocates a bin
from preallocated demand columns.  This benchmark sweeps query count x
tenant count and times the allocation stage alone, exactly as it runs
inside ``LoadSheddingController.plan_arrays``: refresh the prediction
column, then call the flat kernel / ``two_tier_allocate`` with
precomputed tie-break ranks.

The rows are absolute: seconds for ``BINS`` bins and the per-bin latency
percentiles, recorded into ``BENCH_report.json`` for every sweep point.
That the kernels equal the object-per-query reference implementations
(``tests/oracles/allocation.py``) is the test suite's job
(``tests/test_tenancy.py``, up to 500 queries), not a timing's.
"""

import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, record_result

from repro.core.fairness import STRATEGIES, name_ranks
from repro.core.tenancy import TenantAssignment, TenantGroup, TenantRegistry

#: (query count, tenant count) sweep of the allocation stage.  Tenant count 0
#: exercises the flat (untenanted) kernels.
SWEEP = (
    (10, 0),
    (10, 2),
    (100, 0),
    (100, 20),
    (500, 0),
    (500, 2),
    (500, 20),
    (500, 100),
)

#: Bins timed per sweep point (prediction values change every bin, as in a
#: real run where the EWMA/SLR predictors refresh the demand column).
BINS = max(8, int(round(40 * BENCH_SCALE)))


def _make_workload(n_queries, n_tenants, seed):
    """Columns, registry and per-bin prediction series for one sweep point."""
    rng = np.random.default_rng(seed)
    names = [f"q{i:04d}" for i in range(n_queries)]
    mins = np.where(rng.random(n_queries) < 0.3,
                    rng.uniform(0.01, 0.2, n_queries), 0.0)
    base = rng.uniform(1e3, 1e6, n_queries)
    bins = [base * rng.uniform(0.5, 1.5, n_queries) for _ in range(BINS)]
    # Binding capacity: ~30% of the mean bin demand, so the water-fill and
    # the disable rule both do real work every bin.
    capacity = 0.3 * float(np.mean([p.sum() for p in bins]))
    if n_tenants:
        groups = tuple(
            TenantGroup(
                name=f"tenant-{index:03d}",
                queries=tuple(("counter", {"name": member})
                              for member in names[index::n_tenants]),
                weight=float(1.0 + (index % 3)),
                budget_share=(0.9 / n_tenants if index % 4 == 0 else None),
                min_rate=(0.01 if index % 5 == 0 else 0.0),
            )
            for index in range(n_tenants)
        )
        registry = TenantRegistry(groups)
        ids = np.array([registry.slot(registry.declared_tenant_of[name])
                        for name in names], dtype=np.intp)
        mins = np.maximum(
            mins, np.array([registry.min_rate_for(name) for name in names]))
    else:
        registry = None
        ids = None
    return names, mins, bins, capacity, registry, ids


def _columnar_bin(key, names, pred_col, predicted, mins, capacity,
                  assignment, rank):
    """One bin of the engine path, as driven by ``plan_arrays``."""
    pred_col[:] = predicted  # the predictor refresh of the demand column
    if assignment is None:
        return STRATEGIES[key](names, pred_col, mins, capacity, rank=rank)
    return assignment.allocate(key, names, pred_col, mins, capacity,
                               rank=rank)


def _sweep_point(key, n_queries, n_tenants, seed):
    names, mins, bins, capacity, registry, ids = _make_workload(
        n_queries, n_tenants, seed)
    rank = name_ranks(names)
    pred_col = np.empty(n_queries, dtype=np.float64)
    assignment = (TenantAssignment(registry, ids)
                  if registry is not None else None)
    bin_seconds = []
    for predicted in bins:
        start = time.perf_counter()
        allocation = _columnar_bin(key, names, pred_col, predicted, mins,
                                   capacity, assignment, rank)
        bin_seconds.append(time.perf_counter() - start)
        assert 0.0 < allocation.total_cycles <= capacity * (1.0 + 1e-9)
    return bin_seconds


@pytest.mark.benchmark(group="tenants")
def test_tenant_allocation_engine(benchmark):
    """Allocation-stage seconds per sweep point (``mmfs_cpu``)."""
    key = "mmfs_cpu"
    rows = []

    def _run_sweep():
        for n_queries, n_tenants in SWEEP:
            rows.append((n_queries, n_tenants, _sweep_point(
                key, n_queries, n_tenants, seed=17 + n_queries + n_tenants)))
        return rows

    benchmark.pedantic(_run_sweep, rounds=1, iterations=1, warmup_rounds=0)

    print()
    print(f"Allocation stage ({key}), {BINS} bins per point")
    print(f"{'queries':>8} {'tenants':>8} {'seconds':>10} {'ms/bin p50':>11}")
    for n_queries, n_tenants, bin_seconds in rows:
        print(f"{n_queries:>8} {n_tenants:>8} {sum(bin_seconds):>10.4f} "
              f"{1e3 * float(np.median(bin_seconds)):>11.3f}")
        record_result(
            f"tenants_alloc_{n_queries}q_{n_tenants}t", sum(bin_seconds),
            bin_seconds=bin_seconds, queries=n_queries, tenants=n_tenants,
            bins=BINS)
