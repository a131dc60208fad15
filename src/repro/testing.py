"""Assertion helpers shared by the test suite and the benchmarks.

The repository pins several execution paths as *bit-identical* (serial vs
pooled, run() vs hand-driven session, in-memory vs out-of-core replay);
they must all mean the same thing by it, so the comparison lives here.
"""

from __future__ import annotations

import numpy as np

#: Per-bin series that must match bit for bit for two executions to count
#: as identical.
IDENTITY_SERIES = ("query_cycles", "mean_rate", "dropped_packets",
                   "predicted_cycles", "total_cycles", "delay")


def assert_results_identical(first, second, label: str = "") -> None:
    """Assert two :class:`ExecutionResult` objects are bit-identical.

    Compares the per-bin accounting series of :data:`IDENTITY_SERIES` with
    exact array equality plus every query log's interval boundaries and
    results.  ``label`` tags the failing assertion (mode, shard count, ...).
    """
    assert len(first.bins) == len(second.bins), label
    for name in IDENTITY_SERIES:
        assert np.array_equal(first.series(name), second.series(name)), \
            (label, name)
    assert set(first.query_logs) == set(second.query_logs), label
    for name, log in first.query_logs.items():
        other = second.query_logs[name]
        assert log.intervals == other.intervals, (label, name)
        assert log.results == other.results, (label, name)

