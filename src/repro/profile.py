"""Lightweight per-stage profiling for the monitoring pipeline.

The paper's overhead story (Table 3.4) is a *breakdown*: how many cycles
go to feature extraction, selection+regression, shedding and the queries
themselves.  In the reproduction those cycles are the columns of a run's
bin records; this module adds the wall-clock side: :class:`StageProfiler`
records the seconds each pipeline stage takes per bin, and
:func:`summarize` turns any latency series into the
``n/mean/p50/p95/p99/max`` statistics the benchmark reports and the serve
``/metrics`` endpoint expose.  :func:`fold_metrics` is the one
fold of several sessions' metrics documents into their owner's — a
sharded node's over its shards, a fleet's over its nodes.

The profiler is deliberately cheap — two ``perf_counter`` reads and one
dict update per stage per bin — so it stays on permanently; it never
influences results.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Sequence

__all__ = ["StageProfiler", "fold_metrics", "peak_rss_mb", "summarize"]

#: How many of the most recent bins a per-bin latency series keeps.
RECENT_BINS = 2048
#: The per-stage totals a metrics document carries, which add up over parts.
_TOTALS = ("calls", "seconds_total")


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB.

    ``VmHWM`` of ``/proc/self/status``; where there is no ``/proc``,
    ``ru_maxrss`` (which on Linux would also count what the process that
    spawned this one had resident before ``exec``).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics (count, mean, p50/p95/p99, max) of a series.

    Percentiles use the nearest-rank-on-sorted-values convention: index
    ``round(q/100 * (n - 1))`` of the sorted series, so every reported
    value is one actually observed.  An empty series yields all zeros.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 0:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "max": 0.0}

    def pct(q: float) -> float:
        return data[int(round(q / 100.0 * (n - 1)))]

    return {
        "n": n,
        "mean": sum(data) / n,
        "p50": pct(50.0),
        "p95": pct(95.0),
        "p99": pct(99.0),
        "max": data[-1],
    }


class _StageStats:
    """Running totals for one pipeline stage."""

    __slots__ = ("calls", "seconds_total")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds_total = 0.0


class StageProfiler:
    """Per-stage wall-time accounting, bin by bin.

    The pipeline calls :meth:`record` once per stage per bin and
    :meth:`end_bin` once per bin.  Totals are unbounded (running sums);
    the per-bin latency series kept for percentile reporting is a bounded
    ring of the most recent ``max_recent`` bins, so a long-running daemon
    never grows without bound.
    """

    def __init__(self, max_recent: int = RECENT_BINS) -> None:
        self.max_recent = int(max_recent)
        self._stages: "OrderedDict[str, _StageStats]" = OrderedDict()
        self.bins = 0
        #: Most recent per-bin total pipeline seconds (for percentiles).
        self._bin_seconds: Deque[float] = deque(maxlen=self.max_recent)

    # ------------------------------------------------------------------
    def record(self, stage: str, seconds: float) -> None:
        """Accumulate one stage execution."""
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = _StageStats()
        stats.calls += 1
        stats.seconds_total += float(seconds)

    def end_bin(self, total_seconds: float) -> None:
        """Close one bin (``total_seconds`` = summed stage wall time)."""
        self.bins += 1
        self._bin_seconds.append(float(total_seconds))

    def reset(self) -> None:
        self._stages.clear()
        self.bins = 0
        self._bin_seconds.clear()

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """JSON-able snapshot: per-stage totals + per-bin percentiles."""
        stages = {
            name: {
                "calls": stats.calls,
                "seconds_total": stats.seconds_total,
                "mean_seconds": (stats.seconds_total / stats.calls
                                 if stats.calls else 0.0),
            }
            for name, stats in self._stages.items()
        }
        return {
            "bins": self.bins,
            "stages": stages,
            "bin_seconds": summarize(self._bin_seconds),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StageProfiler(bins={self.bins}, "
                f"stages={list(self._stages)})")


def fold_metrics(documents: Sequence[Dict], bin_seconds: Sequence[float],
                 result) -> Dict:
    """One owner's metrics document, folded from its parts' documents.

    The parts are a node's shards or a fleet's nodes: each sees every bin,
    so the owner's bin count is one part's, and each stage's ``calls`` /
    ``seconds_total`` and every ``feature_sharing`` counter add up over
    the parts (each stage's mean recomputes from the sums).  What only the owner knows it hands in: ``bin_seconds``, its
    own per-bin wall series — the slowest part's time per bin, since a bin
    is done when its last part is — and ``result``, the
    :class:`~repro.monitor.system.ExecutionResult` it folds the parts'
    deliveries into, which holds the tenant totals (a stepped part folds
    nothing, so its own are empty).
    """
    first = documents[0]
    stages: Dict[str, Dict[str, float]] = {}
    sharing: Dict[str, int] = {}
    for document in documents:
        for stage, totals in document["profile"]["stages"].items():
            folded = stages.setdefault(stage, dict.fromkeys(_TOTALS, 0))
            for key in _TOTALS:
                folded[key] += totals[key]
        for key, value in document["feature_sharing"].items():
            sharing[key] = sharing.get(key, 0) + value
    for folded in stages.values():
        folded["mean_seconds"] = (folded["seconds_total"] / folded["calls"]
                                  if folded["calls"] else 0.0)
    metrics = {
        "profile": {
            "bins": first["profile"]["bins"],
            "stages": stages,
            "bin_seconds": summarize(bin_seconds),
        },
        "feature_sharing": sharing,
    }
    if "tenants" in first:
        metrics["tenants"] = {"count": first["tenants"]["count"],
                              "query_cycles": result.tenant_cycle_totals()}
    return metrics
