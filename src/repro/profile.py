"""Lightweight per-stage profiling for the monitoring pipeline.

The paper's overhead story (Table 3.4) is a *breakdown*: how many cycles
go to feature extraction, selection+regression, shedding and the queries
themselves.  This module gives the reproduction the same lens at runtime:
:class:`StageProfiler` records wall-clock seconds and simulated cycles per
pipeline stage per bin, and :func:`summarize` turns any latency series
into the ``n/mean/p50/p95/p99/max`` statistics the benchmark reports and
the serve ``/metrics`` endpoint expose.

The profiler is deliberately cheap — two ``perf_counter`` reads and one
dict update per stage per bin — so it stays on permanently; it never
influences results (simulated cycles are read, not charged).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Sequence

__all__ = ["StageProfiler", "peak_rss_mb", "summarize"]


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

    __slots__ = ("calls", "seconds_total", "cycles_total")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds_total = 0.0
        self.cycles_total = 0.0


class StageProfiler:
    """Per-stage wall-time and simulated-cycle accounting, bin by bin.

    The pipeline calls :meth:`record` once per stage per bin and
    :meth:`end_bin` once per bin.  Totals are unbounded (running sums);
    the per-bin latency series kept for percentile reporting is a bounded
    ring of the most recent ``max_recent`` bins, so a long-running daemon
    never grows without bound.
    """

    def __init__(self, max_recent: int = 2048) -> None:
        self.max_recent = int(max_recent)
        self._stages: "OrderedDict[str, _StageStats]" = OrderedDict()
        self.bins = 0
        #: Most recent per-bin total pipeline seconds (for percentiles).
        self._bin_seconds: Deque[float] = deque(maxlen=self.max_recent)

    # ------------------------------------------------------------------
    def record(self, stage: str, seconds: float, cycles: float) -> None:
        """Accumulate one stage execution."""
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = _StageStats()
        stats.calls += 1
        stats.seconds_total += float(seconds)
        stats.cycles_total += float(cycles)

    def end_bin(self, total_seconds: float) -> None:
        """Close one bin (``total_seconds`` = summed stage wall time)."""
        self.bins += 1
        self._bin_seconds.append(float(total_seconds))

    def reset(self) -> None:
        self._stages.clear()
        self.bins = 0
        self._bin_seconds.clear()

    # ------------------------------------------------------------------
    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's totals in (sharded-session reporting).

        Per-bin latency series concatenate up to the ring bound; stage
        totals and bin counts add.
        """
        for name, stats in other._stages.items():
            mine = self._stages.get(name)
            if mine is None:
                mine = self._stages[name] = _StageStats()
            mine.calls += stats.calls
            mine.seconds_total += stats.seconds_total
            mine.cycles_total += stats.cycles_total
        self.bins += other.bins
        self._bin_seconds.extend(other._bin_seconds)

    # ------------------------------------------------------------------
    @property
    def bin_seconds(self) -> Sequence[float]:
        """The retained per-bin total-seconds series (most recent bins)."""
        return list(self._bin_seconds)

    def summary(self) -> Dict:
        """JSON-able snapshot: per-stage totals + per-bin percentiles."""
        stages = {
            name: {
                "calls": stats.calls,
                "seconds_total": stats.seconds_total,
                "cycles_total": stats.cycles_total,
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


def merged_summary(profilers: Sequence[Optional[StageProfiler]]) -> Dict:
    """Summary of several profilers folded together (``None`` entries skipped)."""
    merged = StageProfiler()
    for profiler in profilers:
        if profiler is not None:
            merged.merge(profiler)
    return merged.summary()
