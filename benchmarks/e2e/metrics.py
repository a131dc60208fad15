"""Metric definitions, their computation from raw repeats, and the checker.

Everything here is a pure function of what the child processes returned, so
the unit tests can drive it with hand-made repeats.  No correctness check
reads a clock.

**Steadiness.**  Repeats run identical deterministic work and host
contention only ever adds time, so each bin's time is taken from its fastest
repeat, and likewise the non-bin part of the timed region (store read,
close).  All timing metrics are computed from those minima;
``bench.noise_ratio`` (median repeat wall / the minima-based wall) says how
far the raw run was from them.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.monitor.metrics import accuracy_from_error, mean_error
from repro.monitor.system import ExecutionResult
from repro.testing import assert_results_identical

from tracer import ROOT, stage_span
from workloads import PROCESSES, SHARDS, Prepared

#: ``(name, unit, better)``; bounds live in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_mean", "1", "higher"),
    ("budget_use_p90", "1", "lower"),
)

#: Spans whose self time is reported as ``<span>_ms_per_bin``.
SELF_MS_PER_BIN = (
    "trace_io.read",
    "packet.select", "packet.hash", "packet.payload", "packet.partition",
    "packet.pack",
    "filters.apply",
    "features.extract", "features.commit",
    "distinct.add", "distinct.estimate", "distinct.merge",
    "prediction.predict", "prediction.observe",
    "shedding.plan", "tenancy.allocate",
    "sampling.sample",
    "queries.update", "queries.shed_load", "queries.flush",
    "sharding.bin_merge",
    "workers.send", "workers.wait",
    "fleet.split",
)
#: Pipeline stages reported inclusively (the StageProfiler's own view).
STAGES = ("interval_flush", "filter", "prediction", "rate_decision",
          "execution", "accounting")
#: Every stage span, for ``pipeline.glue`` (stage code outside any layer).
ALL_STAGES = STAGES + ("admission", "system_overhead")
#: Spans that no ``*_ms_per_bin`` above covers: :func:`per_layer` reports
#: them under other names.
OTHER_SPANS = (
    ROOT, "session.ingest", "session.close", "sharding.ingest",
    "sharding.result_merge", "fleet.federate", "fleet.run", "serve.bin",
    "serve.status", "serve.metrics", "serve.shutdown", "checkpoint.save",
) + tuple(f"pipeline.{stage}" for stage in ALL_STAGES)

#: The headline wall-clock figures.  Demoted from ``END_TO_END``: on this
#: host their ten-seed spread exceeds the 0.25 a bound may be (README,
#: "Demoted timing metrics"), so they are reported without a bound.
TIMING = (
    ("pkts_per_s", "pkt/s", "higher"),
    ("bin_ms_p50", "ms", "lower"),
    ("bin_ms_p90", "ms", "lower"),
)

PER_LAYER = TIMING + tuple(
    [(f"{span}_ms_per_bin", "ms", "lower") for span in SELF_MS_PER_BIN]
    + [(f"pipeline.{stage}_ms_per_bin", "ms", "lower") for stage in STAGES]
    + [
        ("pipeline.glue_ms_per_bin", "ms", "lower"),
        ("filters.apply_calls_per_bin", "count", "lower"),
        ("features.extract_calls_per_bin", "count", "lower"),
        ("features.shared_read_ratio", "1", "higher"),
        ("features.forks_per_bin", "count", "lower"),
        ("prediction.calls_per_bin", "count", "lower"),
        ("sampling.calls_per_bin", "count", "lower"),
        ("session.ingest_self_ms_per_bin", "ms", "lower"),
        ("session.close_ms", "ms", "lower"),
        ("session.accuracy_min", "1", "higher"),
        ("session.shed_rate_mean", "1", "lower"),
        ("capture.drop_fraction", "1", "lower"),
        ("sharding.ingest_self_ms_per_bin", "ms", "lower"),
        ("sharding.result_merge_ms", "ms", "lower"),
        ("sharding.shard_skew", "1", "lower"),
        ("workers.start_ms", "ms", "lower"),
        ("workers.child_busy_ms_per_bin", "ms", "lower"),
        ("workers.transport_ms_per_bin", "ms", "lower"),
        ("workers.shm_bytes_per_bin", "B", "lower"),
        ("fleet.node_run_s", "s", "lower"),
        ("fleet.pool_overhead_s", "s", "lower"),
        ("fleet.federate_ms", "ms", "lower"),
        ("fleet.node_skew", "1", "lower"),
        ("fleet.straggler_ms_p90", "ms", "lower"),
        ("fleet.single_node_s", "s", "lower"),
        ("serve.hop_ms_per_bin", "ms", "lower"),
        ("serve.status_ms_p50", "ms", "lower"),
        ("serve.metrics_ms_p50", "ms", "lower"),
        ("serve.shutdown_ms", "ms", "lower"),
        ("checkpoint.save_ms_p50", "ms", "lower"),
        ("checkpoint.restore_ms", "ms", "lower"),
        ("checkpoint.mb", "MB", "lower"),
        ("tracer.overhead_share", "1", "lower"),
        ("tracer.unattributed_share", "1", "lower"),
        ("tracer.self_sum_share", "1", "higher"),
        ("bench.noise_ratio", "1", "lower"),
        ("host.calib_ms", "ms", "lower"),
    ])

#: Per-layer metrics read from the program's StageProfiler where the stages
#: ran in forked children (their spans stay there).
PROFILER_SOURCED = tuple(f"pipeline.{stage}_ms_per_bin" for stage in STAGES) \
    + ("workers.child_busy_ms_per_bin",)


_CALIBRATION_VECTOR = np.arange(4096.0)


def host_calib_ms() -> float:
    """A fixed NumPy kernel, best of 5: how fast this host can be.

    It only identifies the host (``compare.py`` refuses reports from hosts
    too far apart); no metric is scaled by it.
    """
    def kernel() -> float:
        started = time.perf_counter()
        for _ in range(300):
            np.sort(np.sin(_CALIBRATION_VECTOR) * 2.0 + 1.0).sum()
        return time.perf_counter() - started
    return 1e3 * min(kernel() for _ in range(5))


def accuracy_by_query(result: ExecutionResult, prepared: Prepared
                      ) -> Dict[str, float]:
    """1 - mean relative error per query instance, by the query's *kind*.

    ``runner.accuracy_by_query`` looks the error function up by instance
    name and raises on renamed instances (``q00``); the specs know the kind.
    """
    return {name: accuracy_from_error(mean_error(
                prepared.kinds[name], log, prepared.reference.query_logs[name]))
            for name, log in result.query_logs.items()}


def timing(prepared: Prepared, outs: Sequence[Dict]) -> Dict[str, float]:
    """The ``TIMING`` figures of untraced repeats, and the raw ones beside.

    Each bin's time is its fastest repeat, and so is the non-bin part of
    the timed region; the wall is what those minima add up to.
    """
    if prepared.workload.tier == "fleet":
        # A fleet bin is as slow as its slowest node (``bin_latency``), and
        # each node's bin is its fastest repeat.  Fleet bins overlap on the
        # pool, so they do not add up to the wall: the fastest whole run
        # stands in.
        bin_ms = 1e3 * np.min([out["node_bin_s"] for out in outs],
                              axis=0).max(axis=0)
        wall = min(out["region_s"] for out in outs)
    else:
        bin_min = np.min([out["bin_s"] for out in outs], axis=0)
        bin_ms = 1e3 * bin_min
        wall = float(bin_min.sum()) + min(
            out["region_s"] - sum(out["bin_s"]) for out in outs)
    raw_wall = statistics.median(out["region_s"] for out in outs)
    raw_bin_ms = 1e3 * np.median([out["bin_s"] for out in outs], axis=0)
    return {
        "pkts_per_s": prepared.packets / wall,
        "bin_ms_p50": float(np.median(bin_ms)),
        "bin_ms_p90": float(np.quantile(bin_ms, 0.9)),
        "bench.noise_ratio": raw_wall / wall,
        "raw.pkts_per_s": prepared.packets / raw_wall,
        "raw.bin_ms_p50": float(np.median(raw_bin_ms)),
        "raw.bin_ms_p90": float(np.quantile(raw_bin_ms, 0.9)),
    }


def end_to_end(prepared: Prepared, outs: Sequence[Dict]) -> Dict[str, float]:
    """The bounded end-to-end metrics."""
    result = outs[0]["result"]
    budget_use = result.series("total_cycles") / \
        result.series("available_cycles")
    return {
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "peak_rss_mb": statistics.median(out["rss_mb"] for out in outs),
        "accuracy_mean": float(np.mean(list(
            accuracy_by_query(result, prepared).values()))),
        "budget_use_p90": float(np.quantile(budget_use, 0.9)),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from the traced repeats
# ----------------------------------------------------------------------
def stage_seconds(out: Dict) -> Dict[str, float]:
    """The program's own ``StageProfiler`` totals, keyed by span name."""
    return {stage_span(cls): totals["seconds_total"]
            for cls, totals in out["profile"]["profile"]["stages"].items()}


def median_spans(traced: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name, the median over traced repeats of each total."""
    names = {name for out in traced for name in out["spans"]}
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    return {name: {key: statistics.median(
                       out["spans"].get(name, zero)[key] for out in traced)
                   for key in zero}
            for name in names}


def per_layer(prepared: Prepared, untraced: Sequence[Dict],
              traced: Sequence[Dict], single_node_s: float = 0.0
              ) -> Dict[str, float]:
    """Every per-layer metric; a layer that did not run reports 0.

    The ``TIMING`` figures come from the run's untraced repeats, everything
    else from its traced ones.
    """
    tier, bins = prepared.workload.tier, prepared.bins
    spans = median_spans(traced)
    untraced_timing = timing(prepared, untraced)
    first = traced[0]
    result = first["result"]
    stage_s = stage_seconds(first)

    def self_ms(*names: str) -> float:
        return 1e3 * sum(spans[name]["self_s"] for name in names
                         if name in spans)

    def inclusive_ms(name: str) -> float:
        return 1e3 * spans[name]["inclusive_s"] if name in spans else 0.0

    def calls(name: str) -> float:
        return spans[name]["calls"] if name in spans else 0

    def p50_ms(name: str) -> float:
        values = [s for out in traced for s in out["durations"].get(name, ())]
        return 1e3 * statistics.median(values) if values else 0.0

    values = {name: untraced_timing[name] for name, _, _ in TIMING}
    values.update({f"{span}_ms_per_bin": self_ms(span) / bins
                   for span in SELF_MS_PER_BIN})
    for stage in STAGES:
        # Child-side stages come from the StageProfiler: CPU-ms per stream
        # bin, all partitions summed.
        values[f"pipeline.{stage}_ms_per_bin"] = (
            1e3 * stage_s.get(f"pipeline.{stage}", 0.0)
            if tier in ("workers", "fleet")
            else inclusive_ms(f"pipeline.{stage}")) / bins
    sharing = first["profile"]["feature_sharing"]
    reads = sharing.get("shared_reads", 0) + sharing.get("computed_reads", 0)
    accuracy = accuracy_by_query(result, prepared)
    child_busy_ms = 1e3 * sum(stage_s.values()) / bins
    round_trip_ms = self_ms("packet.pack", "workers.send",
                            "workers.wait") / bins
    values.update({
        "pipeline.glue_ms_per_bin": self_ms(
            *(f"pipeline.{stage}" for stage in ALL_STAGES)) / bins,
        "filters.apply_calls_per_bin": calls("filters.apply") / bins,
        "features.extract_calls_per_bin": calls("features.extract") / bins,
        "features.shared_read_ratio":
            sharing.get("shared_reads", 0) / reads if reads else 0.0,
        "features.forks_per_bin": sharing.get("forks", 0) / bins,
        "prediction.calls_per_bin": calls("prediction.predict") / bins,
        "sampling.calls_per_bin": calls("sampling.sample") / bins,
        "session.ingest_self_ms_per_bin": self_ms("session.ingest") / bins,
        "session.close_ms": self_ms("session.close"),
        "session.accuracy_min": min(accuracy.values()),
        "session.shed_rate_mean": 1.0 - result.mean_sampling_rate(),
        "capture.drop_fraction": result.drop_fraction,
        "sharding.ingest_self_ms_per_bin": self_ms("sharding.ingest") / bins,
        "sharding.result_merge_ms": self_ms("sharding.result_merge",
                                            "fleet.federate"),
        "sharding.shard_skew": 0.0, "workers.start_ms": 0.0,
        "workers.child_busy_ms_per_bin": 0.0,
        "workers.transport_ms_per_bin": 0.0,
        "workers.shm_bytes_per_bin": statistics.median(
            out["counters"].get("shm_bytes", 0.0) for out in traced) / bins,
        "fleet.node_run_s": 0.0, "fleet.pool_overhead_s": 0.0,
        "fleet.federate_ms": inclusive_ms("fleet.federate"),
        "fleet.node_skew": 0.0, "fleet.straggler_ms_p90": 0.0,
        "fleet.single_node_s": single_node_s,
        "serve.hop_ms_per_bin": self_ms("serve.bin") / bins,
        "serve.status_ms_p50": p50_ms("serve.status"),
        "serve.metrics_ms_p50": p50_ms("serve.metrics"),
        "serve.shutdown_ms": self_ms("serve.shutdown"),
        "checkpoint.save_ms_p50": p50_ms("checkpoint.save"),
        "checkpoint.restore_ms": 1e3 * statistics.median(
            float(out.get("restore_s", 0.0)) for out in traced),
        "checkpoint.mb": first.get("checkpoint_mb", 0.0),
        # Like with like: median untraced repeat against median traced one.
        "tracer.overhead_share":
            1.0 - statistics.median(out["region_s"] for out in untraced)
            / statistics.median(out["region_s"] for out in traced),
        "tracer.unattributed_share":
            spans[ROOT]["self_s"] / spans[ROOT]["inclusive_s"],
        "tracer.self_sum_share":
            sum(span["self_s"] for span in spans.values())
            / spans[ROOT]["inclusive_s"],
        "bench.noise_ratio": untraced_timing["bench.noise_ratio"],
        "host.calib_ms": host_calib_ms(),
    })
    if tier == "workers":
        packets = np.array(first["shard_packets"], dtype=np.float64)
        values.update({
            "sharding.shard_skew": float(packets.max(axis=1).sum()
                                         / packets.mean(axis=1).sum()),
            "workers.start_ms": 1e3 * statistics.median(
                float(out["workers_start_s"]) for out in traced),
            # Mean stage time of one shard for one bin; the parent's round
            # trip minus this is skew, (un)packing, pickling and the pipe.
            "workers.child_busy_ms_per_bin": child_busy_ms / SHARDS,
            "workers.transport_ms_per_bin":
                round_trip_ms - child_busy_ms / SHARDS,
        })
    if tier == "fleet":
        node_s = np.asarray(first["node_bin_s"])
        node_run_s = statistics.median(
            float(np.sum(out["node_bin_s"])) for out in traced)
        values.update({
            "fleet.node_run_s": node_run_s,
            # The pool's wall beyond a perfect 2-way packing of node bins:
            # fork, per-node session build, result pickling, idle tail.
            "fleet.pool_overhead_s":
                spans["fleet.run"]["self_s"] - node_run_s / PROCESSES,
            "fleet.node_skew": float(node_s.sum(axis=1).max()
                                     / node_s.sum(axis=1).mean()),
            "fleet.straggler_ms_p90": 1e3 * float(np.quantile(
                node_s.max(axis=0) - node_s.mean(axis=0), 0.9)),
        })
    return values


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checker:
    """Counts operations attempted and failed for the contract's JSON line.

    ``attempted`` = bins offered + checks (each HTTP op is one check: it
    must return 2xx).  A failed check fails itself and, once, the bins of
    the repeat it belongs to.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._failed_repeats: set = set()

    def offer(self, operations: int) -> None:
        self.attempted += int(operations)

    def check(self, label: str, ok: bool, repeat: Optional[int] = None,
              bins: int = 0) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.failures.append(label if repeat is None
                             else f"repeat {repeat}: {label}")
        if repeat is not None and repeat not in self._failed_repeats:
            self._failed_repeats.add(repeat)
            self.failed += bins

    @property
    def correct(self) -> bool:
        return self.failed == 0


def identical(first: ExecutionResult, second: ExecutionResult) -> bool:
    """Bit-identity of two executions (``repro.testing``'s definition)."""
    try:
        assert_results_identical(first, second)
    except AssertionError:
        return False
    return True


def verify(prepared: Prepared, outs: Sequence[Dict]) -> Checker:
    """Check every repeat (the first ones are always untraced)."""
    checker = Checker()
    tier, bins = prepared.workload.tier, prepared.bins
    first = outs[0]["result"]
    for index, out in enumerate(outs):
        result = out["result"]
        checker.offer(bins)

        def check(label: str, ok: bool) -> None:
            checker.check(label, ok, repeat=index, bins=bins)

        check("packets conserve against the store",
              result.total_packets == prepared.packets)
        check("bins conserve against the store", len(result.bins) == bins)
        if index:
            check("result identical to the first repeat",
                  identical(first, result))
        if prepared.oracle is not None:
            target = out["node_results"][0] if tier == "fleet" else result
            check("result identical to the oracle",
                  identical(prepared.oracle, target))
        if tier == "session":
            check("interval boundaries match the reference run", all(
                log.intervals == prepared.reference.query_logs[name].intervals
                for name, log in result.query_logs.items()))
        if tier == "fleet":
            check("federated result is the merge of the node results",
                  identical(ExecutionResult.merge(out["node_results"]),
                            result))
        if tier == "serve":
            check("last checkpoint restores at the final bin",
                  out["restored_bins"] == bins)
            for path, status, _ in out["http"]:
                checker.check(f"GET {path} returned {status}",
                              200 <= status < 300)
    return checker
