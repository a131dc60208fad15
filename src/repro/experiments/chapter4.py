"""Chapter 4 experiments: the load shedding system.

These experiments exercise the full monitoring system under overload and
compare the paper's predictive scheme against the ``original`` (drop when the
capture buffer fills) and ``reactive`` (SEDA-like) baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..monitor.packet import PacketTrace
from . import runner, scenarios

#: Query set of the Chapter 4 evaluation (the seven of Table 3.2).
CHAPTER4_QUERIES = scenarios.VALIDATION_SEVEN


def _three_mode_runs(trace: PacketTrace, overload: float,
                     query_names: Sequence[str]) -> Dict[str, object]:
    """Run predictive / original / reactive at the same overload level."""
    base_capacity, reference = runner.calibrate_capacity(query_names, trace)
    capacity = base_capacity * (1.0 - overload)
    config = runner.system_config(queries=query_names, strategy="eq_srates",
                                  cycles_per_second=capacity)
    runs = {mode: config.replace(mode=mode).build().run(trace)
            for mode in ("predictive", "original", "reactive")}
    return {"reference": reference, "runs": runs,
            "capacity_per_second": capacity,
            "base_capacity_per_second": base_capacity}


def figure_4_1_cpu_cdf(scale: float = 1.0, overload: float = 0.5,
                       trace: Optional[PacketTrace] = None,
                       query_names: Sequence[str] = CHAPTER4_QUERIES,
                       ) -> Dict[str, object]:
    """CDF of per-batch CPU usage for the three load shedding methods.

    The predictive system should concentrate its service time just below the
    per-bin limit, while original/reactive regularly exceed it.
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    bundle = _three_mode_runs(trace, overload, query_names)
    limit = bundle["capacity_per_second"] * runner.TIME_BIN
    cdfs = {}
    exceed_prob = {}
    for mode, result in bundle["runs"].items():
        cycles = result.cycles_per_bin()
        cdfs[mode] = np.sort(cycles)
        exceed_prob[mode] = float((cycles > limit).mean()) if len(cycles) else 0.0
    return {
        "cpu_limit_per_batch": limit,
        "sorted_cycles": cdfs,
        "probability_exceeding_limit": exceed_prob,
        "bundle": bundle,
    }


def figure_4_2_drops(scale: float = 1.0, overload: float = 0.5,
                     trace: Optional[PacketTrace] = None,
                     query_names: Sequence[str] = CHAPTER4_QUERIES,
                     bundle: Optional[Dict[str, object]] = None,
                     ) -> Dict[str, object]:
    """Link load, uncontrolled drops and unsampled packets per method."""
    if bundle is None:
        if trace is None:
            trace = scenarios.payload_trace(scale=scale)
        bundle = _three_mode_runs(trace, overload, query_names)
    series = {}
    totals = {}
    for mode, result in bundle["runs"].items():
        series[mode] = {
            "incoming_packets": result.series("incoming_packets"),
            "dropped_packets": result.series("dropped_packets"),
            "unsampled_packets": result.series("unsampled_packets"),
        }
        totals[mode] = {
            "total_packets": result.total_packets,
            "dropped_packets": result.dropped_packets,
            "drop_fraction": result.drop_fraction,
            "unsampled_packets": result.unsampled_packets,
        }
    return {"series": series, "totals": totals, "bundle": bundle}


def table_4_1_accuracy_by_method(scale: float = 1.0, overload: float = 0.5,
                                 trace: Optional[PacketTrace] = None,
                                 query_names: Sequence[str] = CHAPTER4_QUERIES,
                                 bundle: Optional[Dict[str, object]] = None,
                                 ) -> Dict[str, object]:
    """Accuracy error per query for predictive / original / reactive.

    Only the sampling-robust queries are compared (Table 4.1); trace and
    pattern-search have no un-sampling procedure and are excluded, exactly as
    in the paper.
    """
    if bundle is None:
        if trace is None:
            trace = scenarios.payload_trace(scale=scale)
        bundle = _three_mode_runs(trace, overload, query_names)
    reference = bundle["reference"]
    robust = [name for name in query_names
              if name in scenarios.SAMPLING_ROBUST_FIVE]
    rows = []
    mean_error = {}
    for mode, result in bundle["runs"].items():
        errors = runner.error_by_query(result, reference)
        mean_error[mode] = float(np.mean([errors[name] for name in robust]))
    for name in robust:
        row = {"query": name}
        for mode, result in bundle["runs"].items():
            row[mode] = runner.error_by_query(result, reference)[name]
        rows.append(row)
    return {"rows": rows, "mean_error": mean_error, "bundle": bundle}


def figure_4_4_cpu_usage(scale: float = 1.0, overload: float = 0.5,
                         trace: Optional[PacketTrace] = None,
                         query_names: Sequence[str] = CHAPTER4_QUERIES,
                         ) -> Dict[str, object]:
    """CPU usage after load shedding versus predicted demand (predictive run)."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    base_capacity, reference = runner.calibrate_capacity(query_names, trace)
    result = runner.system_config(
        queries=query_names, mode="predictive", strategy="eq_srates",
        cycles_per_second=base_capacity * (1.0 - overload)).build().run(trace)
    return {
        "series": {
            "system_overhead": result.series("system_overhead"),
            "shedding_overhead": result.series("shedding_overhead") +
            result.series("prediction_overhead"),
            "query_cycles": result.series("query_cycles"),
            "predicted_cycles": result.series("predicted_cycles"),
            "total_cycles": result.cycles_per_bin(),
        },
        "cpu_limit_per_batch": result.budget.per_bin,
        "dropped_packets": result.dropped_packets,
        "mean_sampling_rate": result.mean_sampling_rate(),
    }


def figure_4_5_syn_flood(scale: float = 1.0,
                         trace: Optional[PacketTrace] = None,
                         capacity_margin: float = 1.3,
                         ) -> Dict[str, object]:
    """Flows query under a SYN flood, with and without load shedding.

    The capacity is set to ``capacity_margin`` times the query's demand on
    normal traffic, so the anomaly (and only the anomaly) overloads the
    system, reproducing the setting of Figures 4.5/4.6.
    """
    if trace is None:
        trace = scenarios.syn_flood_trace(scale=scale)
    query_names = ("flows",)
    # Calibrate on the anomaly-free part by using the median, which is robust
    # to the anomalous bins.
    _, reference = runner.calibrate_capacity(query_names, trace)
    per_bin = reference.cycles_per_bin()
    normal_demand = float(np.median(per_bin))
    capacity = normal_demand * capacity_margin / runner.TIME_BIN

    config = runner.system_config(queries=query_names, strategy="eq_srates",
                                  cycles_per_second=capacity)
    shedding = config.build().run(trace)
    no_shedding = config.replace(mode="original").build().run(trace)
    flow_error_shed = runner.error_by_query(shedding, reference)["flows"]
    flow_error_none = runner.error_by_query(no_shedding, reference)["flows"]
    return {
        "cpu_threshold_per_batch": capacity * runner.TIME_BIN,
        "series": {
            "demand_cycles": per_bin,
            "with_shedding_cycles": shedding.cycles_per_bin(),
            "without_shedding_cycles": no_shedding.cycles_per_bin(),
        },
        "flows_error_with_shedding": flow_error_shed,
        "flows_error_without_shedding": flow_error_none,
        "dropped_packets_with_shedding": shedding.dropped_packets,
        "dropped_packets_without_shedding": no_shedding.dropped_packets,
    }
