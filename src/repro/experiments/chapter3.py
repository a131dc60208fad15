"""Chapter 3 experiments: the prediction system.

Every public function regenerates one table or figure of the prediction
chapter.  All of them are built on :func:`repro.experiments.runner.collect_observations`:
the (features, cycles) pairs of a query on a trace are collected once and then
replayed against whatever predictor configuration the experiment sweeps,
which keeps even the parameter sweeps cheap.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.fcbf import selection_cost
from ..core.prediction import (EWMAPredictor, MLRPredictor, SLRPredictor)
from ..monitor.packet import PacketTrace
from ..queries import VALIDATION_SEVEN, make_query
from . import runner, scenarios


def _observations_for(query_names: Sequence[str], trace: PacketTrace
                      ) -> Dict[str, runner.QueryObservations]:
    return {name: runner.collect_observations(make_query(name), trace)
            for name in query_names}


# ----------------------------------------------------------------------
# Figure 3.1 — why a single volume metric is not enough
# ----------------------------------------------------------------------
def figure_3_1_unknown_query_anomaly(scale: float = 1.0,
                                     trace: Optional[PacketTrace] = None
                                     ) -> Dict[str, object]:
    """CPU usage of the flows query versus packets / bytes / flows over time.

    During the injected flow-count anomaly the packet and byte series stay
    roughly flat while the CPU usage tracks the number of 5-tuple flows —
    the observation motivating feature-based prediction.
    """
    if trace is None:
        trace = scenarios.flow_anomaly_trace(scale=scale)
    observations = runner.collect_observations(make_query("flows"), trace)
    packets = np.array([f["packets"] for f in observations.features])
    byte_counts = np.array([f["bytes"] for f in observations.features])
    flows = np.array([f["five_tuple_unique"] for f in observations.features])
    cycles = observations.cycles_array()

    def corr(a: np.ndarray, b: np.ndarray) -> float:
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    return {
        "series": {
            "cycles": cycles,
            "packets": packets,
            "bytes": byte_counts,
            "five_tuple_flows": flows,
        },
        "correlation_with_cycles": {
            "packets": corr(packets, cycles),
            "bytes": corr(byte_counts, cycles),
            "five_tuple_flows": corr(flows, cycles),
        },
    }


# ----------------------------------------------------------------------
# Figures 3.3 / 3.4 — SLR versus MLR for the flows query
# ----------------------------------------------------------------------
def figure_3_4_slr_vs_mlr(scale: float = 1.0,
                          trace: Optional[PacketTrace] = None
                          ) -> Dict[str, object]:
    """Relative prediction error of SLR (packets) versus MLR (flows query)."""
    if trace is None:
        trace = scenarios.header_trace(scale=scale)
    observations = runner.collect_observations(make_query("flows"), trace)
    slr = runner.evaluate_predictor(SLRPredictor(feature="packets"), observations)
    mlr = runner.evaluate_predictor(MLRPredictor(), observations)
    return {
        "slr_error_series": slr.series(),
        "mlr_error_series": mlr.series(),
        "slr_mean_error": slr.mean,
        "mlr_mean_error": mlr.mean,
    }


# ----------------------------------------------------------------------
# Figures 3.5 / 3.6 — history length and FCBF threshold sweeps
# ----------------------------------------------------------------------
def figure_3_5_parameter_sweep(
    scale: float = 1.0,
    histories: Sequence[int] = (10, 30, 60, 120),
    thresholds: Sequence[float] = (0.0, 0.3, 0.6, 0.8),
    query_names: Sequence[str] = ("counter", "flows", "top-k", "trace"),
    trace: Optional[PacketTrace] = None,
) -> Dict[str, object]:
    """Prediction error and cost versus MLR history and FCBF threshold."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    observations = _observations_for(query_names, trace)

    history_rows: List[Dict[str, float]] = []
    for history in histories:
        errors, costs = [], []
        for name in query_names:
            predictor = MLRPredictor(history=history)
            tracker = runner.evaluate_predictor(predictor, observations[name])
            errors.append(tracker.mean)
            costs.append(predictor.overhead_cycles)
        history_rows.append({
            "history": float(history),
            "mean_error": float(np.mean(errors)),
            "mean_cost_cycles": float(np.mean(costs)),
        })

    threshold_rows: List[Dict[str, float]] = []
    per_query_threshold: Dict[str, Dict[float, float]] = {n: {} for n in query_names}
    for threshold in thresholds:
        errors, costs = [], []
        for name in query_names:
            predictor = MLRPredictor(fcbf_threshold=threshold)
            tracker = runner.evaluate_predictor(predictor, observations[name])
            errors.append(tracker.mean)
            costs.append(predictor.overhead_cycles)
            per_query_threshold[name][float(threshold)] = tracker.mean
        threshold_rows.append({
            "threshold": float(threshold),
            "mean_error": float(np.mean(errors)),
            "mean_cost_cycles": float(np.mean(costs)),
        })
    return {
        "history_sweep": history_rows,
        "threshold_sweep": threshold_rows,
        "per_query_threshold_error": per_query_threshold,
    }


# ----------------------------------------------------------------------
# Figures 3.7 / 3.8 and Table 3.2 — prediction error per trace and query
# ----------------------------------------------------------------------
def figure_3_7_error_over_time(scale: float = 1.0,
                               query_names: Sequence[str] = VALIDATION_SEVEN,
                               traces: Optional[Dict[str, PacketTrace]] = None,
                               ) -> Dict[str, object]:
    """Average and maximum MLR+FCBF prediction error over time per trace."""
    if traces is None:
        traces = {
            "CESCA-I": scenarios.header_trace(scale=scale),
            "CESCA-II": scenarios.payload_trace(scale=scale),
        }
        traces.update(scenarios.backbone_traces(scale=scale))
    per_trace: Dict[str, Dict[str, object]] = {}
    for trace_name, trace in traces.items():
        observations = _observations_for(query_names, trace)
        error_matrix = []
        for name in query_names:
            tracker = runner.evaluate_predictor(MLRPredictor(),
                                                observations[name])
            error_matrix.append(tracker.series())
        length = min(len(series) for series in error_matrix)
        stacked = np.vstack([series[:length] for series in error_matrix])
        per_trace[trace_name] = {
            "average_error_series": stacked.mean(axis=0),
            "max_error_series": stacked.max(axis=0),
            "average_error": float(stacked.mean()),
            "max_error": float(stacked.max()),
        }
    return per_trace


def table_3_2_error_by_query(scale: float = 1.0,
                             query_names: Sequence[str] = VALIDATION_SEVEN,
                             trace: Optional[PacketTrace] = None,
                             ) -> Dict[str, object]:
    """Per-query prediction error and most frequently selected features."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    rows = []
    for name in query_names:
        observations = runner.collect_observations(make_query(name), trace)
        predictor = MLRPredictor()
        selected_counter: Counter = Counter()
        tracker = runner.evaluate_predictor(predictor, observations)
        # Re-run to record which features were selected at each step.
        predictor.reset()
        for index, (features, cycles) in enumerate(
                zip(observations.features, observations.cycles)):
            if index >= 2:
                predictor.predict(features)
                selected_counter.update(predictor.selected_features)
            predictor.observe(features, cycles)
        top_features = [feat for feat, _ in selected_counter.most_common(3)]
        rows.append({
            "query": name,
            "mean_error": tracker.mean,
            "std_error": tracker.std,
            "selected_features": ", ".join(top_features),
        })
    return {"trace": trace.name, "rows": rows}


# ----------------------------------------------------------------------
# Figures 3.9-3.12 and Table 3.3 — EWMA vs SLR vs MLR+FCBF
# ----------------------------------------------------------------------
def figure_3_11_baseline_comparison(scale: float = 1.0,
                                    query_names: Sequence[str] = VALIDATION_SEVEN,
                                    trace: Optional[PacketTrace] = None,
                                    ewma_alpha: float = 0.3,
                                    ) -> Dict[str, object]:
    """EWMA, SLR and MLR+FCBF error series averaged over the query set."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    observations = _observations_for(query_names, trace)
    methods = {
        "ewma": lambda: EWMAPredictor(alpha=ewma_alpha),
        "slr": lambda: SLRPredictor(feature="packets"),
        "mlr": lambda: MLRPredictor(),
    }
    series: Dict[str, np.ndarray] = {}
    means: Dict[str, float] = {}
    for method, factory in methods.items():
        error_matrix = []
        for name in query_names:
            tracker = runner.evaluate_predictor(factory(), observations[name])
            error_matrix.append(tracker.series())
        length = min(len(s) for s in error_matrix)
        stacked = np.vstack([s[:length] for s in error_matrix])
        series[method] = stacked.mean(axis=0)
        means[method] = float(stacked.mean())
    return {"error_series": series, "mean_error": means}


def table_3_3_error_stats(scale: float = 1.0,
                          query_names: Sequence[str] = VALIDATION_SEVEN,
                          trace: Optional[PacketTrace] = None,
                          ewma_alpha: float = 0.3) -> Dict[str, object]:
    """Per-query EWMA / SLR / MLR+FCBF error statistics (Table 3.3)."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    observations = _observations_for(query_names, trace)
    rows = []
    for name in query_names:
        ewma = runner.evaluate_predictor(EWMAPredictor(alpha=ewma_alpha),
                                         observations[name])
        slr = runner.evaluate_predictor(SLRPredictor(feature="packets"),
                                        observations[name])
        mlr = runner.evaluate_predictor(MLRPredictor(), observations[name])
        rows.append({
            "query": name,
            "ewma_mean": ewma.mean, "ewma_std": ewma.std,
            "slr_mean": slr.mean, "slr_std": slr.std,
            "mlr_mean": mlr.mean, "mlr_std": mlr.std,
        })
    summary = {
        "ewma": float(np.mean([row["ewma_mean"] for row in rows])),
        "slr": float(np.mean([row["slr_mean"] for row in rows])),
        "mlr": float(np.mean([row["mlr_mean"] for row in rows])),
    }
    return {"rows": rows, "mean_error": summary}


def figure_3_10_ewma_alpha_sweep(scale: float = 1.0,
                                 alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
                                 query_names: Sequence[str] = ("counter", "flows",
                                                               "top-k", "trace"),
                                 trace: Optional[PacketTrace] = None,
                                 ) -> Dict[str, object]:
    """EWMA prediction error as a function of the weight alpha (Figure 3.10)."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    observations = _observations_for(query_names, trace)
    rows = []
    for alpha in alphas:
        errors = [runner.evaluate_predictor(EWMAPredictor(alpha=alpha),
                                            observations[name]).mean
                  for name in query_names]
        rows.append({"alpha": float(alpha), "mean_error": float(np.mean(errors))})
    return {"rows": rows}


# ----------------------------------------------------------------------
# Figures 3.13-3.15 — robustness against DDoS anomalies
# ----------------------------------------------------------------------
def figure_3_13_ddos_robustness(scale: float = 1.0,
                                trace: Optional[PacketTrace] = None
                                ) -> Dict[str, object]:
    """Predictor behaviour for the flows query under an on/off DDoS attack."""
    if trace is None:
        trace = scenarios.ddos_trace(scale=scale)
    observations = runner.collect_observations(make_query("flows"), trace)
    results = {}
    for method, predictor in (("ewma", EWMAPredictor()),
                              ("slr", SLRPredictor(feature="packets")),
                              ("mlr", MLRPredictor())):
        tracker = runner.evaluate_predictor(predictor, observations)
        results[method] = {
            "error_series": tracker.series(),
            "mean_error": tracker.mean,
            "p95_error": tracker.percentile(95),
        }
    results["cycles_series"] = observations.cycles_array()
    return results


# ----------------------------------------------------------------------
# Table 3.4 — prediction overhead breakdown
# ----------------------------------------------------------------------
def table_3_4_prediction_overhead(scale: float = 1.0,
                                  query_names: Sequence[str] = VALIDATION_SEVEN,
                                  trace: Optional[PacketTrace] = None,
                                  ) -> Dict[str, object]:
    """Share of cycles spent on feature extraction, FCBF and MLR."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    capacity, reference = runner.calibrate_capacity(query_names, trace)
    result = runner.system_config(
        queries=query_names, mode="predictive",
        cycles_per_second=capacity).build().run(trace)
    query_cycles = result.series("query_cycles").sum()
    prediction_cycles = result.series("prediction_overhead").sum()
    system_cycles = result.series("system_overhead").sum()
    total = query_cycles + prediction_cycles + system_cycles
    # Within the prediction overhead, split extraction vs selection vs MLR
    # using the analytic cost models (the system charges their sum).
    sample_history = 60
    fcbf_share = selection_cost(sample_history, 42)
    mlr_share = 120.0 * sample_history * 3
    extraction_share = max(prediction_cycles / max(len(result.bins), 1) /
                           max(len(query_names), 1) - fcbf_share - mlr_share, 0.0)
    breakdown_total = extraction_share + fcbf_share + mlr_share
    return {
        "prediction_overhead_fraction": float(prediction_cycles / total) if total else 0.0,
        "rows": [
            {"phase": "feature extraction",
             "fraction_of_prediction": extraction_share / breakdown_total},
            {"phase": "fcbf", "fraction_of_prediction": fcbf_share / breakdown_total},
            {"phase": "mlr", "fraction_of_prediction": mlr_share / breakdown_total},
        ],
        "total_cycles": float(total),
        "prediction_cycles": float(prediction_cycles),
    }
