"""Chapter 6 experiments: custom load shedding.

These experiments exercise the delegation of load shedding to the queries
themselves (the P2P detector is the running example) and the enforcement
policy that keeps selfish and buggy queries from hurting everyone else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..monitor.packet import PacketTrace
from ..monitor.system import MonitoringSystem
from ..queries import (BuggyP2PDetectorQuery, P2PDetectorQuery,
                       SelfishP2PDetectorQuery, make_query)
from . import runner, scenarios

#: Validation query set of Table 6.1.
CHAPTER6_QUERIES = scenarios.CUSTOM_VALIDATION_SET


def _p2p_spec(custom: bool) -> tuple:
    return ("p2p-detector", {"custom_shedding": custom})


def _chapter6_specs(custom: bool) -> List:
    """The Chapter 6 query set with the P2P detector in the requested mode."""
    specs: List = [name for name in CHAPTER6_QUERIES if name != "p2p-detector"]
    specs.append(_p2p_spec(custom))
    return specs


# ----------------------------------------------------------------------
# Figures 6.1 / 6.2 / 6.3 — packet sampling versus custom shedding
# ----------------------------------------------------------------------
def figure_6_1_custom_vs_sampling(scale: float = 1.0, overload: float = 0.5,
                                  trace: Optional[PacketTrace] = None,
                                  ) -> Dict[str, object]:
    """P2P detector accuracy and resource usage: packet sampling vs custom.

    Both configurations run the same query set at the same overload; only the
    P2P detector's shedding mechanism changes.  Custom (flow-wise, internal)
    shedding should retain noticeably more accuracy (Figure 6.2) while
    consuming a comparable amount of cycles (Figure 6.1).
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    base_capacity, reference = runner.calibrate_capacity(
        _chapter6_specs(custom=False), trace)
    capacity = base_capacity * (1.0 - overload)
    results = {}
    for label, custom in (("packet_sampling", False), ("custom_shedding", True)):
        results[label] = runner.run_system(
            _chapter6_specs(custom), trace, capacity,
            config=runner.system_config(strategy="mmfs_pkt",
                                        support_custom_shedding=custom))
    errors = {
        label: runner.error_by_query(result, reference).get("p2p-detector", 1.0)
        for label, result in results.items()
    }
    cycles = {
        label: float(np.mean([
            record.query_cycles_by_query.get("p2p-detector", 0.0)
            for record in result.bins]))
        for label, result in results.items()
    }
    predicted = {
        label: float(np.mean(result.series("predicted_cycles")))
        for label, result in results.items()
    }
    return {
        "p2p_error": errors,
        "p2p_mean_cycles_per_bin": cycles,
        "mean_predicted_cycles_per_bin": predicted,
        "dropped_packets": {label: result.dropped_packets
                            for label, result in results.items()},
    }


def figure_6_3_enforcement_correction(scale: float = 1.0, overload: float = 0.5,
                                      trace: Optional[PacketTrace] = None,
                                      ) -> Dict[str, object]:
    """Expected versus actual consumption of a custom-shedding query.

    Shows the correction factor the enforcement policy converges to for a
    well-behaved custom method (close to 1) and for the buggy variant
    (significantly above 1).
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    specs_good = _chapter6_specs(custom=True)
    base_capacity, _ = runner.calibrate_capacity(specs_good, trace)
    capacity = base_capacity * (1.0 - overload)

    def run_with(p2p_query) -> MonitoringSystem:
        queries = [make_query(name) for name in CHAPTER6_QUERIES
                   if name != "p2p-detector"]
        queries.append(p2p_query)
        system = MonitoringSystem(
            runner.system_config(strategy="mmfs_pkt",
                                 cycles_per_second=capacity), queries)
        system.run(trace, time_bin=runner.TIME_BIN)
        return system

    good = run_with(P2PDetectorQuery(custom_shedding=True))
    buggy = run_with(BuggyP2PDetectorQuery())
    return {
        "correction_factor_cooperative":
            good.enforcer.state("p2p-detector").correction,
        "correction_factor_buggy":
            buggy.enforcer.state("p2p-detector-buggy").correction,
        "violations_cooperative":
            good.enforcer.state("p2p-detector").total_violations,
        "violations_buggy":
            buggy.enforcer.state("p2p-detector-buggy").total_violations,
    }


# ----------------------------------------------------------------------
# Figure 6.4 — accuracy as a function of the sampling rate
# ----------------------------------------------------------------------
def figure_6_4_accuracy_vs_srate(scale: float = 1.0,
                                 rates: Sequence[float] = (0.1, 0.25, 0.5,
                                                           0.75, 1.0),
                                 trace: Optional[PacketTrace] = None,
                                 ) -> Dict[str, object]:
    """Accuracy of high-watermark, top-k and p2p-detector under packet sampling."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    curves = {}
    for name in ("high-watermark", "top-k", "p2p-detector"):
        curves[name] = runner.accuracy_vs_sampling_rate(
            name, trace, rates, sampling="packet")
    return {"curves": curves, "rates": list(rates)}


# ----------------------------------------------------------------------
# Figure 6.5 / Table 6.2 — accuracy at increasing overload
# ----------------------------------------------------------------------
def figure_6_5_overload_sweep(scale: float = 1.0,
                              overloads: Sequence[float] = (0.2, 0.5, 0.8),
                              trace: Optional[PacketTrace] = None,
                              ) -> Dict[str, object]:
    """System-wide average and minimum accuracy at increasing overload.

    The full Chapter 6 system: mmfs_pkt allocation plus custom load shedding
    for the P2P detector.
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    specs = _chapter6_specs(custom=True)
    base_capacity, reference = runner.calibrate_capacity(specs, trace)
    average, minimum, per_query = [], [], {}
    for k in overloads:
        result = runner.run_system(specs, trace, base_capacity * (1.0 - k),
                                   mode="predictive", strategy="mmfs_pkt")
        accs = runner.accuracy_by_query(result, reference)
        per_query[float(k)] = accs
        average.append(float(np.mean(list(accs.values()))))
        minimum.append(float(np.min(list(accs.values()))))
    return {
        "overloads": list(overloads),
        "average_accuracy": average,
        "minimum_accuracy": minimum,
        "per_query_accuracy": per_query,
    }


def table_6_2_accuracy_by_query(scale: float = 1.0, overload: float = 0.5,
                                trace: Optional[PacketTrace] = None,
                                ) -> Dict[str, object]:
    """Per-query accuracy of the complete system at a fixed overload."""
    sweep = figure_6_5_overload_sweep(scale=scale, overloads=(overload,),
                                      trace=trace)
    accs = sweep["per_query_accuracy"][float(overload)]
    rows = [{"query": name, "accuracy": value}
            for name, value in sorted(accs.items())]
    return {"rows": rows, "overload": overload}


# ----------------------------------------------------------------------
# Figures 6.6 / 6.7 — with and without custom shedding support
# ----------------------------------------------------------------------
def figure_6_6_vs_6_7(scale: float = 1.0, overload: float = 0.5,
                      trace: Optional[PacketTrace] = None,
                      ) -> Dict[str, object]:
    """eq_srates without custom shedding versus mmfs_pkt with custom shedding."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    base_capacity, reference = runner.calibrate_capacity(
        _chapter6_specs(custom=False), trace)
    capacity = base_capacity * (1.0 - overload)
    legacy = runner.run_system(
        _chapter6_specs(custom=False), trace, capacity,
        config=runner.system_config(strategy="eq_srates",
                                    support_custom_shedding=False))
    full = runner.run_system(
        _chapter6_specs(custom=True), trace, capacity,
        config=runner.system_config(strategy="mmfs_pkt",
                                    support_custom_shedding=True))
    legacy_accs = runner.accuracy_by_query(legacy, reference)
    full_accs = runner.accuracy_by_query(full, reference)
    return {
        "legacy_accuracy": legacy_accs,
        "full_accuracy": full_accs,
        "legacy_minimum": float(np.min(list(legacy_accs.values()))),
        "full_minimum": float(np.min(list(full_accs.values()))),
        "dropped_packets": {"legacy": legacy.dropped_packets,
                            "full": full.dropped_packets},
    }


# ----------------------------------------------------------------------
# Figure 6.8 — massive DDoS
# ----------------------------------------------------------------------
def figure_6_8_ddos(scale: float = 1.0, overload: float = 0.3,
                    trace: Optional[PacketTrace] = None,
                    ) -> Dict[str, object]:
    """System behaviour during a massive DDoS attack against the monitor."""
    if trace is None:
        base = scenarios.payload_trace(scale=scale)
        from ..traffic import AnomalyWindow, ddos_attack, inject
        duration = base.duration
        attack = ddos_attack(AnomalyWindow(duration * 0.4, duration * 0.3),
                             packets_per_second=15000.0, seed=11)
        trace = inject(base, attack, name="cesca-ii-ddos")
    specs = _chapter6_specs(custom=True)
    base_capacity, reference = runner.calibrate_capacity(specs, trace,
                                                         quantile=0.5)
    capacity = base_capacity * (1.0 - overload)
    result = runner.run_system(specs, trace, capacity, mode="predictive",
                               strategy="mmfs_pkt")
    accs = runner.accuracy_by_query(result, reference)
    return {
        "dropped_packets": result.dropped_packets,
        "drop_fraction": result.drop_fraction,
        "mean_sampling_rate": result.mean_sampling_rate(),
        "accuracy": accs,
        "cpu_series": result.cycles_per_bin(),
        "cpu_limit": capacity * runner.TIME_BIN,
    }


# ----------------------------------------------------------------------
# Figure 6.9 — query arrivals
# ----------------------------------------------------------------------
def figure_6_9_query_arrivals(scale: float = 1.0, overload: float = 0.4,
                              trace: Optional[PacketTrace] = None,
                              ) -> Dict[str, object]:
    """New queries arriving while the system is already loaded.

    The dynamic scenario is driven through the streaming session API: the
    arriving queries are *not* known to the system up front — each one is
    registered live with :meth:`MonitoringSession.add_query` when the stream
    reaches its arrival time, exactly as an operator would submit a query to
    a running monitor.
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    duration = trace.duration
    base_specs = ["counter", "flows", "high-watermark"]
    arriving = [("top-k", duration * 0.35), (_p2p_spec(True), duration * 0.65)]
    base_capacity, reference = runner.calibrate_capacity(
        base_specs + [spec for spec, _ in arriving], trace)
    capacity = base_capacity * (1.0 - overload)

    system = MonitoringSystem(
        runner.system_config(strategy="mmfs_pkt",
                             cycles_per_second=capacity),
        runner.build_queries(base_specs))
    pending = list(arriving)
    session = system.open_session(time_bin=runner.TIME_BIN, name=trace.name)
    for batch in trace.batches(runner.TIME_BIN):
        while pending and batch.start_ts + 1e-9 >= pending[0][1]:
            spec, start = pending.pop(0)
            session.add_query(runner.build_queries([spec])[0],
                              start_time=start)
        session.ingest(batch)
    result = session.close()
    return {
        "dropped_packets": result.dropped_packets,
        "rates_over_time": {name: result.rate_series(name)
                            for name in result.query_logs},
        "accuracy": runner.accuracy_by_query(result, reference),
        "arrival_times": {str(spec): start for spec, start in arriving},
    }


# ----------------------------------------------------------------------
# Figures 6.10 / 6.11 — selfish and buggy queries
# ----------------------------------------------------------------------
def _misbehaving_run(query_cls, scale: float, overload: float,
                     trace: Optional[PacketTrace]) -> Dict[str, object]:
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    well_behaved = [name for name in CHAPTER6_QUERIES if name != "p2p-detector"]
    # Calibrate including a (well-behaved) P2P detector so the allocation
    # grants the offender a real share of the cycles; the point of the
    # experiment is that the *enforcer*, not starvation, contains it.
    base_capacity, _ = runner.calibrate_capacity(
        well_behaved + ["p2p-detector"], trace)
    _, reference = runner.calibrate_capacity(well_behaved, trace)
    capacity = base_capacity * (1.0 - overload)
    queries = runner.build_queries(well_behaved)
    offender = query_cls()
    queries.append(offender)
    system = MonitoringSystem(
        runner.system_config(strategy="mmfs_pkt",
                             cycles_per_second=capacity), queries)
    result = system.run(trace, time_bin=runner.TIME_BIN)
    state = system.enforcer.state(offender.name)
    accs = runner.accuracy_by_query(result, reference)
    return {
        "offender": offender.name,
        "offender_disabled_times": state.total_disables,
        "offender_violations": state.total_violations,
        "offender_correction": state.correction,
        "well_behaved_accuracy": {name: accs[name] for name in well_behaved
                                  if name in accs},
        "dropped_packets": result.dropped_packets,
    }


def figure_6_10_selfish(scale: float = 1.0, overload: float = 0.3,
                        trace: Optional[PacketTrace] = None,
                        ) -> Dict[str, object]:
    """A selfish custom-shedding query is policed and disabled."""
    return _misbehaving_run(SelfishP2PDetectorQuery, scale, overload, trace)


def figure_6_11_buggy(scale: float = 1.0, overload: float = 0.3,
                      trace: Optional[PacketTrace] = None,
                      ) -> Dict[str, object]:
    """A buggy custom-shedding query is corrected and, if needed, disabled."""
    return _misbehaving_run(BuggyP2PDetectorQuery, scale, overload, trace)


# ----------------------------------------------------------------------
# Figures 6.12-6.14 — long online execution
# ----------------------------------------------------------------------
def figure_6_12_online_execution(scale: float = 1.0, overload: float = 0.5,
                                 trace: Optional[PacketTrace] = None,
                                 ) -> Dict[str, object]:
    """Online-execution style summary: CPU, buffers, drops, accuracy, rate."""
    if trace is None:
        trace = scenarios.payload_trace(
            scale=scale, duration=scenarios.scaled_duration("long", scale))
    specs = _chapter6_specs(custom=True)
    result, reference = runner.run_with_overload(specs, trace, overload,
                                                 mode="predictive",
                                                 strategy="mmfs_pkt")
    accs = runner.accuracy_by_query(result, reference)
    return {
        "series": {
            "total_cycles": result.cycles_per_bin(),
            "predicted_cycles": result.series("predicted_cycles"),
            "buffer_occupation": result.series("buffer_occupation"),
            "dropped_packets": result.series("dropped_packets"),
            "mean_rate": np.array([record.mean_rate for record in result.bins]),
        },
        "cpu_limit": result.budget.per_bin,
        "overall_accuracy": float(np.mean(list(accs.values()))) if accs else 0.0,
        "accuracy": accs,
        "dropped_packets": result.dropped_packets,
        "mean_sampling_rate": result.mean_sampling_rate(),
    }
