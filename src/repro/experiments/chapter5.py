"""Chapter 5 experiments: fairness of service and Nash equilibrium.

The chapter compares the two max-min fair strategies (``mmfs_cpu`` versus
``mmfs_pkt``) in simulation and on the real query set, studies the minimum
sampling rate constraints, and verifies the Nash-equilibrium property of the
allocation game.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import game
from ..core.fairness import mmfs_cpu, mmfs_pkt
from ..monitor.packet import PacketTrace
from ..queries import EVALUATION_NINE
from . import runner, scenarios

#: Minimum sampling rates of Table 5.2 (used when callers do not sweep them).
TABLE_5_2_MIN_RATES: Dict[str, float] = {
    "application": 0.03, "autofocus": 0.69, "counter": 0.03, "flows": 0.05,
    "high-watermark": 0.15, "pattern-search": 0.10, "super-sources": 0.93,
    "top-k": 0.57, "trace": 0.10,
}


# ----------------------------------------------------------------------
# Figure 5.1 — simulated light/heavy comparison
# ----------------------------------------------------------------------
def _light_accuracy(rate: float) -> float:
    """Accuracy model of the light (counter-like) query used in Section 5.4."""
    return 0.0 if rate <= 0.0 else 1.0 - (1.0 - rate) * 0.05


def _heavy_accuracy(rate: float) -> float:
    """Accuracy model of the heavy (trace-like) query used in Section 5.4."""
    return float(rate)


def figure_5_1_simulation_surface(
    min_rates: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    overloads: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    n_light: int = 10, heavy_cost_factor: float = 10.0,
) -> Dict[str, object]:
    """Difference in accuracy between mmfs_pkt and mmfs_cpu (simulation).

    One heavy query (cost 10x, accuracy = sampling rate) runs against ten
    light queries (accuracy barely affected by sampling).  Positive values of
    the returned surfaces mean mmfs_pkt beats mmfs_cpu.
    """
    light_cost = 1.0
    heavy_cost = heavy_cost_factor * light_cost
    total_demand = heavy_cost + n_light * light_cost
    names = ["heavy"] + [f"light-{idx}" for idx in range(n_light)]
    predicted = np.array([heavy_cost] + [light_cost] * n_light)
    avg_diff = np.zeros((len(min_rates), len(overloads)))
    min_diff = np.zeros_like(avg_diff)
    for i, m in enumerate(min_rates):
        for j, k in enumerate(overloads):
            capacity = total_demand * (1.0 - k)
            min_rate_column = np.full(len(names), float(m))
            per_strategy = {}
            for label, strategy in (("pkt", mmfs_pkt), ("cpu", mmfs_cpu)):
                allocation = strategy(names, predicted, min_rate_column,
                                      capacity)
                rates = allocation.rate_array
                accs = [_heavy_accuracy(rates[0])]
                accs += [_light_accuracy(rate) for rate in rates[1:]]
                # Disabled queries contribute zero accuracy.
                accs = np.where(allocation.disabled_mask, 0.0, accs)
                per_strategy[label] = (float(np.mean(accs)), float(np.min(accs)))
            avg_diff[i, j] = per_strategy["pkt"][0] - per_strategy["cpu"][0]
            min_diff[i, j] = per_strategy["pkt"][1] - per_strategy["cpu"][1]
    return {
        "min_rates": list(min_rates),
        "overloads": list(overloads),
        "average_accuracy_difference": avg_diff,
        "minimum_accuracy_difference": min_diff,
    }


# ----------------------------------------------------------------------
# Figure 5.2 — the same comparison with real counter/trace queries
# ----------------------------------------------------------------------
def figure_5_2_real_surface(
    scale: float = 1.0,
    min_rates: Sequence[float] = (0.1, 0.5, 0.9),
    overloads: Sequence[float] = (0.2, 0.5, 0.8),
    n_counters: int = 4,
    trace: Optional[PacketTrace] = None,
) -> Dict[str, object]:
    """mmfs_pkt minus mmfs_cpu accuracy with one trace and several counters.

    Uses real executions of the monitoring system; the grid is coarser than
    the paper's 11x11 sweep to stay laptop-sized, but covers the same corners.
    """
    if trace is None:
        trace = scenarios.header_trace(scale=scale,
                                       duration=scenarios.scaled_duration(
                                           "short", scale))
    # One heavy (trace) query plus several light (counter) instances.
    query_specs = [("trace", {})] + [
        ("counter", {"name": f"counter-{index}"}) for index in range(n_counters)]
    base_capacity, reference = runner.calibrate_capacity(query_specs, trace)
    avg_diff = np.zeros((len(min_rates), len(overloads)))
    min_diff = np.zeros_like(avg_diff)
    for i, m in enumerate(min_rates):
        for j, k in enumerate(overloads):
            per_strategy = {}
            for label, strategy in (("pkt", "mmfs_pkt"), ("cpu", "mmfs_cpu")):
                result = runner.system_config(
                    queries=query_specs, mode="predictive", strategy=strategy,
                    cycles_per_second=base_capacity * (1.0 - k),
                ).build().run(trace)
                accs = runner.accuracy_by_query(result, reference)
                # Enforce the swept minimum sampling rate semantics: a query
                # whose average applied rate fell below m counts as zero.
                adjusted = []
                for name, acc in accs.items():
                    mean_rate = float(np.mean(result.rate_series(name)))
                    adjusted.append(acc if mean_rate >= m else 0.0)
                per_strategy[label] = (float(np.mean(adjusted)),
                                       float(np.min(adjusted)))
            avg_diff[i, j] = per_strategy["pkt"][0] - per_strategy["cpu"][0]
            min_diff[i, j] = per_strategy["pkt"][1] - per_strategy["cpu"][1]
    return {
        "min_rates": list(min_rates),
        "overloads": list(overloads),
        "average_accuracy_difference": avg_diff,
        "minimum_accuracy_difference": min_diff,
    }


# ----------------------------------------------------------------------
# Figure 5.3 / Table 5.2 — minimum sampling rates
# ----------------------------------------------------------------------
def table_5_2_min_srates(scale: float = 1.0,
                         query_names: Sequence[str] = ("counter", "flows",
                                                       "high-watermark",
                                                       "top-k", "autofocus"),
                         rates: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.6,
                                                   0.8, 1.0),
                         target_error: float = 0.05,
                         trace: Optional[PacketTrace] = None,
                         ) -> Dict[str, object]:
    """Accuracy versus sampling rate per query and the implied minimum rate.

    The minimum sampling rate of a query is the smallest swept rate whose
    mean error stays below ``target_error`` (5% in Section 5.5.2).
    """
    if trace is None:
        trace = scenarios.header_trace(scale=scale)
    rows = []
    curves: Dict[str, Dict[float, float]] = {}
    for name in query_names:
        curve = runner.accuracy_vs_sampling_rate(name, trace, rates)
        curves[name] = curve
        min_rate = 1.0
        for rate in sorted(curve):
            if 1.0 - curve[rate] <= target_error:
                min_rate = rate
                break
        rows.append({"query": name, "min_sampling_rate": float(min_rate)})
    return {"rows": rows, "curves": curves, "target_error": target_error}


# ----------------------------------------------------------------------
# Figure 5.4 / Table 5.2 — strategy comparison at increasing overload
# ----------------------------------------------------------------------
def figure_5_4_strategy_comparison(
    scale: float = 1.0,
    overloads: Sequence[float] = (0.2, 0.5, 0.8),
    query_names: Sequence[str] = EVALUATION_NINE,
    trace: Optional[PacketTrace] = None,
) -> Dict[str, object]:
    """Average and minimum accuracy of the five systems versus overload K.

    Systems compared: no_lshed (original), reactive, eq_srates, mmfs_cpu and
    mmfs_pkt, as in Figure 5.4 / Table 5.2.
    """
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    base_capacity, reference = runner.calibrate_capacity(query_names, trace)
    systems = (
        ("no_lshed", "original", None),
        ("reactive", "reactive", None),
        ("eq_srates", "predictive", "eq_srates"),
        ("mmfs_cpu", "predictive", "mmfs_cpu"),
        ("mmfs_pkt", "predictive", "mmfs_pkt"),
    )
    average: Dict[str, List[float]] = {name: [] for name, _, _ in systems}
    minimum: Dict[str, List[float]] = {name: [] for name, _, _ in systems}
    per_query_at_k: Dict[float, Dict[str, Dict[str, float]]] = {}
    for k in overloads:
        capacity = base_capacity * (1.0 - k)
        per_query_at_k[float(k)] = {}
        for label, mode, strategy in systems:
            result = runner.system_config(
                queries=query_names, mode=mode,
                strategy=strategy or "eq_srates",
                cycles_per_second=capacity).build().run(trace)
            accs = runner.accuracy_by_query(result, reference)
            per_query_at_k[float(k)][label] = accs
            values = list(accs.values())
            average[label].append(float(np.mean(values)))
            minimum[label].append(float(np.min(values)))
    return {
        "overloads": list(overloads),
        "average_accuracy": average,
        "minimum_accuracy": minimum,
        "per_query_accuracy": per_query_at_k,
    }


# ----------------------------------------------------------------------
# Figure 5.5 — accuracy over time for the autofocus query
# ----------------------------------------------------------------------
def figure_5_5_autofocus_over_time(scale: float = 1.0, overload: float = 0.2,
                                   trace: Optional[PacketTrace] = None,
                                   query_names: Sequence[str] = EVALUATION_NINE,
                                   ) -> Dict[str, object]:
    """Autofocus accuracy over time under light overload per strategy."""
    if trace is None:
        trace = scenarios.payload_trace(scale=scale)
    base_capacity, reference = runner.calibrate_capacity(query_names, trace)
    capacity = base_capacity * (1.0 - overload)
    systems = (
        ("no_lshed", "original", "eq_srates"),
        ("eq_srates", "predictive", "eq_srates"),
        ("mmfs_cpu", "predictive", "mmfs_cpu"),
        ("mmfs_pkt", "predictive", "mmfs_pkt"),
    )
    series = {}
    means = {}
    for label, mode, strategy in systems:
        result = runner.system_config(
            queries=query_names, mode=mode, strategy=strategy,
            cycles_per_second=capacity).build().run(trace)
        acc = runner.accuracy_series(result, reference, "autofocus")
        series[label] = acc
        means[label] = float(np.mean(acc)) if len(acc) else 0.0
    return {"accuracy_series": series, "mean_accuracy": means,
            "overload": overload}


# ----------------------------------------------------------------------
# Section 5.3 — Nash equilibrium
# ----------------------------------------------------------------------
def nash_equilibrium_check(n_players: int = 4, capacity: float = 1.0,
                           grid: int = 100, seed: int = 0,
                           ) -> Dict[str, object]:
    """Verify Theorem 5.1 numerically.

    Checks that the profile where everyone demands ``C/n`` is a Nash
    equilibrium, that obviously unfair profiles are not, and that
    best-response dynamics converge to the equal-share profile.
    """
    rng = np.random.default_rng(seed)
    equal = game.equilibrium_profile(n_players, capacity)
    equal_is_ne = game.is_nash_equilibrium(equal, capacity, grid=grid)
    greedy = [capacity] * n_players
    greedy_is_ne = game.is_nash_equilibrium(greedy, capacity, grid=grid)
    start = rng.uniform(0.05, 0.45, size=n_players) * capacity
    final, rounds, converged = game.best_response_dynamics(
        start, capacity, max_rounds=300, grid=grid)
    return {
        "equal_share_profile": equal.tolist(),
        "equal_share_is_nash": bool(equal_is_ne),
        "greedy_profile_is_nash": bool(greedy_is_ne),
        "dynamics_start": start.tolist(),
        "dynamics_final": final.tolist(),
        "dynamics_rounds": rounds,
        "dynamics_converged": bool(converged),
        "distance_to_equal_share": float(np.max(np.abs(final - equal))),
    }
