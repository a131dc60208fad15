#!/usr/bin/env python3
"""Fairness of service with competing queries (Chapter 5).

Runs a mixed query set (cheap counters next to the expensive trace and
ranking queries) at increasing overload and compares three systems: the
original one (no load shedding), the single-rate ``eq_srates`` shedder and
the packet-access max-min fair ``mmfs_pkt`` shedder.  It also verifies the
Nash-equilibrium property of the allocation game.
"""

import numpy as np

from repro.core import game
from repro.experiments import runner, scenarios
from repro.experiments.reporting import format_table


def main() -> None:
    queries = ("counter", "application", "flows", "high-watermark",
               "top-k", "trace")
    trace = scenarios.header_trace(seed=13, duration=8.0)
    capacity, reference = runner.calibrate_capacity(queries, trace)

    rows = []
    for overload in (0.3, 0.6):
        for label, mode, strategy in (("no_lshed", "original", "eq_srates"),
                                      ("eq_srates", "predictive", "eq_srates"),
                                      ("mmfs_pkt", "predictive", "mmfs_pkt")):
            result = runner.system_config(
                queries=queries, mode=mode, strategy=strategy,
                cycles_per_second=capacity * (1.0 - overload),
            ).build().run(trace)
            accuracy = runner.accuracy_by_query(result, reference)
            rows.append({
                "overload K": overload,
                "system": label,
                "avg accuracy": float(np.mean(list(accuracy.values()))),
                "min accuracy": float(np.min(list(accuracy.values()))),
                "drops": result.dropped_packets,
            })
    print(format_table(rows, ["overload K", "system", "avg accuracy",
                              "min accuracy", "drops"],
                       title="Figure 5.4-style comparison"))

    # Theorem 5.1: the only equilibrium is everyone asking for C / n cycles.
    capacity_units, players = 1.0, 5
    equal = game.equilibrium_profile(players, capacity_units)
    print("\nNash equilibrium check (Theorem 5.1):")
    print("  equal-share profile is an equilibrium:",
          game.is_nash_equilibrium(equal, capacity_units, grid=200))
    print("  all-greedy profile is an equilibrium:",
          game.is_nash_equilibrium([capacity_units] * players, capacity_units,
                                   grid=200))


if __name__ == "__main__":
    main()
