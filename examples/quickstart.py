#!/usr/bin/env python3
"""Quickstart: run the predictive load shedding system over a synthetic trace.

The example builds a CESCA-like synthetic trace, runs a small query set at an
overload factor of K=0.5 (the system only has half the cycles it would need
to process everything) and prints what the load shedder did and how accurate
the query results remained compared with an unshedded reference execution.
"""

from repro.experiments import runner, scenarios
from repro.experiments.reporting import format_table


def main() -> None:
    queries = ("counter", "application", "flows", "top-k", "high-watermark")
    trace = scenarios.header_trace(seed=7, duration=8.0)
    print(f"Generated trace: {len(trace)} packets over {trace.duration:.1f} s")

    # Calibrate the capacity so that K = 0.5 means "demand is twice capacity".
    capacity, reference = runner.calibrate_capacity(queries, trace)
    overload = 0.5
    # A run is a config, built and run: every system knob, the query mix
    # and the capacity live in one serialisable SystemConfig, and
    # runner.system_config() is the harness default with overrides applied.
    config = runner.system_config(queries=queries, mode="predictive",
                                  strategy="mmfs_pkt",
                                  cycles_per_second=capacity * (1.0 - overload))
    result = config.build().run(trace)

    print(f"\nOverload factor K = {overload}")
    print(f"Uncontrolled packet drops : {result.dropped_packets}")
    print(f"Mean sampling rate        : {result.mean_sampling_rate():.2f}")
    print(f"Packets left unsampled    : {result.unsampled_packets:.0f} "
          f"of {result.total_packets}")

    accuracy = runner.accuracy_by_query(result, reference)
    rows = [{"query": name, "accuracy": value}
            for name, value in sorted(accuracy.items())]
    print()
    print(format_table(rows, ["query", "accuracy"],
                       title="Accuracy versus the unshedded reference"))


if __name__ == "__main__":
    main()
