#!/usr/bin/env python3
"""Streaming sessions: push batches from a generator, reconfigure live.

The load shedding scheme is an online system — it sheds load on live traffic
with no a-priori knowledge of the workload.  This example drives it the way a
live deployment would: batches are *pushed* into a :class:`MonitoringSession`
from a generator (here: a synthetic capture feed), and the running session is
reconfigured on the fly — a new query arrives mid-run, the host's capacity
is cut and a query departs, each taking effect at the next bin boundary.
"""

from repro import SystemConfig
from repro.experiments import runner, scenarios
from repro.queries import make_query

TIME_BIN = 0.1


def capture_feed(trace):
    """Stand-in for a live capture process: yields one batch per time bin."""
    yield from trace.batches(TIME_BIN)


def main() -> None:
    base_queries = ("counter", "flows", "high-watermark")
    trace = scenarios.header_trace(seed=21, duration=8.0)
    print(f"Streaming {len(trace)} packets over {trace.duration:.1f} s "
          f"in {trace.num_batches(TIME_BIN)} bins of "
          f"{TIME_BIN * 1000:.0f} ms")

    # Calibrate against the full query set (including the one that will
    # arrive later) so the capacity is meaningful throughout.
    capacity, reference = runner.calibrate_capacity(
        base_queries + ("top-k",), trace)

    config = SystemConfig(mode="predictive", strategy="mmfs_pkt",
                          feature_method="exact",
                          cycles_per_second=capacity * 0.6)
    print(f"SystemConfig (serialisable): {config.to_dict()}")

    system = config.build([make_query(name) for name in base_queries])
    session = system.open_session(time_bin=TIME_BIN, name=trace.name)

    arrival_ts = trace.duration * 0.4
    capacity_cut_ts = trace.duration * 0.7
    departure_ts = trace.duration * 0.85
    added = cut = departed = False
    for batch in capture_feed(trace):
        if not added and batch.start_ts >= arrival_ts:
            session.add_query(make_query("top-k"))  # arrives at the next bin
            added = True
            print(f"[t={batch.start_ts:5.1f}s] top-k query submitted "
                  f"({session.bins_ingested} bins in)")
        if not cut and batch.start_ts >= capacity_cut_ts:
            session.set_capacity(capacity * 0.35)   # host slows down
            cut = True
            print(f"[t={batch.start_ts:5.1f}s] capacity cut to 35%")
        if not departed and batch.start_ts >= departure_ts:
            # Its last interval is flushed at the boundary; its log stays.
            session.remove_query("high-watermark")
            departed = True
            print(f"[t={batch.start_ts:5.1f}s] high-watermark removed")
        session.ingest(batch)
        if session.bins_ingested == int(arrival_ts / TIME_BIN):
            sofar = session.partial_result()
            accuracy = runner.accuracy_by_query(sofar, reference)
            mean = sum(accuracy.values()) / len(accuracy)
            print(f"[t={batch.start_ts:5.1f}s] accuracy so far: {mean:.3f} "
                  f"(rate {sofar.mean_sampling_rate():.2f})")

    result = session.close()
    accuracy = runner.accuracy_by_query(result, reference)
    print("\nFinal execution:")
    print(f"  bins processed      : {len(result.bins)}")
    print(f"  uncontrolled drops  : {result.dropped_packets}")
    print(f"  mean sampling rate  : {result.mean_sampling_rate():.2f}")
    for name in sorted(accuracy):
        print(f"  accuracy[{name:<14}]: {accuracy[name]:.3f}")


if __name__ == "__main__":
    main()
