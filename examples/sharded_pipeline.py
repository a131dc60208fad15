#!/usr/bin/env python3
"""Sharded pipeline: one stream, N flow-affine shard workers, one result.

A single monitoring system executes every query on every bin on one core.
This example partitions the same stream across four shard pipelines — each
a full predict/allocate/shed/execute loop on a fixed quarter of the cycle
budget — and folds what the shards return, bin by bin, into one
stream-global execution whose accuracy is compared against both the
unsharded system and the ground-truth reference.

The last section re-runs the streamed replay on the **persistent worker
backend** (`backend="workers"`): one resident process per shard, per-bin
batches shipped through memory files — same results, bit for bit, with
the shard pipelines actually running in parallel.
"""

import time

from repro import ShardedSystem
from repro.experiments import runner, scenarios
from repro.monitor.workers import fork_start_available
from repro.queries import make_query

TIME_BIN = 0.1
QUERY_SET = ("counter", "flows", "top-k", "application")
NUM_SHARDS = 4


def query_factory():
    """Each shard gets fresh query instances (independent per-shard state)."""
    return [make_query(name) for name in QUERY_SET]


def main() -> None:
    trace = scenarios.build_workload("cesca", seed=42, scale=0.4)
    capacity, reference = runner.calibrate_capacity(QUERY_SET, trace)
    overloaded = capacity * 0.5  # K = 0.5: half the needed capacity
    print(f"Trace: {len(trace)} packets over {trace.duration:.1f} s; "
          f"capacity {overloaded:.3g} cycles/s (overload K=0.5)")

    # The classic single-system run: the whole budget, one pipeline.
    unsharded = runner.system_config(
        queries=QUERY_SET, cycles_per_second=overloaded).build().run(trace)

    # Sharded: the stream is flow-hash partitioned over NUM_SHARDS shard
    # sessions, each owning a fixed 1/N of the budget.
    config = runner.system_config(cycles_per_second=overloaded,
                                  num_shards=NUM_SHARDS)
    sharded = ShardedSystem(query_factory, config=config).run(
        trace, time_bin=TIME_BIN)

    # The same topology driven as a push-based streaming session, with a
    # query arriving mid-stream: the node takes an instance, as a serial
    # session does, and every shard runs its own copy of it.
    session = ShardedSystem(query_factory, config=config).open_session(
        time_bin=TIME_BIN, name=trace.name)
    for index, batch in enumerate(trace.batches(TIME_BIN)):
        if index == 20:
            session.add_query(make_query("high-watermark"))
        record = session.ingest(batch)  # merged stream-global BinRecord
    streamed = session.close()
    print(f"Streaming ingest: {len(streamed.bins)} bins, last bin saw "
          f"{record.incoming_packets} packets on {NUM_SHARDS} shards; "
          f"high-watermark arrived at bin 20 and logged "
          f"{len(streamed.query_logs['high-watermark'])} intervals")

    print(f"\n{'query':<14} {'unsharded':>10} {'sharded':>10}")
    plain = runner.accuracy_by_query(unsharded, reference)
    merged = runner.accuracy_by_query(sharded, reference)
    for name in sorted(plain):
        print(f"{name:<14} {plain[name]:>10.3f} {merged[name]:>10.3f}")
    print(f"\nuncontrolled drops: unsharded={unsharded.dropped_packets} "
          f"sharded={sharded.dropped_packets}")
    print(f"mean sampling rate: unsharded={unsharded.mean_sampling_rate():.2f} "
          f"sharded={sharded.mean_sampling_rate():.2f}")

    # Persistent shard workers: the same stream, but each shard pipeline
    # lives in its own long-lived process and bins travel through memory
    # files it inherited.  The merged result is bit-identical to the in-process run
    # above.
    if not fork_start_available():
        print("\n(fork or os.memfd_create unavailable; skipping worker "
              "backend)")
        return
    with ShardedSystem(query_factory, config=config,
                       backend="workers").open_session(
            time_bin=TIME_BIN, name=trace.name) as workers:
        start = time.perf_counter()
        workers.ingest_trace(trace)
        parallel = workers.close()
        elapsed = time.perf_counter() - start
    identical = all(
        parallel.query_logs[name].results == sharded.query_logs[name].results
        for name in parallel.query_logs)
    print(f"\npersistent workers x{NUM_SHARDS}: {len(parallel.bins)} bins in "
          f"{elapsed:.2f}s; bit-identical to the in-process run: {identical}")


if __name__ == "__main__":
    main()
