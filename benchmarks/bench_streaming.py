"""Benchmark: out-of-core trace-store replay versus the in-memory path.

A v2 trace store is synthesised chunk-at-a-time (``generate_trace_store``),
then replayed through the full predict/shed pipeline twice: once fully
materialised in memory (the pre-store idiom) and once streamed from
``store.streaming()``, every bin read from the store's files — the out-of-core
path the store exists for.  A third replay drives the ``num_shards=4``
in-process sharded pipeline from the same stream.

The acceptance bar for the first benchmark is *correctness at bounded
memory*, not speed: both streamed replays must be bit-identical to the
in-memory execution, and the process's resident-set high-water mark
(``repro.profile.peak_rss_mb``) must rise by less than
``MAX_RSS_GROWTH_MB`` across the streamed replays — reading the store must
not make it resident.  (The store here is a few MB, so this catches a
reader that hoards; that the peak does not depend on the store's length is
pinned on 33 MB and 134 MB stores in ``tests/test_trace_store.py``.)  The
streaming overhead factor (streamed wall time over in-memory wall time) is
recorded into ``BENCH_report.json`` so regressions in the read path show up
per commit; a loose sanity ceiling guards against pathological slowdowns.

The second benchmark is the throughput claim: the same out-of-core stream
replayed over the **persistent shard-worker pool** (one resident process
per shard, memory-file batch transport) must beat the serial streamed
replay by >= ~2x on a >= 4-core host.  Sharding
needs hardware to shard onto, so — exactly like ``bench_sharded.py`` — the
bar scales with the host: a weaker parallelism floor on 2-3 cores, and on
a single-core host only a sanity floor (4 time-sliced pipelines cannot
beat 1; the run then pins that the worker path streams correctly and is
not pathologically slower).
"""

import os
import time

from conftest import BENCH_SCALE, record_result


from repro.experiments import runner
from repro.monitor.sharding import build_system
from repro.profile import peak_rss_mb
from repro.testing import assert_results_identical
from repro.traffic.generator import TrafficProfile, generate_trace_store
from repro.traffic.trace_io import TraceStore

QUERY_SET = ("counter", "flows", "top-k")
#: The resident-set high-water mark may rise by this much while the store
#: is streamed (twice: serial and sharded).  The in-memory replays come
#: first, so the pipeline's own working set is already counted; what is
#: left is whatever the reader keeps — a mapped store would add its size.
MAX_RSS_GROWTH_MB = 8.0
#: Streaming must not cost more than this factor over the in-memory path
#: (it reads every bin from the file instead of reusing memoised batches,
#: so some overhead is expected; 4x would mean the read path regressed).
MAX_OVERHEAD = 4.0

#: Query mix for the worker-throughput benchmark: heavy per-packet work so
#: parallel shards have real compute to win back (the regime sharding
#: exists for).
DENSE_QUERY_SET = ("counter", "flows", "top-k", "p2p-detector",
                   "application")
NUM_SHARDS = 4
CORES = os.cpu_count() or 1
if CORES >= 4:
    WORKER_MIN_SPEEDUP = 2.0
elif CORES >= 2:
    WORKER_MIN_SPEEDUP = 1.0
else:
    WORKER_MIN_SPEEDUP = 0.2
if os.environ.get("CI"):
    # Shared CI runners are noisy neighbours; the smoke job is a regression
    # tripwire, not a performance gate.
    WORKER_MIN_SPEEDUP = min(WORKER_MIN_SPEEDUP, 1.2)


def _build_store(tmp_path):
    profile = TrafficProfile(
        duration=max(4.0, 10.0 * BENCH_SCALE),
        flow_arrival_rate=2000.0,
        name="streaming-bench",
    )
    return generate_trace_store(tmp_path / "store", profile, seed=21,
                                segment_duration=2.0)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def test_streaming_replay_bit_identical_and_bounded(benchmark, tmp_path):
    store = _build_store(tmp_path)
    store_mb = sum(f.stat().st_size for f in store.path.iterdir()) / 2.0 ** 20
    # A second handle for the in-memory copy, so the store that is
    # streamed below has mapped nothing.
    trace = TraceStore(store.path).to_trace()

    capacity, _ = runner.calibrate_capacity(QUERY_SET, trace)
    config = runner.system_config(queries=QUERY_SET,
                                  cycles_per_second=capacity * 0.5, seed=13)

    def _in_memory():
        return config.build().run(trace)

    def _streamed(num_shards=1):
        return build_system(config.replace(num_shards=num_shards)).run(
            store.streaming())

    memory_result, memory_seconds = _timed(_in_memory)
    sharded_memory = build_system(config.replace(num_shards=4)).run(trace)

    rss_before = peak_rss_mb()
    (streamed_result, streamed_seconds), _ = benchmark.pedantic(
        lambda: (_timed(_streamed), None),
        rounds=1, iterations=1, warmup_rounds=0)
    assert_results_identical(memory_result, streamed_result, "serial")
    sharded_result, sharded_seconds = _timed(_streamed, 4)
    assert_results_identical(sharded_memory, sharded_result, "sharded")
    rss_growth = peak_rss_mb() - rss_before

    overhead = streamed_seconds / memory_seconds
    print()
    print(f"in-memory: {memory_seconds:.2f}s | streamed: "
          f"{streamed_seconds:.2f}s | overhead {overhead:.2f}x | "
          f"sharded x4 streamed: {sharded_seconds:.2f}s | "
          f"{store.num_packets:,} packets, {store_mb:.1f} MB on disk | "
          f"peak RSS growth while streaming: {rss_growth:.1f} MB")
    record_result("streaming_replay", streamed_seconds,
                  speedup=memory_seconds / streamed_seconds,
                  in_memory_seconds=memory_seconds,
                  sharded_seconds=sharded_seconds,
                  packets=store.num_packets,
                  store_mb=store_mb,
                  peak_rss_growth_mb=rss_growth)
    assert rss_growth < MAX_RSS_GROWTH_MB
    assert overhead <= MAX_OVERHEAD


def test_persistent_workers_beat_serial_streaming(benchmark, tmp_path):
    """Out-of-core replay on the persistent shard-worker pool vs serial.

    This is the bug the worker pool fixes: ``num_shards=4`` used to run the
    shards serially in-process and *lose* to the unsharded replay.  With one
    resident process per shard and memory-file batch transport the sharded
    streamed replay must now beat the serial streamed replay wherever the
    host has cores to shard onto — and stay bit-identical to the in-process
    sharded execution everywhere.
    """
    profile = TrafficProfile(
        duration=max(1.5, 3.0 * BENCH_SCALE),
        flow_arrival_rate=8000.0,
        with_payloads=False,
        name="worker-bench",
    )
    store = generate_trace_store(tmp_path / "dense", profile, seed=34,
                                 segment_duration=1.0)
    trace = store.to_trace()

    capacity, _ = runner.calibrate_capacity(DENSE_QUERY_SET, trace)
    config = runner.system_config(queries=DENSE_QUERY_SET,
                                  cycles_per_second=capacity * 0.5, seed=29)
    sharded = config.replace(num_shards=NUM_SHARDS)

    def _serial():
        return config.build().run(store.streaming())

    def _workers():
        return build_system(sharded, backend="workers").run(
            store.streaming())

    # Warm the pipeline (JIT-free, but page cache + allocator pools) before
    # timing, mirroring bench_sharded.
    config.build().run(trace)

    serial_result, serial_seconds = _timed(_serial)
    (worker_result, worker_seconds), _ = benchmark.pedantic(
        lambda: (_timed(_workers), None),
        rounds=1, iterations=1, warmup_rounds=0)

    # Correctness first: bit-identical to the in-process sharded execution
    # of the identical configuration.
    in_process = build_system(sharded).run(store.streaming())
    assert_results_identical(in_process, worker_result, "workers")
    assert worker_result.total_packets == serial_result.total_packets

    speedup = serial_seconds / worker_seconds
    print()
    print(f"serial streamed: {serial_seconds:.2f}s | persistent workers "
          f"x{NUM_SHARDS}: {worker_seconds:.2f}s | speedup {speedup:.2f}x "
          f"(required >= {WORKER_MIN_SPEEDUP}x on {CORES} cores) | "
          f"{store.num_packets:,} packets")
    record_result("streaming_replay_workers", worker_seconds,
                  speedup=speedup,
                  serial_seconds=serial_seconds,
                  required_speedup=WORKER_MIN_SPEEDUP,
                  cores=CORES,
                  num_shards=NUM_SHARDS,
                  packets=store.num_packets)
    assert speedup >= WORKER_MIN_SPEEDUP
