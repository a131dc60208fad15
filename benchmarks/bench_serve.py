"""Benchmark: daemon-path ingest throughput versus the offline replay.

The serve subsystem adds machinery around every bin — an asyncio hop, an
executor dispatch, a lock, per-bin counters, the live ops surface.  This
benchmark measures what that costs: the same generated trace store is
replayed once offline (``config.build().run(store)``) and once
through a full ``MonitorDaemon`` (unpaced ``ReplayFeed``, ops API bound
and answering), with both runs required to be bit-identical.

The acceptance bar is a throughput *floor*, not a target: daemon ingest
must retain at least ``MIN_RELATIVE`` of the offline throughput.  The
paper's bins are 100 ms; per-bin service overhead is invisible at that
cadence unless it regresses catastrophically, which is exactly what the
floor trips on.  While the stream runs, ``/status`` is polled over HTTP
to pin that ops stay responsive mid-ingest (their latency is recorded in
the report).
"""

import asyncio
import json
import threading
import time
import urllib.request

from conftest import BENCH_SCALE, record_result

from repro.experiments import runner
from repro.serve import MonitorDaemon, ReplayFeed
from repro.testing import assert_results_identical
from repro.traffic.generator import TrafficProfile, generate_trace_store

QUERY_SET = "counter,flows,top-k"
TIME_BIN = 0.1
#: Daemon ingest must keep at least this fraction of offline throughput.
#: The daemon pays an asyncio+executor+lock round trip per 100 ms bin —
#: microseconds of overhead against milliseconds of pipeline work — so
#: anything below this means the serve path grew a real bottleneck.
MIN_RELATIVE = 0.4


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _poll_status(port, stop, latencies):
    while not stop.is_set():
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/status", timeout=5) as resp:
                json.loads(resp.read())
            latencies.append(time.perf_counter() - start)
        except OSError:
            pass
        time.sleep(0.05)


def test_daemon_ingest_keeps_offline_throughput(benchmark, tmp_path):
    profile = TrafficProfile(duration=max(3.0, 8.0 * BENCH_SCALE),
                             flow_arrival_rate=2000.0, name="serve-bench")
    store = generate_trace_store(tmp_path / "store", profile, seed=17,
                                 segment_duration=2.0, time_bin=TIME_BIN)
    capacity, _ = runner.calibrate_capacity(
        QUERY_SET.split(","), store.to_trace(), time_bin=TIME_BIN)
    config = runner.system_config(queries=QUERY_SET, seed=9,
                                  cycles_per_second=capacity * 0.5)

    def _offline():
        return config.build().run(store, time_bin=TIME_BIN)

    def _daemon():
        daemon = MonitorDaemon(
            config, ReplayFeed(store, time_bin=TIME_BIN), name="bench")
        box = {}

        def drive():
            box["result"] = asyncio.run(daemon.run())

        thread = threading.Thread(target=drive)
        thread.start()
        while daemon.bound_port == 0 and thread.is_alive():
            time.sleep(0.005)
        stop, latencies = threading.Event(), []
        poller = threading.Thread(target=_poll_status,
                                  args=(daemon.bound_port, stop, latencies))
        poller.start()
        thread.join()
        stop.set()
        poller.join()
        return box["result"], latencies, daemon

    offline_result, offline_seconds = _timed(_offline)
    ((daemon_result, latencies, daemon), daemon_seconds), _ = \
        benchmark.pedantic(
            lambda: (_timed(_daemon), None),
            rounds=1, iterations=1, warmup_rounds=0)

    # Correctness first: the service path is the offline path, bit for bit.
    assert_results_identical(offline_result, daemon_result, "serve")

    bins = len(daemon_result.bins)
    relative = offline_seconds / daemon_seconds
    max_status = max(latencies) if latencies else 0.0
    print()
    print(f"offline ingest: {offline_seconds:.2f}s | daemon ingest "
          f"(ops API live, {len(latencies)} status polls): "
          f"{daemon_seconds:.2f}s | relative throughput {relative:.2f}x "
          f"(floor {MIN_RELATIVE}x) | {bins} bins, "
          f"{daemon_result.total_packets:,} packets | slowest /status "
          f"{max_status * 1000:.0f} ms")
    record_result("serve_ingest", daemon_seconds,
                  speedup=relative,
                  bin_seconds=daemon.session.system.profiler.bin_seconds,
                  offline_seconds=offline_seconds,
                  required_relative=MIN_RELATIVE,
                  bins=bins,
                  bins_per_second=bins / daemon_seconds,
                  packets=daemon_result.total_packets,
                  status_polls=len(latencies),
                  max_status_seconds=max_status)
    assert relative >= MIN_RELATIVE
