"""The five closed-loop workloads: inputs, tiers and oracles.

Every workload offers the next 100 ms bin when the previous one completes
(one bin in flight).  The shedder acts on *simulated* cycles, so pacing
bins to the wall clock would change nothing the program computes; "keeps up
with a 100 ms bin" is read off ``bin_ms_p90`` instead.

The parent process calls :func:`prepare` once (store generation, capacity
calibration and oracle runs, all untimed); each repeat then runs
:func:`run_repeat` in a fresh child process that sees only the store and
the config.
"""

from __future__ import annotations

import asyncio
import re
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.tenancy import TenantGroup
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.config import SystemConfig
from repro.monitor.sharding import ShardedSystem
from repro.monitor.system import ExecutionResult
from repro.queries import QuerySpec
from repro.serve import MonitorDaemon, restore_session
from repro.serve.feeds import Feed
from repro.traffic.generator import TrafficProfile, generate_trace_store
from repro.traffic.trace_io import TraceStore

from tracer import ROOT, Tracer

TIME_BIN = 0.1
#: The paper's overload factor: capacity = (1 - K) x what the queries need.
OVERLOAD_K = 0.5
HEADER_QUERIES = ("counter,flows,top-k,application,high-watermark,"
                  "autofocus,super-sources")
SHARDS = 2
FLEET_NODES = 8
#: Shard workers / fleet pool size: the host has two cores.
PROCESSES = 2
CHECKPOINT_EVERY_BINS = 25
PROBE_EVERY_BINS = 20
HTTP_TIMEOUT_S = 30.0
#: The gate's poll period; it bounds how late a finished bin is noticed.
GATE_POLL_S = 0.0005


def _tenant_config() -> SystemConfig:
    """16 queries = 4 kinds x 4 filters, dealt into 4 tenant groups."""
    specs = [QuerySpec(kind, {"name": f"q{index:02d}"}, filter=expression)
             for index, (expression, kind) in enumerate(
                 (expression, kind)
                 for expression in (None, "tcp", "port:80", "port:53")
                 for kind in ("counter", "flows", "top-k", "application"))]
    groups = (
        TenantGroup("t0", specs[0::4], weight=1),
        TenantGroup("t1", specs[1::4], weight=2, budget_share=0.3),
        TenantGroup("t2", specs[2::4], weight=3, min_rate=0.01),
        TenantGroup("t3", specs[3::4], weight=1),
    )
    return SystemConfig(strategy="mmfs_cpu", tenants=groups)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Which execution tier carries the bins: session | workers | fleet | serve.
    tier: str
    traffic: Dict
    #: Added to ``--seed`` for the store (dense 0, sparse 1, payload 2).
    seed_offset: int
    config: Callable[[], SystemConfig]


WORKLOADS = {w.name: w for w in (
    Workload(
        "session-header",
        "Paper Ch.4 set-up: 7 header queries on ~6k pkt/bin, one session. "
        "Per-packet work dominates; nothing contends, so a faster layer saves "
        "at most its self-time share of the bin.",
        "session", dict(duration=12, flow_arrival_rate=5000), 0,
        lambda: SystemConfig(queries=HEADER_QUERIES)),
    Workload(
        "session-tenants",
        "16 queries in 4 tenant groups on ~1k pkt/bin: per-query per-bin "
        "fixed cost (prediction, sharing registry, two-tier water-fill) "
        "dominates and packets do not. Bypasses what session-header stresses.",
        "session", dict(duration=10, flow_arrival_rate=800), 1,
        _tenant_config),
    Workload(
        "workers-header",
        "session-header's packets on 2 persistent shard workers: adds "
        "partition, shm pack, pipe round-trips, merge, 2x fixed cost. A bin "
        "waits for the slower shard, so shard_skew scales child savings.",
        "workers", dict(duration=12, flow_arrival_rate=5000), 0,
        lambda: SystemConfig(queries=HEADER_QUERIES)),
    Workload(
        "fleet-header",
        "8 forked node jobs on 2 workers at half rate, 3 queries, federated: "
        "per-node fixed cost counts 4x per bin of wall. The heaviest "
        "workload; answers where the fleet overhead goes.",
        "fleet", dict(duration=10, flow_arrival_rate=2500), 0,
        lambda: SystemConfig(queries="counter,flows,top-k")),
    Workload(
        "serve-payload",
        "Payload queries through MonitorDaemon behind a gated feed, with "
        "ops probes: asyncio hop, lock, custom shedding, exact counters. "
        "Checkpoint writes hold the ingest lock: bin_ms_p90, not p50.",
        "serve", dict(duration=12, flow_arrival_rate=1200,
                      with_payloads=True), 2,
        lambda: SystemConfig(
            queries="counter,flows,top-k,pattern-search,p2p-detector,trace",
            strategy="mmfs_pkt", feature_method="exact")),
)}


# ----------------------------------------------------------------------
# Reading bins
# ----------------------------------------------------------------------
class BinSource:
    """The store's bins, fresh from ``store.streaming()`` on every pass.

    Implements the trace protocol (``name`` / ``batches`` / ``batch_list``)
    so the fleet runner can consume it too; each bin is read under a
    ``trace_io.read`` span.
    """

    def __init__(self, store: TraceStore, tracer: Tracer) -> None:
        self.store = store
        self.name = store.name
        self.tracer = tracer

    def batches(self, time_bin: float = TIME_BIN):
        bins = iter(self.store.streaming().batches(time_bin))
        while True:
            with self.tracer.span("trace_io.read"):
                batch = next(bins, None)
            if batch is None:
                return
            yield batch

    batch_list = batches


def _run(session, source: BinSource) -> ExecutionResult:
    """Every bin of ``source`` through one session, then close it."""
    for batch in source.batches():
        session.ingest(batch)
    return session.close()


# ----------------------------------------------------------------------
# Parent side: inputs and oracles (untimed)
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    workload: Workload
    store_path: Path
    config: SystemConfig
    bins: int
    packets: int
    #: Query instance name -> registry kind (accuracy metrics go by kind).
    kinds: Dict[str, str]
    #: ``mode="reference"`` run: capacity source and accuracy ground truth.
    reference: ExecutionResult
    #: What the tier's result must be bit-identical to (``None``: no oracle).
    oracle: Optional[ExecutionResult]


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate the store from ``seed``, calibrate capacity, run oracles."""
    profile = TrafficProfile(name=workload.name, **workload.traffic)
    store = generate_trace_store(workdir / "store", profile,
                                 seed=seed + workload.seed_offset,
                                 time_bin=TIME_BIN)
    source = BinSource(store, Tracer())
    config = workload.config().replace(seed=seed + 3)
    reference = _run(config.replace(mode="reference").build()
                     .open_session(time_bin=TIME_BIN), source)
    per_second = np.quantile(reference.cycles_per_bin(), 0.95) / TIME_BIN
    config = config.replace(
        cycles_per_second=(1.0 - OVERLOAD_K) * float(per_second))
    oracle = None
    if workload.tier == "workers":
        oracle = _run(ShardedSystem(config=config, num_shards=SHARDS,
                                    backend="inprocess")
                      .open_session(time_bin=TIME_BIN), source)
    elif workload.tier == "fleet":
        # The whole fleet in-process costs 11-22 s, so only node 0 is
        # replayed here; tests/test_fleet.py keeps the full identity.
        runner = fleet_runner(config, backend="inprocess")
        streams, _ = runner.node_streams(source, TIME_BIN)
        session = runner.topology.node_configs(config)[0].build() \
            .open_session(time_bin=TIME_BIN)
        for batch in streams[0]:
            session.ingest(batch)
        oracle = session.close()
    elif workload.tier == "serve":
        oracle = _run(config.build().open_session(time_bin=TIME_BIN), source)
    return Prepared(
        workload=workload, store_path=store.path, config=config,
        bins=len(reference.bins), packets=len(store),
        kinds={spec.instance_name: spec.kind for spec in config.queries},
        reference=reference, oracle=oracle)


def fleet_runner(config: SystemConfig, backend: str = "fork") -> FleetRunner:
    return FleetRunner(FleetTopology.uniform(FLEET_NODES), config=config,
                       backend=backend, n_workers=PROCESSES,
                       respect_cores=False)


def single_node_seconds(prepared: Prepared) -> float:
    """One predictive node over the whole store (the fleet's yardstick)."""
    source = BinSource(TraceStore(prepared.store_path), Tracer())
    session = prepared.config.build().open_session(time_bin=TIME_BIN)
    started = time.perf_counter()
    _run(session, source)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Child side: one repeat
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Peak resident set of this process and of the children it waited for.

    Its own peak is ``VmHWM``, not ``ru_maxrss``: across ``exec`` Linux
    carries the spawner's high-water mark over into ``ru_maxrss``, so a
    repeat would report the benchmark's parent process, not itself.
    """
    status = Path("/proc/self/status").read_text()
    own_kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def run_repeat(workload: Workload, store_path: Path, config: SystemConfig,
               tracer: Tracer, workdir: Path, started: float) -> Dict:
    """The whole store through the workload's tier; returns raw numbers.

    ``started`` is the child's start time (taken before ``import numpy``);
    ``setup_s`` runs from there until the tier is ready for its first bin.
    The timed region is the store read, every ``ingest`` and ``close()``.
    """
    store = TraceStore(store_path)
    source = BinSource(store, tracer)
    if workload.tier == "fleet":
        return _repeat_fleet(config, source, tracer, started)
    if workload.tier == "serve":
        return _repeat_serve(config, source, tracer, workdir, started)
    out: Dict = {}
    if workload.tier == "workers":
        sharded = ShardedSystem(config=config, num_shards=SHARDS,
                                backend="workers", n_workers=PROCESSES,
                                respect_cores=False)
        fork_started = time.perf_counter()
        session = sharded.open_session(time_bin=TIME_BIN, name=workload.name)
        out["workers_start_s"] = time.perf_counter() - fork_started
    else:
        session = config.build().open_session(time_bin=TIME_BIN,
                                              name=workload.name)
    bin_s: List[float] = []
    shard_packets: List[List[int]] = []
    with session:  # stops the worker pool if a bin raises
        ready = time.perf_counter()
        tracer.begin(ROOT)
        for index, batch in enumerate(source.batches()):
            tracer.bin = index
            bin_started = time.perf_counter()
            session.ingest(batch)
            bin_s.append(time.perf_counter() - bin_started)
            if workload.tier == "workers":
                shard_packets.append([load[0] for load in session.shard_loads])
        tracer.bin = -1
        result = session.close()
        tracer.end()
        finished = time.perf_counter()
    out.update(setup_s=ready - started, region_s=finished - ready,
               bin_s=bin_s, result=result,
               rss_mb=_peak_rss_mb(), profile=session.metrics,
               shard_packets=shard_packets)
    return out


def _repeat_fleet(config: SystemConfig, source: BinSource, tracer: Tracer,
                  started: float) -> Dict:
    runner = fleet_runner(config)
    ready = time.perf_counter()
    tracer.begin(ROOT)
    fleet = runner.run(source, time_bin=TIME_BIN)
    tracer.end()
    finished = time.perf_counter()
    return dict(setup_s=ready - started, region_s=finished - ready,
                bin_s=fleet.bin_latency.tolist(),
                result=fleet.federated, rss_mb=_peak_rss_mb(),
                profile=fleet.metrics,
                node_results=fleet.node_results,
                node_bin_s=fleet.node_bin_seconds)


class GatedFeed(Feed):
    """Closed-loop feed: bin *i+1* is released once bin *i* is ingested.

    Between bins, every ``PROBE_EVERY_BINS``-th bin, it also issues one
    ``GET /status`` and one ``GET /metrics`` over a fresh connection —
    only while the gate holds the daemon idle, so a probe never races a bin.
    """

    def __init__(self, source: BinSource, tracer: Tracer) -> None:
        super().__init__(time_bin=TIME_BIN, name=source.name)
        self.source = source
        self.tracer = tracer
        self.daemon: Optional[MonitorDaemon] = None
        self.ready = 0.0
        self.bin_s: List[float] = []
        #: ``(path, HTTP status or 0, seconds)`` per ops probe.
        self.http: List[tuple] = []

    async def batches(self):
        tracer, daemon = self.tracer, self.daemon
        loop = asyncio.get_running_loop()
        # The daemon binds its API before it asks for the first bin.
        self.ready = time.perf_counter()
        tracer.begin(ROOT)
        for index, batch in enumerate(self.source.batches()):
            if self._stopping:
                break
            tracer.bin = index
            released = time.perf_counter()
            tracer.begin("serve.bin")
            yield batch
            while daemon.bins_ingested <= index:
                await asyncio.sleep(GATE_POLL_S)
            if (index + 1) % CHECKPOINT_EVERY_BINS == 0:
                # The bin's checkpoint is written after the counter moved,
                # still under the ingest lock; any locking read waits it out.
                await loop.run_in_executor(None, daemon.session_metrics)
            tracer.end()
            self.bin_s.append(time.perf_counter() - released)
            tracer.bin = -1
            if (index + 1) % PROBE_EVERY_BINS == 0:
                for path in ("/status", "/metrics"):
                    await self._probe(path)
        self.done = True
        tracer.begin("serve.shutdown")

    async def _probe(self, path: str) -> None:
        started = time.perf_counter()
        status = 0
        with self.tracer.span("serve." + path.strip("/")):
            try:
                status = await asyncio.wait_for(
                    _http_get(self.daemon.bound_port, path), HTTP_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                pass
        self.http.append((path, status, time.perf_counter() - started))


async def _http_get(port: int, path: str) -> int:
    """One GET on a fresh connection; returns the HTTP status code."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    return int(response.split(b" ", 2)[1])


def _repeat_serve(config: SystemConfig, source: BinSource, tracer: Tracer,
                  workdir: Path, started: float) -> Dict:
    feed = GatedFeed(source, tracer)
    daemon = MonitorDaemon(config, feed, checkpoint_dir=workdir / "checkpoint",
                           checkpoint_every_bins=CHECKPOINT_EVERY_BINS,
                           name=source.name)
    feed.daemon = daemon
    result = asyncio.run(daemon.run())
    tracer.end()  # serve.shutdown
    tracer.end()  # the root span the feed opened
    finished = time.perf_counter()
    rss_mb = _peak_rss_mb()
    restore_started = time.perf_counter()
    restored = restore_session(daemon.checkpoint_path)
    restore_s = time.perf_counter() - restore_started
    return dict(setup_s=feed.ready - started, region_s=finished - feed.ready,
                bin_s=feed.bin_s, result=result,
                rss_mb=rss_mb, profile=daemon.session.metrics, http=feed.http,
                restored_bins=restored.bins_ingested, restore_s=restore_s,
                checkpoint_mb=daemon.checkpoint_path.stat().st_size / 2**20)
