"""Sharded execution: flow-hash partitioning across per-shard pipelines.

The paper's scheme runs one predictor/shedder over one packet stream, so no
matter how vectorised the batch path is, one core executes every query on
every bin.  This module partitions a single logical stream across ``N``
identical shards and folds their outputs back into one result:

* **Partitioning** — :meth:`repro.monitor.packet.Batch.partition` splits
  every bin's batch by the 5-tuple flow hash, so all packets of a flow land
  on the same shard and per-flow query state never spans shards.
* **Shards** — a shard is an ordinary
  :class:`~repro.monitor.session.MonitoringSession` over a full
  :class:`~repro.monitor.system.MonitoringSystem` (same mode, strategy and
  query set, built from a per-shard :class:`~repro.monitor.config.SystemConfig`
  with a fixed ``1/N`` slice of the cycle capacity and a shard-derived
  seed); the whole predict → allocate → shed → execute pipeline of
  Figure 3.2 runs per shard, unchanged.  What makes it a shard is who
  drives it: the node *steps* it
  (:meth:`~repro.monitor.session.MonitoringSession.step` /
  :meth:`~repro.monitor.session.MonitoringSession.finish`) and accumulates
  what comes out, where a whole monitor ``ingest``s and accumulates for
  itself.
* **Result merging** — every step returns the shard's :class:`BinRecord`
  and the mergeable *partial*
  (:meth:`repro.monitor.query.Query.interval_partial`) of every measurement
  interval the bin closed.  The node folds both into the one accumulator
  every tier uses (:class:`~repro.monitor.system.ExecutionResult`):
  ``add_bin`` merges the N records (:meth:`BinRecord.merge`),
  ``add_interval`` merges the N partials (``merge_partials``) and finishes
  the answer once (``finalize``) — so a sharded node that sheds nothing
  reports exactly what a serial one reports, for every query kind.  Shards
  whose flushed interval boundaries disagree raise
  :class:`ShardDivergenceError` at the bin where it shows.

With ``num_shards=1`` the partition returns the original batches, shard 0
keeps the full budget and the base seed, and every merge reduces to the
identity — the sharded run is bit-identical to the classic single-system
run (pinned by ``tests/test_sharding.py``).

Shards execute on one of two executors with the same method set
(``SystemConfig.shard_backend`` or the ``backend`` argument), and a
:class:`ShardedSession` drives either without knowing which:

* ``"inprocess"`` — :class:`InProcessShards`: every shard session runs
  serially in the caller.
* ``"workers"`` — one **persistent worker process per shard**
  (:class:`~repro.monitor.workers.ShardWorkerPool`): each bin's
  pre-partitioned columnar sub-batch travels through shared memory, what
  each step returns comes back on a result channel, and reconfiguration
  messages are piggybacked in FIFO order with the batches — so streaming
  sessions run on real parallelism, bit-identical to the in-process path.

``"auto"`` (the default) picks ``"workers"`` when parallelism was requested
(``n_workers > 1``) and the host can honour it, ``"inprocess"`` otherwise.
"""

from __future__ import annotations

import logging
import warnings
from collections import deque
from functools import cached_property
from itertools import zip_longest
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.cycles import CycleBudget
from ..core.pool import effective_workers
from ..profile import merged_summary
from .config import SystemConfig
from .packet import HEADER_FIELDS, Batch, PacketTrace, as_trace
from .pipeline import BinRecord
from .query import Query, QueryResultLog
from .system import ExecutionResult
from .workers import (ShardExecutionWarning, ShardWorkerPool,
                      fork_start_available, session_calls)

#: Header fields whose combined hash decides a packet's shard: the full
#: 5-tuple, so a flow's packets always land on the same shard.
FLOW_FIELDS: Tuple[str, ...] = HEADER_FIELDS

logger = logging.getLogger("repro.monitor.sharding")


class ShardDivergenceError(RuntimeError):
    """The shards of a node did not flush the same measurement intervals.

    Every shard sees the same bin timeline — empty sub-batches included —
    so they flush identical ``(query, interval start)`` sequences; one
    that does not has diverged, and its partials cannot be merged.
    """


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic per-shard seed; shard 0 keeps the base seed.

    Keeping shard 0 on the base seed is what makes ``num_shards=1`` runs
    bit-identical to unsharded ones; later shards walk the golden-ratio
    sequence so no two shards share sampler/noise streams.
    """
    return int((int(base_seed) + shard_index * 0x9E3779B1) % (2 ** 31))


# ----------------------------------------------------------------------
# The sharded system
# ----------------------------------------------------------------------
class ShardedSystem:
    """``N`` flow-affine shard systems behind one system-like facade.

    Parameters
    ----------
    query_factory:
        Zero-argument callable returning a fresh list of
        :class:`~repro.monitor.query.Query` instances; called once per
        shard so every shard owns independent query state.  ``None`` uses
        the config's declarative ``queries`` field (a spec mix is a
        factory by construction: every shard builds fresh instances).
    config:
        :class:`SystemConfig` of the *whole* system.  ``cycles_per_second``
        is the total capacity, split evenly across shards; ``num_shards``
        is read from it unless overridden by the keyword argument below.
    num_shards, backend:
        Optional overrides of the corresponding config fields (``backend``
        overrides ``shard_backend``).
    n_workers:
        ``> 1`` asks for process-parallel shard execution: ``"auto"``
        then runs the shards (streaming sessions included) on the
        persistent worker pool when the host can honour the request.
    respect_cores:
        Clamp parallelism to the host's core count (default); pass
        ``False`` to force real workers on small hosts (benchmarks do).
    """

    def __init__(self, query_factory: Optional[Callable[[], List[Query]]] = None,
                 config: Optional[SystemConfig] = None,
                 num_shards: Optional[int] = None,
                 n_workers: int = 1,
                 respect_cores: bool = True,
                 backend: Optional[str] = None) -> None:
        config = config if config is not None else SystemConfig()
        if num_shards is not None:
            config = config.replace(num_shards=int(num_shards))
        if backend is not None:
            config = config.replace(shard_backend=str(backend))
        self.config = config
        self.num_shards = config.num_shards
        self.backend = config.shard_backend
        self.n_workers = int(n_workers)
        self.respect_cores = bool(respect_cores)
        if query_factory is None:
            if config.queries is None:
                raise ValueError(
                    "ShardedSystem needs either a query_factory or a config "
                    "with a declarative 'queries' field")
            query_factory = config.build_queries
        self.query_factory = query_factory
        self.total_cycles_per_second = (
            config.cycles_per_second if config.cycles_per_second is not None
            else CycleBudget().cycles_per_second)
        share = self.total_cycles_per_second / self.num_shards
        # The fixed CoMo overhead models per-host bookkeeping: shards share
        # one host, so each pays its 1/N slice (the per-packet overhead
        # already scales with each shard's slice of the traffic).  Per-query
        # prediction overhead is *not* split — every shard genuinely runs
        # its own feature extractors and predictors, and that duplication
        # is the honest cost of sharding the predict/shed loop.
        self.shard_configs = [
            config.replace(
                num_shards=1, cycles_per_second=share,
                system_overhead_fixed=(config.system_overhead_fixed /
                                       self.num_shards),
                seed=shard_seed(config.seed, index))
            for index in range(self.num_shards)
        ]
        self.mode = config.mode
        #: Query class per name of the configured mix (drives the merge of
        #: the shards' partials).
        self.query_classes: Dict[str, type] = {}
        for query in query_factory():
            if query.name in self.query_classes:
                raise ValueError(
                    f"a query named {query.name!r} is already registered")
            self.query_classes[query.name] = type(query)

    @cached_property
    def systems(self) -> List:
        """One system per shard, built when first asked for: the shards of
        a worker pool are built inside the workers, and the parent then
        never pays for a set of its own."""
        return [shard_config.build(self.query_factory())
                for shard_config in self.shard_configs]

    @property
    def query_names(self) -> List[str]:
        return list(self.query_classes)

    # ------------------------------------------------------------------
    def resolve_backend(self) -> str:
        """The concrete backend this system executes on.

        ``"auto"`` resolves to the persistent worker pool exactly when the
        caller asked for parallelism (``n_workers > 1``), there is more
        than one shard, the host's core count can honour the request
        (unless ``respect_cores=False``), and the ``fork`` start method
        exists (so lambda query factories are inherited, not pickled).
        Everything else resolves to in-process execution.
        """
        if self.backend != "auto":
            return self.backend
        if (self.num_shards > 1
                and effective_workers(self.n_workers, self.num_shards,
                                      self.respect_cores) > 1
                and fork_start_available()):
            return "workers"
        return "inprocess"

    def open_session(self, time_bin: float = 0.1,
                     name: str = "live") -> "ShardedSession":
        """Open a push-based sharded session on the resolved backend.

        With the ``"workers"`` backend the session's shards live in the
        persistent worker pool; otherwise they run in-process.  A session
        that asked for parallel workers (``n_workers > 1``) but resolves
        to in-process execution warns (:class:`ShardExecutionWarning`)
        instead of silently running serial.
        """
        backend = self.resolve_backend()
        if self.num_shards == 1:
            backend = "inprocess"
        elif backend == "inprocess" and self.n_workers > 1:
            warnings.warn(
                f"sharded session {name!r} requested n_workers="
                f"{self.n_workers} but runs in-process (backend "
                f"{self.backend!r}) — pass backend='workers' to force the "
                "persistent worker pool", ShardExecutionWarning, stacklevel=2)
        return ShardedSession(self, time_bin=time_bin, name=name,
                              backend=backend)

    def run(self, trace: PacketTrace, time_bin: float = 0.1
            ) -> ExecutionResult:
        """Run the sharded system over a trace; returns the merged result.

        ``trace`` may also be a streaming trace or a trace store (anything
        :func:`repro.monitor.packet.as_trace` accepts); either executor
        streams it bin by bin with bounded memory.
        """
        trace = as_trace(trace)
        session = self.open_session(time_bin=time_bin, name=trace.name)
        return session.ingest_trace(trace).close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedSystem(mode={self.mode!r}, "
                f"num_shards={self.num_shards})")


def build_system(config: SystemConfig,
                 query_factory: Optional[Callable[[], List[Query]]] = None,
                 n_workers: int = 1, respect_cores: bool = True):
    """The system ``config`` describes: sharded when it says so.

    The one place that decides serial versus sharded.  Whoever opens the
    session a config describes goes through it — ``runner.run_system``, the
    serve daemon, and a session executor for each of its sessions (a
    shard's config builds a :class:`~repro.monitor.system.MonitoringSystem`,
    a fleet node's may nest a whole :class:`ShardedSystem`) — and gets back
    something with ``open_session(time_bin=, name=)`` and ``run(trace)``.
    ``query_factory=None`` uses the config's declarative ``queries``;
    ``n_workers`` / ``respect_cores`` are a sharded system's parallelism.
    """
    if config.num_shards > 1:
        return ShardedSystem(query_factory, config=config,
                             n_workers=n_workers, respect_cores=respect_cores)
    return config.build(None if query_factory is None else query_factory())


def verify_shard_exactness(config: SystemConfig, trace,
                           time_bin: float = 0.1, n_workers: int = 1,
                           respect_cores: bool = True) -> Dict:
    """Check that the sharded node reports what a serial node reports.

    Replays ``trace`` through ``config`` twice in reference mode — nothing
    is shed, so any difference is the shard merge's — once on one system
    and once on ``config.num_shards`` shards, and compares every query
    log with ``==``.  The shard-tier twin of
    :func:`repro.fleet.verify_exactness`, except that nothing is exempt:
    all query kinds merge exactly.  Returns a JSON-able verdict::

        {"identical": bool, "num_shards": N, "backend": ..., "bins": ...,
         "first_difference": None | {"query", "interval", "interval_start"},
         "queries": {name: {"intervals": n, "identical": bool}}}
    """
    config = config.replace(mode="reference")
    serial = config.replace(num_shards=1).build().run(trace,
                                                      time_bin=time_bin)
    sharded = ShardedSystem(config=config, n_workers=n_workers,
                            respect_cores=respect_cores)
    result = sharded.run(trace, time_bin=time_bin)
    queries: Dict[str, Dict] = {}
    first_difference = None
    for name, log in serial.query_logs.items():
        merged = result.query_logs.get(name, QueryResultLog(name))
        index = next((index for index, (mine, theirs)
                      in enumerate(zip_longest(log, merged))
                      if mine != theirs), None)
        queries[name] = {"intervals": len(log), "identical": index is None}
        if index is not None and first_difference is None:
            first_difference = {
                "query": name, "interval": index,
                "interval_start": (log if index < len(log)
                                   else merged).intervals[index]}
    return {"identical": first_difference is None,
            "num_shards": sharded.num_shards,
            "backend": sharded.resolve_backend(), "bins": len(result.bins),
            "first_difference": first_difference, "queries": queries}


# ----------------------------------------------------------------------
# The in-process shard executor
# ----------------------------------------------------------------------
class InProcessShards:
    """The :class:`ShardWorkerPool` method set over sessions in this process.

    The serial session executor: one session per system (a shard's
    :class:`~repro.monitor.session.MonitoringSession`, or whatever a fleet
    node's system opens), driven in order by the caller.  A session queues
    reconfigurations until its next bin itself, which is the bin-boundary
    semantics the worker pool gets from FIFO command pipes.  With
    ``ship_partials`` the sessions are the shards of one node: they are
    stepped (``step`` / ``finish``) and what each step returns is queued in
    :attr:`arrived`, as in the pool; without, every session is a monitor of
    its own (``ingest`` / ``close``).
    """

    def __init__(self, systems: Sequence, time_bin: float,
                 names: Sequence[str], ship_partials: bool = False) -> None:
        self.sessions = [system.open_session(time_bin=time_bin, name=name)
                         for system, name in zip(systems, names)]
        #: Wall seconds of every bin, per session.
        self.ingest_seconds: List[List[float]] = [[] for _ in self.sessions]
        #: See :attr:`ShardWorkerPool.arrived`.
        self.arrived: Optional[List[Deque[tuple]]] = \
            [deque() for _ in self.sessions] if ship_partials else None
        #: Nothing travels in-process: partials are handed over.
        self.partial_bytes = 0
        self._run_bin, self._end = session_calls(ship_partials)

    def ingest_async(self, shard: int, batch: Batch) -> BinRecord:
        """Session ``shard``'s bin, run on the spot: nothing runs
        concurrently here, so there is nothing to run ahead of."""
        started = perf_counter()
        record, shipped = self._run_bin(self.sessions[shard], batch)
        self.ingest_seconds[shard].append(perf_counter() - started)
        if self.arrived is not None:
            self.arrived[shard].append((record, shipped))
        return record

    def ingest(self, parts: Sequence[Batch]) -> List[BinRecord]:
        return [self.ingest_async(shard, part)
                for shard, part in enumerate(parts)]

    def set_capacity(self, shard: int, cycles_per_second: float) -> None:
        self.sessions[shard].set_capacity(cycles_per_second)

    def add_query(self, shard: int, query: Query, start_time=None) -> None:
        self.sessions[shard].add_query(query, start_time=start_time)

    def remove_query(self, shard: int, name: str) -> None:
        self.sessions[shard].remove_query(name)

    def metrics(self) -> List[Tuple]:
        return [(session.system.profiler,
                 session.system.feature_states.stats())
                for session in self.sessions]

    def session_metrics(self) -> List[Dict]:
        return [session.metrics for session in self.sessions]

    def session_states(self) -> List:
        """The live sessions themselves: serialise the result immediately."""
        return list(self.sessions)

    def load_sessions(self, sessions: Sequence) -> None:
        if len(sessions) != len(self.sessions):
            raise ValueError(
                f"need one session per shard: got {len(sessions)} for "
                f"{len(self.sessions)} shards")
        self.sessions = list(sessions)

    def close(self) -> List[Optional[ExecutionResult]]:
        """Every monitor's result; ``None`` for a stepped session, whose
        last intervals go to :attr:`arrived` instead."""
        ended = [self._end(session) for session in self.sessions]
        if self.arrived is not None:
            for queue, (_, shipped) in zip(self.arrived, ended):
                queue.append((None, shipped))
        return [result for result, _ in ended]

    def stop(self) -> None:
        """Nothing to release: the sessions die with the executor."""


# ----------------------------------------------------------------------
# The sharded session
# ----------------------------------------------------------------------
class ShardedSession:
    """Push-based execution handle over a :class:`ShardedSystem`.

    Mirrors :class:`~repro.monitor.session.MonitoringSession`: feed it one
    batch per time bin with :meth:`ingest` (the batch is flow-partitioned
    and fanned out to the per-shard sessions), reconfigure between bins,
    and :meth:`close` to obtain the merged
    :class:`~repro.monitor.system.ExecutionResult`.

    The per-shard sessions belong to a shard executor — ``backend`` picks
    :class:`InProcessShards` or one persistent worker process per shard
    (:class:`ShardWorkerPool`) — and every method below is written once
    against the executor's method set: reconfigurations apply at the next
    bin boundary on either, so the merged results are bit-identical.

    The executor steps the sessions and queues what each step returns in
    ``executor.arrived``; the node's result is accumulated here, folded as
    the deliveries come in (:meth:`_fold_arrivals`) — a bin's record when
    every shard has answered it, a measurement interval's result when every
    shard's partial of it is in.
    """

    def __init__(self, sharded: ShardedSystem, time_bin: float = 0.1,
                 name: str = "live", backend: str = "inprocess") -> None:
        self.sharded = sharded
        self.time_bin = float(time_bin)
        self.name = name
        self.num_shards = sharded.num_shards
        self.backend = backend
        self.budget = CycleBudget(sharded.total_cycles_per_second,
                                  self.time_bin)
        names = [name if self.num_shards == 1 else f"{name}[shard{index}]"
                 for index in range(self.num_shards)]
        if backend == "workers":
            self._executor = ShardWorkerPool(
                sharded.shard_configs, sharded.query_factory,
                time_bin=self.time_bin, names=names, ship_partials=True)
        elif backend == "inprocess":
            self._executor = InProcessShards(sharded.systems, self.time_bin,
                                             names, ship_partials=True)
        else:
            raise ValueError(
                f"unknown session backend {backend!r}; sharded sessions run "
                "'inprocess' or on persistent 'workers'")
        # State the executor's sessions also hold, mirrored here so no
        # question about it needs a round trip to a worker.
        self._bins_ingested = 0
        self._query_names: List[str] = list(sharded.query_names)
        #: The node's own bins and query logs, folded from the deliveries
        #: (each interval finished by the class its query had when it was
        #: flushed, which the result keeps track of).
        self._result = ExecutionResult(sharded.mode, sharded.config.strategy,
                                       name, self.budget)
        self._result.open_logs(self._query_names)
        for query_name, query_cls in sharded.query_classes.items():
            self._result.query_arrives(query_name, query_cls)
        self._merge_stats = {"intervals_merged": 0, "merge_seconds": 0.0,
                             "divergences": 0}
        #: (packets, total cycles) each shard reported for the previous bin.
        self._prev_load: List[Optional[Tuple[int, float]]] = \
            [None] * self.num_shards
        #: ``metrics`` as :meth:`close` left them (``None``: still open).
        self._closed_metrics: Optional[Dict] = None

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed_metrics is not None

    @property
    def bins_ingested(self) -> int:
        return self._bins_ingested

    @property
    def query_names(self) -> List[str]:
        """Queries registered, counting changes queued for the next bin."""
        return list(self._query_names)

    @property
    def shard_loads(self) -> List[Optional[Tuple[int, float]]]:
        """Previous bin's ``(packets, cycles)`` per shard.

        Exported so operational surfaces (``repro.serve``'s per-shard
        utilisation metrics) can report shard skew without poking at
        internals.
        """
        return list(self._prev_load)

    @property
    def metrics(self) -> Dict:
        """Operational metrics folded across the shards (JSON-able).

        Same shape as :attr:`MonitoringSession.metrics` — per-stage
        profile plus feature-sharing counts — with per-shard stage
        totals summed and per-bin latency series concatenated, plus a
        ``sharding`` block about the result merge: measurement intervals
        merged, bytes of the shard replies that carried partials (nothing
        travels in-process: 0), seconds spent merging and finalising, and
        shard divergences detected.  The shard numbers are read at a bin
        boundary (on the workers backend they travel the command pipes,
        FIFO with the batches); a closed session returns the snapshot
        taken at close time.
        """
        if self._closed_metrics is not None:
            return self._closed_metrics
        shards = self._executor.metrics()
        self._fold_arrivals()
        return self._fold_metrics(shards)

    def _fold_metrics(self, shards: Sequence[Tuple]) -> Dict:
        """Per-shard ``(profiler, sharing stats)`` pairs as one document."""
        sharing: Dict[str, int] = {}
        for _, stats in shards:
            for key, value in stats.items():
                sharing[key] = sharing.get(key, 0) + value
        merged = {"profile": merged_summary([prof for prof, _ in shards]),
                  "feature_sharing": sharing,
                  "sharding": dict(
                      self._merge_stats,
                      partial_bytes=self._executor.partial_bytes)}
        groups = self.sharded.config.tenants
        if groups:
            merged["tenants"] = {
                "count": len(groups),
                "query_cycles": self._result.tenant_cycle_totals()}
        return merged

    # ------------------------------------------------------------------
    # Folding what the shards deliver
    # ------------------------------------------------------------------
    def _fold_arrivals(self) -> Optional[BinRecord]:
        """Fold every delivery all the shards have made.

        Each shard's queue holds, in order, one ``(record, shipped)`` per
        answered bin — ``shipped`` the partials of the intervals that bin
        flushed — and a last ``(None, shipped)`` for what ``close`` flushed.
        Returns the merged record of the last bin folded, if any.
        """
        queues = self._executor.arrived
        merged = None
        while all(queues):
            records, shipped = zip(*(queue.popleft() for queue in queues))
            if records[0] is not None:
                for index, record in enumerate(records):
                    self._prev_load[index] = (record.incoming_packets,
                                              record.total_cycles)
                merged = self._result.add_bin(records)
            self._fold_partials(shipped)
        return merged

    def _fold_partials(self, shipped: Sequence[Sequence[tuple]]) -> None:
        """Merge and finalise the intervals one bin (or close) flushed.

        ``shipped[i]`` is shard ``i``'s ``(query name, interval start,
        partial)`` list; all must name the same intervals in the same
        order.
        """
        started = perf_counter()
        flushed = [[entry[:2] for entry in shard] for shard in shipped]
        for index, boundaries in enumerate(flushed[1:], start=1):
            if boundaries != flushed[0]:
                raise self._diverged(index, flushed[0], boundaries)
        self._result.add_intervals(shipped)
        self._merge_stats["intervals_merged"] += len(flushed[0])
        self._merge_stats["merge_seconds"] += perf_counter() - started

    def _diverged(self, shard: int, expected: List[tuple],
                  flushed: List[tuple]) -> ShardDivergenceError:
        """The error for ``shard`` flushing other intervals than shard 0."""
        self._merge_stats["divergences"] += 1

        def described(entry: Optional[tuple]) -> str:
            return "nothing more" if entry is None else \
                f"query {entry[0]!r} at interval start {entry[1]!r}"

        mine, theirs = next(pair for pair in zip_longest(expected, flushed)
                            if pair[0] != pair[1])
        message = (
            f"shard {shard} of session {self.name!r} flushed "
            f"{described(theirs)} where shard 0 flushed {described(mine)} "
            f"(bin {len(self._result.bins)}): the shards have diverged")
        logger.error(message)
        return ShardDivergenceError(message)

    # ------------------------------------------------------------------
    def _partition(self, batch: Batch) -> List[Batch]:
        """A bin boundary: the bin's per-shard sub-batches."""
        if self.closed:
            raise RuntimeError("cannot ingest into a closed session")
        self._result.open_logs(self._query_names)
        self._bins_ingested += 1
        return batch.partition(self.num_shards, FLOW_FIELDS)

    def ingest(self, batch: Batch) -> BinRecord:
        """Partition one bin's batch, drive every shard, merge the records."""
        self._executor.ingest(self._partition(batch))
        return self._fold_arrivals()

    def ingest_trace(self, source) -> "ShardedSession":
        """Stream every bin of ``source`` through the shards.

        Accepts anything :func:`repro.monitor.packet.as_trace` does; a
        trace store replays out-of-core — each bin is flow-partitioned and
        fanned out to the shards, one bin in memory at a time.  Returns
        ``self`` for chaining.

        Ingestion is *pipelined*: each bin's sub-batches are handed over
        without waiting for the bin's records.  The worker pool's double
        buffering bounds the run-ahead to two bins per shard, so
        partitioning and store I/O overlap shard compute; in-process the
        bin has run by the time it is handed over.
        """
        for batch in as_trace(source).batches(self.time_bin):
            for index, part in enumerate(self._partition(batch)):
                self._executor.ingest_async(index, part)
            self._fold_arrivals()  # whatever has come back meanwhile
        return self

    def close(self) -> ExecutionResult:
        """Finish every shard session and return the merged result."""
        if not self.closed:
            shards = self._executor.metrics()  # workers are gone afterwards
            self._result.open_logs(self._query_names)  # the last boundary
            self._executor.close()
            self._fold_arrivals()
            self._closed_metrics = self._fold_metrics(shards)
        return self._result

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Complete execution state, as a serialisable checkpoint payload.

        The per-shard :class:`~repro.monitor.session.MonitoringSession`
        objects carry the running state (open intervals included); on the
        ``workers`` backend they are copied out of the worker processes at
        the current bin boundary (the workers keep streaming).  What the
        node keeps — its accumulated result (merged bins and query logs,
        per-tenant cycle totals, the possibly ``set_capacity``-adjusted
        total budget and the query classes that finish the intervals) —
        rides along so a restored session continues bit-identically.
        Serialise
        the payload immediately (it aliases live objects on the in-process
        backend); :mod:`repro.serve.checkpoint` wraps it in the on-disk
        format.
        """
        if self.closed:
            raise RuntimeError("cannot checkpoint a closed session")
        # The states are cut at a bin boundary every earlier delivery has
        # crossed: folded now, the logs cover exactly the states' bins.
        shard_sessions = self._executor.session_states()
        self._fold_arrivals()
        return {
            "kind": "sharded",
            "config": self.sharded.config,
            "shard_sessions": shard_sessions,
            "result": self._result,
            "bins_ingested": self._bins_ingested,
            "query_names": list(self._query_names),
        }

    @classmethod
    def from_state(cls, state: Dict, n_workers: int = 1,
                   backend: Optional[str] = None,
                   respect_cores: bool = True) -> "ShardedSession":
        """Rebuild a session from a deserialised :meth:`state_dict` payload.

        The execution backend is chosen *at restore time* (``backend`` /
        ``n_workers``), independently of what the checkpointed run used:
        the state is backend-agnostic, so a run checkpointed on the
        ``workers`` pool may resume in-process and vice versa — results
        stay bit-identical either way.  The session is opened like any
        other; its executor then adopts the checkpointed shard sessions.
        """
        if state.get("kind") != "sharded":
            raise ValueError(
                f"not a ShardedSession checkpoint payload: "
                f"kind={state.get('kind')!r}")
        config = state["config"]
        # The checkpointed sessions replace whatever the factory builds, so
        # without a declarative mix any picklable factory of no queries
        # will do (spawn-start worker pools pickle it).
        factory = (config.build_queries if config.queries is not None
                   else list)
        sharded = ShardedSystem(query_factory=factory, config=config,
                                n_workers=n_workers,
                                respect_cores=respect_cores,
                                backend=backend)
        result = state["result"]
        sharded.total_cycles_per_second = result.budget.cycles_per_second
        session = sharded.open_session(time_bin=result.budget.time_bin,
                                       name=result.trace_name)
        try:
            session._executor.load_sessions(state["shard_sessions"])
        except BaseException:
            session._executor.stop()
            raise
        session._bins_ingested = int(state["bins_ingested"])
        session._query_names = list(state["query_names"])
        session._result = result
        return session

    def partial_result(self) -> ExecutionResult:
        """The node's accuracy-so-far snapshot: every completed interval,
        merged as exactly as at :meth:`close` (shards keep running)."""
        if self.closed:
            raise RuntimeError("cannot snapshot a closed session; close() "
                               "already returned the final result")
        self._executor.metrics()  # answered once every bin sent is
        self._fold_arrivals()
        return self._result.snapshot()

    # ------------------------------------------------------------------
    # Live reconfiguration (forwarded to every shard, next bin boundary)
    # ------------------------------------------------------------------
    def add_query(self, query_factory: Callable[[], Query],
                  start_time: Optional[float] = None) -> None:
        """Register a query on every shard (one fresh instance each)."""
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        instances = [query_factory() for _ in range(self.num_shards)]
        name = instances[0].name
        if name in self._query_names:
            raise ValueError(f"a query named {name!r} is already registered")
        for shard, query in enumerate(instances):
            self._executor.add_query(shard, query, start_time=start_time)
        self._query_names.append(name)
        self._result.query_arrives(name, type(instances[0]),
                                   boundary=self._bins_ingested)

    def remove_query(self, name: str) -> None:
        """Deregister a query from every shard.

        Its flushed intervals, the last one included, remain part of the
        session's merged result, merged and finished by its own class.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        if name not in self._query_names:
            raise KeyError(f"no query named {name!r} is registered")
        for shard in range(self.num_shards):
            self._executor.remove_query(shard, name)
        self._query_names.remove(name)

    def set_capacity(self, cycles_per_second: float) -> None:
        """Change the *total* capacity; shards re-split it evenly, from
        the next bin boundary on."""
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        cycles_per_second = float(cycles_per_second)
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        self.sharded.total_cycles_per_second = cycles_per_second
        self.budget = self._result.budget = \
            CycleBudget(cycles_per_second, self.time_bin)
        # Queued by an in-process session itself, FIFO with the batches on
        # a worker's command pipe: applied at the next bin's boundary.
        for shard in range(self.num_shards):
            self._executor.set_capacity(shard,
                                        cycles_per_second / self.num_shards)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            # Never leak worker processes / shared memory past an error.
            self._executor.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"ShardedSession(shards={self.num_shards}, "
                f"backend={self.backend!r}, "
                f"bins={self.bins_ingested}, {state})")


__all__ = [
    "FLOW_FIELDS",
    "InProcessShards",
    "ShardDivergenceError",
    "ShardExecutionWarning",
    "ShardWorkerPool",
    "ShardedSession",
    "ShardedSystem",
    "build_system",
    "shard_seed",
    "verify_shard_exactness",
]
