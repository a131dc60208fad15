"""Sharded execution: flow-hash partitioning across per-shard pipelines.

The paper's scheme runs one predictor/shedder over one packet stream, so no
matter how vectorised the batch path is, one core executes every query on
every bin.  This module partitions a single logical stream across ``N``
identical shard workers and folds their outputs back into one result:

* **Partitioning** — :meth:`repro.monitor.packet.Batch.partition` splits
  every bin's batch by the 5-tuple flow hash, so all packets of a flow land
  on the same shard and per-flow query state never spans workers.
* **Shard workers** — each shard is a full
  :class:`~repro.monitor.system.MonitoringSystem` (same mode, strategy and
  query set, built from a per-shard :class:`~repro.monitor.config.SystemConfig`
  with ``1/N`` of the cycle capacity and a shard-derived seed) driven
  through a streaming :class:`~repro.monitor.session.MonitoringSession`;
  the whole predict → allocate → shed → execute pipeline of Figure 3.2 runs
  per shard, unchanged.
* **Capacity rebalancing** — before each bin, shards whose predicted demand
  leaves headroom under their base capacity share lend that headroom to
  shards predicted to overload, so a skewed bin sheds less than a static
  ``1/N`` split would (capacity is conserved bin by bin; every shard keeps
  a configurable floor).
* **Result merging** — per-shard :class:`BinRecord`/``ExecutionResult``
  objects fold into stream-global ones; per-interval query results merge
  through :meth:`repro.monitor.query.Query.merge_interval_results`
  (additive for flow-disjoint state, rank/union/sum merges where queries
  override it).

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
  pre-partitioned columnar sub-batch travels through shared memory, per-bin
  records come back on a result channel, and capacity-rebalance /
  reconfiguration messages are piggybacked in FIFO order with the batches —
  so streaming sessions *and* ``shard_rebalance=True`` run on real
  parallelism, bit-identical to the in-process path.

``"auto"`` (the default) picks ``"workers"`` when parallelism was requested
(``n_workers > 1``) and the host can honour it, ``"inprocess"`` otherwise.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cycles import CycleBudget
from ..core.pool import effective_workers
from ..profile import merged_summary
from .config import SystemConfig
from .packet import HEADER_FIELDS, Batch, PacketTrace, as_trace
from .pipeline import BinRecord
from .query import Query
from .system import ExecutionResult
from .workers import (ShardExecutionWarning, ShardWorkerPool,
                      fork_start_available)

#: Header fields whose combined hash decides a packet's shard: the full
#: 5-tuple, so a flow's packets always land on the same shard.
FLOW_FIELDS: Tuple[str, ...] = HEADER_FIELDS


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
        is the total capacity, split evenly across shards;
        ``num_shards`` / ``shard_rebalance`` / ``shard_rebalance_floor``
        are read from it unless overridden by the keyword arguments below.
    num_shards, rebalance, rebalance_floor, backend:
        Optional overrides of the corresponding config fields (``backend``
        overrides ``shard_backend``).
    n_workers:
        ``> 1`` asks for process-parallel shard execution: ``"auto"``
        then runs the shards (including streaming sessions, and including
        ``rebalance=True``) on the persistent worker pool when the host
        can honour the request.
    respect_cores:
        Clamp parallelism to the host's core count (default); pass
        ``False`` to force real workers on small hosts (benchmarks do).
    """

    def __init__(self, query_factory: Optional[Callable[[], List[Query]]] = None,
                 config: Optional[SystemConfig] = None,
                 num_shards: Optional[int] = None,
                 rebalance: Optional[bool] = None,
                 rebalance_floor: Optional[float] = None,
                 n_workers: int = 1,
                 respect_cores: bool = True,
                 backend: Optional[str] = None) -> None:
        config = config if config is not None else SystemConfig()
        if num_shards is not None:
            config = config.replace(num_shards=int(num_shards))
        if rebalance is not None:
            config = config.replace(shard_rebalance=bool(rebalance))
        if rebalance_floor is not None:
            config = config.replace(
                shard_rebalance_floor=float(rebalance_floor))
        if backend is not None:
            config = config.replace(shard_backend=str(backend))
        self.config = config
        self.num_shards = config.num_shards
        self.rebalance = config.shard_rebalance
        self.rebalance_floor = config.shard_rebalance_floor
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
        self.systems = [shard_config.build(query_factory())
                        for shard_config in self.shard_configs]
        self.mode = self.systems[0].mode
        self.strategy_name = self.systems[0].strategy_name

    @property
    def query_names(self) -> List[str]:
        return self.systems[0].query_names

    @property
    def query_classes(self) -> Dict[str, type]:
        """Query class per name (drives per-interval result merging)."""
        return {name: type(self.systems[0].runtime(name).query)
                for name in self.systems[0].query_names}

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
                f"num_shards={self.num_shards}, "
                f"rebalance={self.rebalance})")


def build_system(config: SystemConfig,
                 query_factory: Optional[Callable[[], List[Query]]] = None):
    """The system ``config`` describes: sharded when it says so.

    What a session executor opens each of its sessions from — a shard's
    config builds a :class:`~repro.monitor.system.MonitoringSystem`, a
    fleet node's may nest a whole :class:`ShardedSystem`.
    ``query_factory=None`` uses the config's declarative ``queries``.
    """
    if config.num_shards > 1:
        return ShardedSystem(query_factory, config=config)
    return config.build(None if query_factory is None else query_factory())


# ----------------------------------------------------------------------
# The in-process shard executor
# ----------------------------------------------------------------------
class InProcessShards:
    """The :class:`ShardWorkerPool` method set over sessions in this process.

    The serial session executor: one session per system (a shard's
    :class:`~repro.monitor.session.MonitoringSession`, or whatever a fleet
    node's system opens), driven in order by the caller.  A session queues
    reconfigurations until its next bin itself, which is the bin-boundary
    semantics the worker pool gets from FIFO command pipes.  There is no
    ``ingest_async``: nothing runs concurrently, so there is nothing to
    run ahead of.
    """

    def __init__(self, systems: Sequence, time_bin: float,
                 names: Sequence[str]) -> None:
        self.sessions = [system.open_session(time_bin=time_bin, name=name)
                         for system, name in zip(systems, names)]
        #: Wall seconds of every ``ingest``, per session.
        self.ingest_seconds: List[List[float]] = [[] for _ in self.sessions]

    def ingest(self, parts: Sequence[Batch]) -> List[BinRecord]:
        records = []
        for session, part, seconds in zip(self.sessions, parts,
                                          self.ingest_seconds):
            started = perf_counter()
            records.append(session.ingest(part))
            seconds.append(perf_counter() - started)
        return records

    def set_capacity(self, shard: int, cycles_per_second: float) -> None:
        self.sessions[shard].set_capacity(cycles_per_second)

    def add_query(self, shard: int, query: Query, start_time=None) -> None:
        self.sessions[shard].add_query(query, start_time=start_time)

    def remove_query(self, shard: int, name: str) -> None:
        self.sessions[shard].remove_query(name)

    def partial_results(self) -> List[ExecutionResult]:
        return [session.partial_result() for session in self.sessions]

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

    def close(self) -> List[ExecutionResult]:
        return [session.close() for session in self.sessions]

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
    bin boundary, rebalance capacities are computed here from the previous
    bin's records and handed over before the bin's batches, so the merged
    results are bit-identical either way.
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
                time_bin=self.time_bin, names=names)
        elif backend == "inprocess":
            self._executor = InProcessShards(sharded.systems, self.time_bin,
                                             names)
        else:
            raise ValueError(
                f"unknown session backend {backend!r}; sharded sessions run "
                "'inprocess' or on persistent 'workers'")
        # State the executor's sessions also hold, mirrored here so no
        # question about it needs a round trip to a worker.
        self._bins_ingested = 0
        self._query_names: List[str] = list(sharded.query_names)
        #: Query class per name, for every query that ever lived in this
        #: session — departed queries keep their logs in the final result,
        #: so their merge implementations must stay resolvable.
        self._query_classes: Dict[str, type] = dict(sharded.query_classes)
        #: (packets, total cycles) each shard reported for the previous bin.
        self._prev_load: List[Optional[Tuple[int, float]]] = \
            [None] * self.num_shards
        self._closed_result: Optional[ExecutionResult] = None
        self._closed_metrics: Optional[Dict] = None
        #: Per-tenant query cycles accumulated from the merged bin records
        #: (per-bin ``ingest`` path; the pipelined trace path reports the
        #: complete totals at close time from the merged result).
        self._tenant_cycles: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed_result is not None

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

        The same observations the rebalancer lends capacity from; exported
        so operational surfaces (``repro.serve``'s per-shard utilisation
        metrics) can report shard skew without poking at internals.
        """
        return list(self._prev_load)

    @property
    def metrics(self) -> Dict:
        """Operational metrics folded across the shards (JSON-able).

        Same shape as :attr:`MonitoringSession.metrics` — per-stage
        profile plus feature-sharing counts — with per-shard stage
        totals summed and per-bin latency series concatenated.  The shard
        numbers are read at a bin boundary (on the workers backend they
        travel the command pipes, FIFO with the batches); a closed session
        returns the snapshot taken at close time.
        """
        if self._closed_metrics is not None:
            return self._closed_metrics
        return self._fold_metrics(self._executor.metrics(),
                                  self._tenant_cycles)

    def _fold_metrics(self, shards: Sequence[Tuple],
                      tenant_cycles: Dict[str, float]) -> Dict:
        """Per-shard ``(profiler, sharing stats)`` pairs as one document."""
        sharing: Dict[str, int] = {}
        for _, stats in shards:
            for key, value in stats.items():
                sharing[key] = sharing.get(key, 0) + value
        merged = {"profile": merged_summary([prof for prof, _ in shards]),
                  "feature_sharing": sharing}
        groups = getattr(self.sharded.config, "tenants", None)
        if groups:
            merged["tenants"] = {"count": len(groups),
                                 "query_cycles": dict(tenant_cycles)}
        return merged

    # ------------------------------------------------------------------
    def ingest(self, batch: Batch) -> BinRecord:
        """Partition one bin's batch, drive every shard, merge the records."""
        if self.closed:
            raise RuntimeError("cannot ingest into a closed session")
        parts = batch.partition(self.num_shards, FLOW_FIELDS)
        if self.sharded.rebalance and self.num_shards > 1:
            self._apply_capacities(self._rebalance_capacities(parts))
        records = self._executor.ingest(parts)
        self._bins_ingested += 1
        for index, (part, record) in enumerate(zip(parts, records)):
            self._prev_load[index] = (len(part), record.total_cycles)
        merged = BinRecord.merge(records)
        for tenant, cycles in merged.tenant_cycles.items():
            self._tenant_cycles[tenant] = \
                self._tenant_cycles.get(tenant, 0.0) + cycles
        return merged

    def ingest_trace(self, source) -> "ShardedSession":
        """Stream every bin of ``source`` through :meth:`ingest`.

        Accepts anything :func:`repro.monitor.packet.as_trace` does; a
        trace store replays out-of-core — each bin is flow-partitioned and
        fanned out to the shards, one bin in memory at a time.  Returns
        ``self`` for chaining.

        On an executor that can run ahead (it has ``ingest_async``: the
        worker pool) with rebalancing off, ingestion is *pipelined*: each
        bin's sub-batches are shipped without waiting for the bin's records
        (the pool's double buffering bounds the run-ahead to two bins per
        shard), so partitioning and store I/O overlap shard compute.
        Rebalancing needs the previous bin's records to compute
        capacities, so it runs in lockstep.
        """
        trace = as_trace(source)
        pipelined = (hasattr(self._executor, "ingest_async")
                     and not (self.sharded.rebalance and self.num_shards > 1))
        for batch in trace.batches(self.time_bin):
            if pipelined:
                if self.closed:
                    raise RuntimeError("cannot ingest into a closed session")
                parts = batch.partition(self.num_shards, FLOW_FIELDS)
                for index, part in enumerate(parts):
                    self._executor.ingest_async(index, part)
                self._bins_ingested += 1
            else:
                self.ingest(batch)
        return self

    def close(self) -> ExecutionResult:
        """Close every shard session and return the merged result."""
        if self._closed_result is not None:
            return self._closed_result
        shards = self._executor.metrics()  # workers are gone after close()
        self._closed_result = ExecutionResult.merge(
            self._executor.close(), query_classes=self._query_classes,
            budget=self.budget, name=self.name)
        self._closed_metrics = self._fold_metrics(
            shards, self._closed_result.tenant_cycle_totals())
        return self._closed_result

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Complete execution state, as a serialisable checkpoint payload.

        The per-shard :class:`~repro.monitor.session.MonitoringSession`
        objects carry the real state; on the ``workers`` backend they are
        copied out of the worker processes at the current bin boundary
        (the workers keep streaming).  Parent-side state — the previous
        bin's per-shard loads that seed the rebalancer, the query-class
        registry that drives result merging, the per-tenant cycle totals
        and the possibly ``set_capacity``-adjusted total budget — rides
        along so a restored session continues bit-identically.  Serialise
        the payload immediately (it aliases live objects on the in-process
        backend); :mod:`repro.serve.checkpoint` wraps it in the on-disk
        format.
        """
        if self.closed:
            raise RuntimeError("cannot checkpoint a closed session")
        return {
            "kind": "sharded",
            "config": self.sharded.config,
            "time_bin": self.time_bin,
            "name": self.name,
            "total_cycles_per_second": self.sharded.total_cycles_per_second,
            "shard_sessions": self._executor.session_states(),
            "query_classes": dict(self._query_classes),
            "prev_load": list(self._prev_load),
            "bins_ingested": self._bins_ingested,
            "query_names": list(self._query_names),
            "tenant_cycles": dict(self._tenant_cycles),
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
        sharded.total_cycles_per_second = \
            float(state["total_cycles_per_second"])
        session = sharded.open_session(time_bin=state["time_bin"],
                                       name=state["name"])
        try:
            session._executor.load_sessions(state["shard_sessions"])
        except BaseException:
            session._executor.stop()
            raise
        session._bins_ingested = int(state["bins_ingested"])
        session._query_names = list(state["query_names"])
        session._query_classes = dict(state["query_classes"])
        session._prev_load = list(state["prev_load"])
        # Checkpoints written before the totals rode along restart at zero.
        session._tenant_cycles = dict(state.get("tenant_cycles", {}))
        return session

    def partial_result(self) -> ExecutionResult:
        """Merged accuracy-so-far snapshot (shards keep running)."""
        if self.closed:
            raise RuntimeError("cannot snapshot a closed session; close() "
                               "already returned the final result")
        return ExecutionResult.merge(
            self._executor.partial_results(),
            query_classes=self._query_classes, budget=self.budget,
            name=self.name)

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
        self._query_classes[name] = type(instances[0])

    def remove_query(self, name: str) -> None:
        """Deregister a query from every shard.

        The query's class stays registered for result merging: its flushed
        intervals remain part of the session's merged result.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        if name not in self._query_names:
            raise KeyError(f"no query named {name!r} is registered")
        for shard in range(self.num_shards):
            self._executor.remove_query(shard, name)
        self._query_names.remove(name)

    def set_capacity(self, cycles_per_second: float) -> None:
        """Change the *total* capacity; shards re-split it evenly.

        The rebalancer keeps lending against the new base share from the
        next bin on.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        cycles_per_second = float(cycles_per_second)
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        self.sharded.total_cycles_per_second = cycles_per_second
        self.budget = CycleBudget(cycles_per_second, self.time_bin)
        self._apply_capacities([cycles_per_second / self.num_shards] *
                               self.num_shards)

    # ------------------------------------------------------------------
    def _apply_capacities(self, capacities: Sequence[float]) -> None:
        """Queue per-shard capacities (cycles/s), applied next bin boundary.

        Both executors share the queued-at-boundary semantics: in-process
        sessions queue the change internally; worker commands are FIFO with
        the batches, so a capacity sent before a bin's batch is applied at
        exactly that bin's boundary.
        """
        for shard, capacity in enumerate(capacities):
            self._executor.set_capacity(shard, capacity)

    def _rebalance_capacities(self, parts: Sequence[Batch]) -> List[float]:
        """Lend predicted headroom from underloaded shards to overloaded ones.

        Demand per shard is predicted as the previous bin's cycles-per-packet
        times the incoming packet count; shards with no history (or no
        packets last bin) are assumed to need their base share.  Transfers
        conserve total capacity and never push a shard below
        ``rebalance_floor`` of its base share.  The returned capacities
        (cycles per second, one per shard) are queued with
        :meth:`_apply_capacities` and applied at this bin's boundary,
        *before* the shard's own predict/shed pipeline runs — so a shard
        granted extra cycles sheds less in the very bin that needs them.
        """
        base = self.budget.per_bin / self.num_shards
        demands = []
        for index, part in enumerate(parts):
            prev = self._prev_load[index]
            if prev is None or prev[0] <= 0 or prev[1] <= 0.0:
                demands.append(base)
            else:
                demands.append(prev[1] / prev[0] * len(part))
        floor = self.sharded.rebalance_floor * base
        headroom = [max(0.0, base - max(demand, floor))
                    for demand in demands]
        need = [max(0.0, demand - base) for demand in demands]
        lendable = float(sum(headroom))
        needed = float(sum(need))
        transfer = min(lendable, needed)
        if transfer > 0.0:
            capacities = [
                base - lend * (transfer / lendable) +
                borrow * (transfer / needed)
                for lend, borrow in zip(headroom, need)
            ]
        else:
            capacities = [base] * self.num_shards
        return [capacity / self.time_bin for capacity in capacities]

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
    "ShardExecutionWarning",
    "ShardWorkerPool",
    "ShardedSession",
    "ShardedSystem",
    "build_system",
    "shard_seed",
]
