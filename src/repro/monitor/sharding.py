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

Three shard-execution backends are available (``SystemConfig.shard_backend``
or the ``backend`` argument):

* ``"inprocess"`` — every shard session runs serially in the caller.
* ``"workers"`` — one **persistent worker process per shard**
  (:class:`~repro.monitor.workers.ShardWorkerPool`): each bin's
  pre-partitioned columnar sub-batch travels through shared memory, per-bin
  records come back on a result channel, and capacity-rebalance /
  reconfiguration messages are piggybacked in FIFO order with the batches —
  so streaming sessions *and* ``shard_rebalance=True`` run on real
  parallelism, bit-identical to the in-process path.
* ``"fork"`` — the legacy per-run fork pool
  (:func:`repro.core.pool.fork_pool_map`): the stream is pre-partitioned in
  the parent, workers inherit their slice copy-on-write, execute their
  shard end to end and ship the per-shard result back for merging.  The
  per-bin capacity exchange is impossible on this backend, so it still
  requires ``rebalance=False`` and a materialised stream.

``"auto"`` (the default) picks ``"workers"`` when parallelism was requested
(``n_workers > 1``) and the host can honour it, ``"inprocess"`` otherwise.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cycles import CycleBudget
from ..core.pool import effective_workers, fork_pool_map, pool_state
from ..profile import merged_summary
from .config import ReproDeprecationWarning, SystemConfig
from .packet import HEADER_FIELDS, Batch, PacketTrace, as_trace
from .pipeline import BinRecord
from .query import Query, QueryResultLog
from .system import ExecutionResult, merge_query_logs  # noqa: F401 - re-export
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
# Result merging — deprecated shims
# ----------------------------------------------------------------------
# The merge logic is now the public API of the record types themselves:
# :meth:`BinRecord.merge` and :meth:`ExecutionResult.merge` (plus the
# module-level :func:`repro.monitor.system.merge_query_logs`, re-exported
# here).  The free functions below survive as thin deprecated shims.

def merge_bin_records(records: Sequence[BinRecord]) -> BinRecord:
    """Deprecated: use :meth:`BinRecord.merge`."""
    warnings.warn(
        "merge_bin_records is deprecated; use BinRecord.merge(records)",
        ReproDeprecationWarning, stacklevel=2)
    return BinRecord.merge(records)


def merge_execution_results(results: Sequence[ExecutionResult],
                            query_classes: Dict[str, type],
                            budget: CycleBudget,
                            name: str) -> ExecutionResult:
    """Deprecated: use :meth:`ExecutionResult.merge`."""
    warnings.warn(
        "merge_execution_results is deprecated; use "
        "ExecutionResult.merge(results, query_classes=..., budget=..., "
        "name=...)",
        ReproDeprecationWarning, stacklevel=2)
    return ExecutionResult.merge(results, query_classes=query_classes,
                                 budget=budget, name=name)


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
        ``> 1`` asks for process-parallel shard execution.  Under the
        ``"auto"`` / ``"workers"`` backends this runs shards (including
        streaming sessions, and including ``rebalance=True``) on the
        persistent worker pool; under ``"fork"`` it executes :meth:`run` on
        the legacy per-run fork pool (which still requires
        ``rebalance=False`` and keeps streaming sessions in-process).
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
        if (self.backend == "fork" and self.rebalance
                and self.num_shards > 1 and self.n_workers > 1):
            raise ValueError(
                "dynamic capacity rebalancing is not available on the fork-"
                "pool backend (it needs a per-bin capacity exchange); pass "
                "rebalance=False, or use the persistent 'workers' backend, "
                "which rebalances across processes")
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
        if backend == "workers" and self.num_shards > 1:
            return ShardedSession(self, time_bin=time_bin, name=name,
                                  backend="workers")
        if self.n_workers > 1 and self.num_shards > 1:
            warnings.warn(
                f"sharded session {name!r} requested n_workers="
                f"{self.n_workers} but runs in-process on the "
                f"{backend!r} backend (the fork backend has no streaming "
                "sessions; 'auto' found no usable parallelism on this "
                "host) — pass backend='workers' to force the persistent "
                "worker pool", ShardExecutionWarning, stacklevel=2)
        return ShardedSession(self, time_bin=time_bin, name=name)

    def run(self, trace: PacketTrace, time_bin: float = 0.1
            ) -> ExecutionResult:
        """Run the sharded system over a trace; returns the merged result.

        ``trace`` may also be a streaming trace or a trace store (anything
        :func:`repro.monitor.packet.as_trace` accepts).  The in-process
        and persistent-worker paths stream it bin by bin with bounded
        memory; the legacy fork-pool path pre-partitions the whole stream
        in the parent, so it materialises every sub-batch regardless of
        the source.
        """
        trace = as_trace(trace)
        backend = self.resolve_backend()
        if (backend == "fork" and self.n_workers > 1
                and self.num_shards > 1):
            return self._run_pooled(trace, time_bin)
        session = self.open_session(time_bin=time_bin, name=trace.name)
        return session.ingest_trace(trace).close()

    # ------------------------------------------------------------------
    def _run_pooled(self, trace: PacketTrace, time_bin: float
                    ) -> ExecutionResult:
        """One fork-pool worker per shard over the pre-partitioned stream.

        The parent partitions every batch before forking, so workers
        inherit their slice copy-on-write; each worker drives its shard's
        full session end to end and returns the shard's execution result.
        Results are identical to the in-process path with rebalancing off
        (same sub-batches, same shard systems, same merge).
        """
        slices: List[List[Batch]] = [[] for _ in range(self.num_shards)]
        for batch in trace.batch_list(time_bin):
            for index, sub in enumerate(batch.partition(self.num_shards,
                                                        FLOW_FIELDS)):
                slices[index].append(sub)
        with pool_state(_POOL_STATE, configs=self.shard_configs,
                        factory=self.query_factory, slices=slices,
                        time_bin=float(time_bin), name=trace.name):
            results = fork_pool_map(
                _run_shard_job, list(range(self.num_shards)), self.n_workers,
                respect_cores=self.respect_cores, require_fork=True)
        budget = CycleBudget(self.total_cycles_per_second, float(time_bin))
        return ExecutionResult.merge(results, query_classes=self.query_classes,
                                     budget=budget, name=trace.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedSystem(mode={self.mode!r}, "
                f"num_shards={self.num_shards}, "
                f"rebalance={self.rebalance})")


#: State a pooled shard job reads from the forked parent (populated just
#: before the pool map, cleared right after; fork-only by construction).
_POOL_STATE: dict = {}


def _no_queries() -> List[Query]:
    """Placeholder query factory for checkpoint restores.

    A restored :class:`ShardedSession` replaces every freshly built shard
    session with the checkpointed one, so the instances this factory would
    produce are discarded immediately — it only exists because
    :class:`ShardedSystem` requires *a* factory, and it must be a module-
    level function so spawn-start worker pools can pickle it.
    """
    return []


def _run_shard_job(shard_index: int) -> ExecutionResult:
    """Run one shard end to end; pure function of the pre-fork state."""
    config = _POOL_STATE["configs"][shard_index]
    system = config.build(_POOL_STATE["factory"]())
    session = system.open_session(
        time_bin=_POOL_STATE["time_bin"],
        name=f"{_POOL_STATE['name']}[shard{shard_index}]")
    for sub in _POOL_STATE["slices"][shard_index]:
        session.ingest(sub)
    return session.close()


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

    With ``backend="workers"`` the per-shard sessions live inside one
    persistent worker process each (:class:`ShardWorkerPool`); every public
    method keeps exactly the in-process semantics — reconfigurations apply
    at the next bin boundary, rebalance capacities are computed by the
    parent from the previous bin's records and shipped before the bin's
    batches — so the merged results are bit-identical either way.
    """

    def __init__(self, sharded: ShardedSystem, time_bin: float = 0.1,
                 name: str = "live", backend: str = "inprocess") -> None:
        if backend not in ("inprocess", "workers"):
            raise ValueError(
                f"unknown session backend {backend!r}; sharded sessions run "
                "'inprocess' or on persistent 'workers'")
        self.sharded = sharded
        self.time_bin = float(time_bin)
        self.name = name
        self.num_shards = sharded.num_shards
        self.backend = backend
        self.budget = CycleBudget(sharded.total_cycles_per_second,
                                  self.time_bin)
        suffix = (lambda i: name) if self.num_shards == 1 else \
            (lambda i: f"{name}[shard{i}]")
        if backend == "workers":
            self.sessions = None
            self._pool: Optional[ShardWorkerPool] = ShardWorkerPool(
                sharded.shard_configs, sharded.query_factory,
                time_bin=self.time_bin,
                names=[suffix(index) for index in range(self.num_shards)])
            # Parent-side mirrors of state that otherwise lives in the
            # shard sessions (the workers own the real thing).
            self._bins_ingested = 0
            self._query_names: List[str] = list(sharded.query_names)
        else:
            self._pool = None
            self.sessions = [system.open_session(time_bin=time_bin,
                                                 name=suffix(index))
                             for index, system in enumerate(sharded.systems)]
        #: Query class per name, for every query that ever lived in this
        #: session — departed queries keep their logs in the final result,
        #: so their merge implementations must stay resolvable.
        self._query_classes: Dict[str, type] = dict(sharded.query_classes)
        #: (packets, total cycles) each shard reported for the previous bin.
        self._prev_load: List[Optional[Tuple[int, float]]] = \
            [None] * self.num_shards
        self._closed_result: Optional[ExecutionResult] = None
        #: Metrics snapshot taken at close time (workers are gone after).
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
        if self._pool is not None:
            return self._bins_ingested
        return self.sessions[0].bins_ingested

    @property
    def query_names(self) -> List[str]:
        if self._pool is not None:
            return list(self._query_names)
        return self.sessions[0].query_names

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
        profile plus feature-sharing registry stats — with per-shard stage
        totals summed and per-bin latency series concatenated.  On the
        workers backend the shard numbers are fetched over the command
        pipes (FIFO with the batches, so they land at a bin boundary); a
        closed session returns the snapshot taken at close time.
        """
        if self._closed_metrics is not None:
            return self._closed_metrics
        if self._pool is not None:
            shards = self._pool.metrics()
        else:
            shards = [(session.system.profiler,
                       session.system.feature_states.stats())
                      for session in self.sessions]
        merged = self._merge_metrics(shards)
        tenants = self._tenant_metrics(self._tenant_cycles)
        if tenants is not None:
            merged["tenants"] = tenants
        return merged

    def _tenant_metrics(self, totals: Dict[str, float]) -> Optional[Dict]:
        """The ``tenants`` metrics block, or ``None`` without groups."""
        groups = getattr(self.sharded.config, "tenants", None)
        if not groups:
            return None
        return {"count": len(groups), "query_cycles": dict(totals)}

    @staticmethod
    def _merge_metrics(shards: Sequence[Tuple]) -> Dict:
        sharing: Dict[str, int] = {}
        for _, stats in shards:
            for key, value in stats.items():
                sharing[key] = sharing.get(key, 0) + value
        return {"profile": merged_summary([prof for prof, _ in shards]),
                "feature_sharing": sharing}

    # ------------------------------------------------------------------
    def ingest(self, batch: Batch) -> BinRecord:
        """Partition one bin's batch, drive every shard, merge the records."""
        if self.closed:
            raise RuntimeError("cannot ingest into a closed session")
        parts = batch.partition(self.num_shards, FLOW_FIELDS)
        if self.sharded.rebalance and self.num_shards > 1:
            self._apply_capacities(self._rebalance_capacities(parts))
        if self._pool is not None:
            records = self._pool.ingest(parts)
            self._bins_ingested += 1
        else:
            records = [session.ingest(part)
                       for session, part in zip(self.sessions, parts)]
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

        On the worker backend with rebalancing off, ingestion is
        *pipelined*: each bin's sub-batches are shipped without waiting for
        the bin's records (the pool's double buffering bounds the run-ahead
        to two bins per shard), so partitioning and store I/O overlap shard
        compute.  Rebalancing needs the previous bin's records to compute
        capacities, so it runs in lockstep.
        """
        trace = as_trace(source)
        pipelined = (self._pool is not None
                     and not (self.sharded.rebalance and self.num_shards > 1))
        for batch in trace.batches(self.time_bin):
            if pipelined:
                if self.closed:
                    raise RuntimeError("cannot ingest into a closed session")
                parts = batch.partition(self.num_shards, FLOW_FIELDS)
                for index, part in enumerate(parts):
                    self._pool.ingest_async(index, part)
                self._bins_ingested += 1
            else:
                self.ingest(batch)
        return self

    def close(self) -> ExecutionResult:
        """Close every shard session and return the merged result."""
        if self._closed_result is not None:
            return self._closed_result
        if self._pool is not None:
            self._closed_metrics = self._merge_metrics(self._pool.metrics())
            results = self._pool.close()
        else:
            results = [session.close() for session in self.sessions]
            self._closed_metrics = self._merge_metrics(
                [(session.system.profiler,
                  session.system.feature_states.stats())
                 for session in self.sessions])
        self._closed_result = ExecutionResult.merge(
            results, query_classes=self._query_classes, budget=self.budget,
            name=self.name)
        tenants = self._tenant_metrics(
            self._closed_result.tenant_cycle_totals())
        if tenants is not None:
            self._closed_metrics["tenants"] = tenants
        return self._closed_result

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Complete execution state, as a serialisable checkpoint payload.

        The per-shard :class:`~repro.monitor.session.MonitoringSession`
        objects carry the real state; on the ``workers`` backend they are
        copied out of the worker processes at the current bin boundary
        (the workers keep streaming).  Parent-side mirrors — the previous
        bin's per-shard loads that seed the rebalancer, the query-class
        registry that drives result merging, and the possibly
        ``set_capacity``-adjusted total budget — ride along so a restored
        session continues bit-identically.  Serialise the payload
        immediately (it aliases live objects on the in-process backend);
        :mod:`repro.serve.checkpoint` wraps it in the on-disk format.
        """
        if self.closed:
            raise RuntimeError("cannot checkpoint a closed session")
        if self._pool is not None:
            shard_sessions = self._pool.session_states()
        else:
            shard_sessions = list(self.sessions)
        return {
            "kind": "sharded",
            "config": self.sharded.config,
            "time_bin": self.time_bin,
            "name": self.name,
            "total_cycles_per_second": self.sharded.total_cycles_per_second,
            "shard_sessions": shard_sessions,
            "query_classes": dict(self._query_classes),
            "prev_load": list(self._prev_load),
            "bins_ingested": self.bins_ingested,
            "query_names": list(self.query_names),
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
        stay bit-identical either way.
        """
        if state.get("kind") != "sharded":
            raise ValueError(
                f"not a ShardedSession checkpoint payload: "
                f"kind={state.get('kind')!r}")
        config = state["config"]
        factory = (config.build_queries if config.queries is not None
                   else _no_queries)
        sharded = ShardedSystem(query_factory=factory, config=config,
                                n_workers=n_workers,
                                respect_cores=respect_cores,
                                backend=backend)
        sharded.total_cycles_per_second = \
            float(state["total_cycles_per_second"])
        session = cls.__new__(cls)
        session.sharded = sharded
        session.time_bin = float(state["time_bin"])
        session.name = state["name"]
        session.num_shards = sharded.num_shards
        session.budget = CycleBudget(sharded.total_cycles_per_second,
                                     session.time_bin)
        session._query_classes = dict(state["query_classes"])
        session._prev_load = list(state["prev_load"])
        session._closed_result = None
        resolved = sharded.resolve_backend()
        if resolved == "workers" and sharded.num_shards > 1:
            session.backend = "workers"
            session.sessions = None
            session._pool = ShardWorkerPool(
                sharded.shard_configs, factory,
                time_bin=session.time_bin,
                names=[s.name for s in state["shard_sessions"]])
            try:
                session._pool.load_sessions(state["shard_sessions"])
            except BaseException:
                session._pool.stop()
                raise
            session._bins_ingested = int(state["bins_ingested"])
            session._query_names = list(state["query_names"])
        else:
            session.backend = "inprocess"
            session._pool = None
            session.sessions = list(state["shard_sessions"])
        return session

    def partial_result(self) -> ExecutionResult:
        """Merged accuracy-so-far snapshot (shards keep running)."""
        if self._pool is not None:
            results = self._pool.partial_results()
        else:
            results = [session.partial_result() for session in self.sessions]
        return ExecutionResult.merge(results, query_classes=self._query_classes,
                                     budget=self.budget, name=self.name)

    # ------------------------------------------------------------------
    # Live reconfiguration (forwarded to every shard, next bin boundary)
    # ------------------------------------------------------------------
    def add_query(self, query_factory: Callable[[], Query],
                  start_time: Optional[float] = None) -> None:
        """Register a query on every shard (one fresh instance each)."""
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        instances = [query_factory() for _ in range(self.num_shards)]
        if self._pool is not None:
            name = instances[0].name
            if name in self._query_names:
                raise ValueError(
                    f"a query named {name!r} is already registered")
            for shard, query in enumerate(instances):
                self._pool.add_query(shard, query, start_time=start_time)
            self._query_names.append(name)
        else:
            for session, query in zip(self.sessions, instances):
                session.add_query(query, start_time=start_time)
        self._query_classes[instances[0].name] = type(instances[0])

    def remove_query(self, name: str) -> None:
        """Deregister a query from every shard.

        The query's class stays registered for result merging: its flushed
        intervals remain part of the session's merged result.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        if self._pool is not None:
            if name not in self._query_names:
                raise KeyError(f"no query named {name!r} is registered")
            for shard in range(self.num_shards):
                self._pool.remove_query(shard, name)
            self._query_names.remove(name)
        else:
            for session in self.sessions:
                session.remove_query(name)

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

        Both backends share the queued-at-boundary semantics: in-process
        sessions queue the change internally; worker commands are FIFO with
        the batches, so a capacity sent before a bin's batch is applied at
        exactly that bin's boundary.
        """
        if self._pool is not None:
            for shard, capacity in enumerate(capacities):
                self._pool.set_capacity(shard, capacity)
        else:
            for session, capacity in zip(self.sessions, capacities):
                session.set_capacity(capacity)

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
        floor = self.rebalance_floor() * base
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

    def rebalance_floor(self) -> float:
        return self.sharded.rebalance_floor

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self.close()
        elif self._pool is not None:
            # Never leak worker processes / shared memory past an error.
            self._pool.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"ShardedSession(shards={self.num_shards}, "
                f"backend={self.backend!r}, "
                f"bins={self.bins_ingested}, {state})")


__all__ = [
    "FLOW_FIELDS",
    "ShardExecutionWarning",
    "ShardWorkerPool",
    "ShardedSession",
    "ShardedSystem",
    "merge_bin_records",
    "merge_execution_results",
    "merge_query_logs",
    "shard_seed",
]
