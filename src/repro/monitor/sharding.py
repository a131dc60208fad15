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
  :meth:`~repro.monitor.session.MonitoringSession.finish`) and merges
  what comes out, where a whole monitor ``ingest``s and folds for itself.
* **Result merging** — every step delivers the shard's :class:`BinRecord`
  and the mergeable *partial*
  (:meth:`repro.monitor.query.Query.interval_partial`) of every measurement
  interval the bin closed, named by its query class.  A node is stepped
  like a monitor: :meth:`ShardedSession.step` merges the N records
  (:meth:`BinRecord.merge`) and each interval's N partials (the class's
  ``merge_partials``) and delivers them as one session would; whoever owns
  the node folds that into an
  :class:`~repro.monitor.system.ExecutionResult`, which finishes each
  answer once (``finalize``) — so a sharded node that sheds nothing
  reports exactly what a serial one reports, for every query kind.  Shards
  whose flushed interval boundaries disagree raise
  :class:`ShardDivergenceError` at the bin where it shows.

With ``num_shards=1`` the partition returns the original batches, shard 0
keeps the full budget and the base seed, and every merge reduces to the
identity — the sharded run is bit-identical to the classic single-system
run (pinned by ``tests/test_sharding.py``).

Shards execute on one of two executors with the same method set (the
``backend`` argument, one of :data:`SHARD_BACKENDS`; it travels with
``n_workers``, never inside the config), and a :class:`ShardedSession`
drives either without knowing which:

* ``"inprocess"`` — :class:`InProcessShards`: every shard session runs
  serially in the caller.
* ``"workers"`` — one **persistent worker process per shard**
  (:class:`~repro.monitor.workers.ShardWorkerPool`): each bin's
  pre-partitioned columnar sub-batch travels through a memory file the
  worker inherited at fork (``os.memfd_create``), what each step delivers
  comes back on a result channel, and reconfiguration messages are
  piggybacked in FIFO order with the batches — so streaming sessions run
  on real parallelism, bit-identical to the in-process path.

``"auto"`` (the default) picks ``"workers"`` when parallelism was requested
(``n_workers > 1``) and the host can honour it, ``"inprocess"`` otherwise.
"""

from __future__ import annotations

import copy
import logging
import os
import warnings
from collections import deque
from functools import cached_property
from itertools import zip_longest
from time import perf_counter
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.cycles import CycleBudget
from ..profile import RECENT_BINS, fold_metrics
from .config import SystemConfig
from .packet import HEADER_FIELDS, Batch, PacketTrace, as_trace
from .pipeline import BinRecord
from .query import Query, QueryResultLog
from .system import ExecutionResult

#: Header fields whose combined hash decides a packet's shard: the full
#: 5-tuple, so a flow's packets always land on the same shard.
FLOW_FIELDS: Tuple[str, ...] = HEADER_FIELDS

logger = logging.getLogger("repro.monitor.sharding")

#: Valid shard-execution backends (how ``num_shards > 1`` actually runs):
#: ``"inprocess"`` drives every shard serially in the calling process,
#: ``"workers"`` keeps one persistent worker process per shard fed through
#: memory files (:class:`~repro.monitor.workers.ShardWorkerPool`), and
#: ``"auto"`` picks ``"workers"`` when parallelism was requested and the
#: host can deliver it, ``"inprocess"`` otherwise.
SHARD_BACKENDS = ("auto", "inprocess", "workers")


class ShardExecutionWarning(UserWarning):
    """A sharded execution that requested process workers runs in-process.

    Emitted instead of silently degrading, so callers asking for
    ``n_workers > 1`` learn that their session executes serially (the
    backend is, or ``auto`` resolved to, ``"inprocess"``).
    """


def effective_workers(n_workers: int, n_jobs: int,
                      respect_cores: bool = True) -> int:
    """Worker processes actually worth starting for ``n_jobs`` sessions.

    The one place a requested parallelism is clamped, for the shard and
    the fleet tiers alike: a pool wider than its sessions idles, and one
    wider than the core count only adds fork and IPC overhead, so the
    request is clamped to the host unless the caller opts out
    (``respect_cores=False``, e.g. to exercise the pool on a single-core
    machine).  A request below one worker is refused with ``ValueError``.
    """
    if int(n_workers) < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    workers = min(int(n_workers), int(n_jobs))
    if respect_cores:
        workers = min(workers, os.cpu_count() or 1)
    return workers


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
        shard so every shard owns independent query state, and once here
        for the mix's names.  ``None`` uses the config's declarative
        ``queries`` field (a spec mix is a factory by construction: every
        shard builds fresh instances); the names are then read from the
        specs, so the coordinating parent builds no query at all.
    config:
        :class:`SystemConfig` of the *whole* system.  ``cycles_per_second``
        is the total capacity, split evenly across shards; ``num_shards``
        is read from it unless overridden by the keyword argument below.
    num_shards:
        Optional override of the config's ``num_shards``.
    backend:
        Shard-execution backend, one of :data:`SHARD_BACKENDS`.
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
                 backend: str = "auto") -> None:
        config = config if config is not None else SystemConfig()
        if num_shards is not None:
            config = config.replace(num_shards=int(num_shards))
        if backend not in SHARD_BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}; "
                             f"valid backends: {SHARD_BACKENDS}")
        self.config = config
        self.num_shards = config.num_shards
        self.backend = backend
        self.n_workers = int(n_workers)
        self.respect_cores = bool(respect_cores)
        # What the request is worth on this host; a count below 1 raises.
        self._workers = effective_workers(self.n_workers, self.num_shards,
                                          self.respect_cores)
        #: The names of the configured mix, validated unique.
        self.query_names: List[str] = []
        if query_factory is None:
            if config.queries is None:
                raise ValueError(
                    "ShardedSystem needs either a query_factory or a config "
                    "with a declarative 'queries' field")
            # The specs name their instances, and refuse duplicates.
            self.query_names = list(config.query_kinds())
            query_factory = config.build_queries
        else:
            for query in query_factory():
                if query.name in self.query_names:
                    raise ValueError(
                        f"a query named {query.name!r} is already registered")
                self.query_names.append(query.name)
        self.query_factory = query_factory
        self.total_cycles_per_second = config.make_budget().cycles_per_second
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

    @cached_property
    def systems(self) -> List:
        """One system per shard, built when first asked for: the shards of
        a worker pool are built inside the workers, and the parent then
        never pays for a set of its own."""
        return [shard_config.build(self.query_factory())
                for shard_config in self.shard_configs]

    # ------------------------------------------------------------------
    def resolve_backend(self) -> str:
        """The concrete backend this system executes on.

        ``"auto"`` resolves to the persistent worker pool exactly when the
        caller asked for parallelism (``n_workers > 1``), there is more
        than one shard, the host's core count can honour the request
        (unless ``respect_cores=False``), and the host can run a pool
        (:func:`~repro.monitor.workers.fork_start_available`).  Everything
        else resolves to in-process execution.
        """
        if self.backend != "auto":
            return self.backend
        if self.num_shards > 1 and self._workers > 1:
            # The pool's module is loaded only where a pool may start.
            from .workers import fork_start_available
            if fork_start_available():
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
                 n_workers: int = 1, respect_cores: bool = True,
                 backend: str = "auto"):
    """The system ``config`` describes: sharded when it says so.

    The one place that decides serial versus sharded.  Whoever opens the
    session a config describes goes through it — the replay CLI, the serve
    daemon, and a session executor for each of its sessions (a
    shard's config builds a :class:`~repro.monitor.system.MonitoringSystem`,
    a fleet node's may nest a whole :class:`ShardedSystem`) — and gets back
    something with ``open_session(time_bin=, name=)`` and ``run(trace)``.
    ``query_factory=None`` uses the config's declarative ``queries``;
    ``n_workers`` / ``respect_cores`` / ``backend`` are a sharded system's
    execution; a serial system refuses a count below 1 as a sharded one
    does.
    """
    if config.num_shards > 1:
        return ShardedSystem(query_factory, config=config,
                             n_workers=n_workers, respect_cores=respect_cores,
                             backend=backend)
    effective_workers(n_workers, 1, respect_cores)
    return config.build(None if query_factory is None else query_factory())


def verify_shard_exactness(config: SystemConfig, trace,
                           time_bin: float = 0.1, n_workers: int = 1,
                           respect_cores: bool = True,
                           backend: str = "auto") -> Dict:
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
                            respect_cores=respect_cores, backend=backend)
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
    node's system opens), stepped in order by the caller, what each step
    delivers queued in :attr:`arrived` as in the pool.  A session queues
    reconfigurations until its next bin itself, which is the bin-boundary
    semantics the worker pool gets from FIFO command pipes.
    """

    def __init__(self, systems: Sequence, time_bin: float,
                 names: Sequence[str]) -> None:
        self.sessions = [system.open_session(time_bin=time_bin, name=name)
                         for system, name in zip(systems, names)]
        #: See :attr:`ShardWorkerPool.ingest_seconds`.
        self.ingest_seconds: List[Deque[float]] = [deque()
                                                   for _ in self.sessions]
        #: See :attr:`ShardWorkerPool.arrived`.
        self.arrived: List[Deque[tuple]] = [deque() for _ in self.sessions]
        #: Nothing travels in-process: partials are handed over.
        self.partial_bytes = 0

    def ingest_async(self, shard: int, batch: Batch) -> BinRecord:
        """Session ``shard``'s bin, run on the spot: nothing runs
        concurrently here, so there is nothing to run ahead of."""
        started = perf_counter()
        delivered = self.sessions[shard].step(batch)
        self.ingest_seconds[shard].append(perf_counter() - started)
        self.arrived[shard].append(delivered)
        return delivered[0]

    def ingest(self, parts: Sequence[Batch]) -> List[BinRecord]:
        return [self.ingest_async(shard, part)
                for shard, part in enumerate(parts)]

    def set_capacity(self, shard: int, cycles_per_second: float) -> None:
        self.sessions[shard].set_capacity(cycles_per_second)

    def add_query(self, shard: int, query: Query, start_time=None) -> None:
        self.sessions[shard].add_query(query, start_time=start_time)

    def remove_query(self, shard: int, name: str) -> None:
        self.sessions[shard].remove_query(name)

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

    def close(self) -> None:
        """Finish every session: its last intervals go to :attr:`arrived`.
        Idempotent."""
        for queue, session in zip(self.arrived, self.sessions):
            if not session.closed:
                queue.append((None, session.finish()))

    def stop(self) -> None:
        """Nothing to release: the sessions die with the executor."""


# ----------------------------------------------------------------------
# The sharded session
# ----------------------------------------------------------------------
class ShardedSession:
    """Push-based execution handle over a :class:`ShardedSystem`.

    Follows :class:`~repro.monitor.session.MonitoringSession`'s contract:
    :meth:`step` (the batch is flow-partitioned and fanned out to the
    per-shard sessions) and :meth:`finish` deliver what a session delivers,
    the N shards' merged into one; :meth:`ingest` / :meth:`close` fold it
    into the node's own :class:`~repro.monitor.system.ExecutionResult`.

    The per-shard sessions belong to a shard executor — ``backend`` picks
    :class:`InProcessShards` or one persistent worker process per shard
    (:class:`ShardWorkerPool`) — which steps them and queues what they
    deliver in ``executor.arrived``.  Every method below is written once
    against the executor's method set: reconfigurations apply at the next
    bin boundary on either, so the merged results are bit-identical.
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
            from .workers import ShardWorkerPool
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
        #: Total capacity ``set_capacity`` queued for the next bin boundary.
        self._pending_capacity: Optional[float] = None
        #: What :meth:`ingest` / :meth:`close` have accumulated.
        self._result = ExecutionResult(sharded.mode, sharded.config.strategy,
                                       name, self.budget)
        self._result.open_logs(self._query_names)
        #: This process's merge work (a restored node starts it at zero).
        self._merge_stats = {"merge_seconds": 0.0, "divergences": 0}
        #: (packets, total cycles) each shard reported for the previous bin.
        self._prev_load: List[Optional[Tuple[int, float]]] = \
            [None] * self.num_shards
        #: The slowest shard's wall seconds in each recent bin: the node's
        #: own per-bin series, which :attr:`metrics` summarises.
        self._bin_seconds: Deque[float] = deque(maxlen=RECENT_BINS)
        #: The shards' documents, folded at :meth:`finish` (``None``: still
        #: open).
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
        """Operational metrics of the node (JSON-able).

        Same shape as :attr:`MonitoringSession.metrics`: the shards' own
        documents folded by :func:`repro.profile.fold_metrics` — stage
        totals and feature-sharing counters summed, each bin counted once,
        ``bin_seconds`` over the slowest shard's wall time in each of the
        last ``RECENT_BINS`` bins, tenant
        totals from the node's result — plus a ``sharding`` block about the
        result merge: the measurement intervals in the node's result
        (``intervals_merged``: it rides in a checkpoint, so a restored
        node counts on from there; a node that is only stepped folds
        nothing, and its owner holds the intervals), and, for this process
        only, bytes of the shard replies that carried partials (nothing
        travels in-process: 0), seconds spent merging partials, and shard
        divergences detected.  The shards' documents are read at a bin
        boundary (on the workers backend they travel the command pipes,
        FIFO with the batches); a closed session reports the ones read at
        close time.
        """
        metrics = self._closed_metrics
        if metrics is None:
            documents = self._executor.session_metrics()
            self._fold(self._delivered())
            metrics = self._metrics(documents)
        intervals = sum(map(len, self._result.query_logs.values()))
        return dict(metrics, sharding=dict(
            intervals_merged=intervals, **self._merge_stats,
            partial_bytes=self._executor.partial_bytes))

    def _metrics(self, documents: Sequence[Dict]) -> Dict:
        """The shards' metrics documents as the node's."""
        return fold_metrics(documents, self._bin_seconds, self._result)

    # ------------------------------------------------------------------
    # Merging what the shards deliver
    # ------------------------------------------------------------------
    def _delivered(self) -> Iterator[Tuple[Optional[BinRecord], List[tuple]]]:
        """Every delivery all the shards have made, merged, in order.

        Each shard's queue holds one ``(record, flushed)`` per answered bin
        and a last ``(None, flushed)`` for what ``finish`` flushed; the N
        deliveries of a bin merge into the one a serial session makes.
        """
        queues = self._executor.arrived
        while all(queues):
            records, flushed = zip(*(queue.popleft() for queue in queues))
            record = records[0]
            if record is not None:
                self._prev_load = [(shard.incoming_packets, shard.total_cycles)
                                   for shard in records]
                self._bin_seconds.append(max(
                    seconds.popleft()
                    for seconds in self._executor.ingest_seconds))
                record = BinRecord.merge(records)
            yield record, self._merged_intervals(flushed)

    def _merged_intervals(self, flushed: Sequence[List[tuple]]
                          ) -> List[tuple]:
        """One list of what a bin (or the end) flushed, from the shards'.

        ``flushed[i]`` is shard ``i``'s ``(query name, interval start,
        query class, partial)`` list; all must name the same intervals in
        the same order.  Flow-disjoint partials fold through their class's
        ``merge_partials``; one shard's stay as they are.
        """
        started = perf_counter()
        boundaries = [[entry[:2] for entry in shard] for shard in flushed]
        for index, theirs in enumerate(boundaries[1:], start=1):
            if theirs != boundaries[0]:
                raise self._diverged(index, boundaries[0], theirs)
        merged = flushed[0]
        if len(flushed) > 1:
            merged = []
            for entries in zip(*flushed):
                name, start, query_cls, _ = entries[0]
                merged.append((name, start, query_cls,
                               query_cls.merge_partials(
                                   [entry[3] for entry in entries])))
        self._merge_stats["merge_seconds"] += perf_counter() - started
        return merged

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
            f"{described(theirs)} where shard 0 flushed {described(mine)}: "
            "the shards have diverged")
        logger.error(message)
        return ShardDivergenceError(message)

    def _fold(self, delivered) -> None:
        """Deliveries into the node's own result (:meth:`ingest`'s fold)."""
        for record, flushed in delivered:
            self._result.fold(record, flushed, self._query_names)

    # ------------------------------------------------------------------
    def _partition(self, batch: Batch) -> List[Batch]:
        """A bin boundary: the bin's per-shard sub-batches."""
        if self.closed:
            raise RuntimeError("cannot ingest into a closed session")
        self._apply_capacity()
        self._bins_ingested += 1
        return batch.partition(self.num_shards, FLOW_FIELDS)

    def _apply_capacity(self) -> None:
        """A bin boundary: a queued ``set_capacity`` takes effect."""
        if self._pending_capacity is not None:
            self.budget = self._result.budget = \
                CycleBudget(self._pending_capacity, self.time_bin)
            self._pending_capacity = None

    def step(self, batch: Batch) -> Tuple[BinRecord, List[tuple]]:
        """Process one time bin on every shard; returns what it produced,
        as :meth:`MonitoringSession.step
        <repro.monitor.session.MonitoringSession.step>` does: the bin's
        merged record and the merged partials of the intervals it closed
        (unfinished).  The node keeps neither."""
        self._executor.ingest(self._partition(batch))
        # Anything ``ingest_trace`` left in flight arrived first.
        *earlier, delivered = self._delivered()
        self._fold(earlier)
        return delivered

    def finish(self) -> List[tuple]:
        """End the execution: finish every shard and return the merged
        last intervals, as :meth:`step` does.  Idempotent (later calls
        return nothing)."""
        if self.closed:
            return []
        documents = self._executor.session_metrics()  # gone afterwards
        self._apply_capacity()
        self._executor.close()
        *earlier, (_, flushed) = self._delivered()
        self._fold(earlier)
        self._closed_metrics = self._metrics(documents)
        return flushed

    def ingest(self, batch: Batch) -> BinRecord:
        """:meth:`step`, folded into the node's own result."""
        record, flushed = self.step(batch)
        self._result.fold(record, flushed, self._query_names)
        return record

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
            self._fold(self._delivered())  # whatever has come back meanwhile
        return self

    def close(self) -> ExecutionResult:
        """:meth:`finish`, folded into the node's own result, which is
        returned.  Idempotent."""
        if not self.closed:
            self._result.fold(None, self.finish(), self._query_names)
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
        total budget) and a capacity change still queued — rides along so
        a restored session continues bit-identically.  Serialise the
        payload immediately (it aliases live objects on the in-process
        backend); :mod:`repro.serve.checkpoint` wraps it in the on-disk
        format.
        """
        if self.closed:
            raise RuntimeError("cannot checkpoint a closed session")
        # The states are cut at a bin boundary every earlier delivery has
        # crossed: folded now, the logs cover exactly the states' bins.
        shard_sessions = self._executor.session_states()
        self._fold(self._delivered())
        return {
            "kind": "sharded",
            "config": self.sharded.config,
            "shard_sessions": shard_sessions,
            "result": self._result,
            "bins_ingested": self._bins_ingested,
            "query_names": list(self._query_names),
            "pending_capacity": self._pending_capacity,
        }

    @classmethod
    def from_state(cls, state: Dict, n_workers: int = 1,
                   backend: str = "auto",
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
        # without a declarative mix a factory of no queries will do (the
        # workers inherit it at fork); with one, the parent reads the
        # names from the specs and builds nothing.
        factory = None if config.queries is not None else list
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
        session._pending_capacity = state["pending_capacity"]
        session._result = result
        return session

    def partial_result(self) -> ExecutionResult:
        """The node's accuracy-so-far snapshot: every completed interval,
        merged as exactly as at :meth:`close` (shards keep running)."""
        if self.closed:
            raise RuntimeError("cannot snapshot a closed session; close() "
                               "already returned the final result")
        self._executor.session_metrics()  # answered once every bin sent is
        self._fold(self._delivered())
        return self._result.snapshot()

    # ------------------------------------------------------------------
    # Live reconfiguration (forwarded to every shard, next bin boundary)
    # ------------------------------------------------------------------
    def add_query(self, query: Query,
                  start_time: Optional[float] = None) -> None:
        """Register ``query`` on every shard at the next bin boundary (each
        shard runs its own copy)."""
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        if query.name in self._query_names:
            raise ValueError(
                f"a query named {query.name!r} is already registered")
        for shard in range(self.num_shards):
            self._executor.add_query(shard, copy.deepcopy(query),
                                     start_time=start_time)
        self._query_names.append(query.name)

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
        """Change the *total* capacity at the next bin boundary; shards
        re-split it evenly."""
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        cycles_per_second = float(cycles_per_second)
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        self._pending_capacity = cycles_per_second
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
            # Never leak worker processes or slots past an error.
            self._executor.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"ShardedSession(shards={self.num_shards}, "
                f"backend={self.backend!r}, "
                f"bins={self.bins_ingested}, {state})")


__all__ = [
    "FLOW_FIELDS",
    "InProcessShards",
    "SHARD_BACKENDS",
    "ShardDivergenceError",
    "ShardExecutionWarning",
    "ShardedSession",
    "ShardedSystem",
    "build_system",
    "effective_workers",
    "shard_seed",
    "verify_shard_exactness",
]
