"""The monitoring system: queries + capture + load shedding, end to end.

:class:`MonitoringSystem` reproduces the CoMo data path of Figure 2.1 at the
granularity the load shedding scheme cares about: batches of packets flow
from the capture process, through the prediction and load shedding subsystem
(Figure 3.2), into the plug-in queries, while a cycle clock accounts for
every consumer of CPU time.

Four operating modes correspond to the systems compared in the evaluation:

``predictive``
    The paper's scheme (Algorithm 1): per-query MLR+FCBF prediction, an
    allocation strategy (eq_srates / mmfs_cpu / mmfs_pkt), packet / flow /
    custom shedding, buffer discovery and error correction.
``reactive``
    The SEDA-like baseline of Section 4.5.1: the sampling rate follows the
    measured load of the *previous* bin (Equation 4.1).
``original``
    The unmodified system (also the ``no_lshed`` system of Chapter 5): no
    sampling at all; overload turns into uncontrolled capture-buffer drops.
``reference``
    ``original`` with an infinite buffer; used to compute the ground-truth
    query results against which accuracy is measured.

Every bin a session runs delivers one :class:`BinRecord` and the intervals
the bin closed, each ``(query name, interval start, query class, partial)``;
whoever owns the session folds them into an :class:`ExecutionResult`, which
keeps the bins as the columns of a :class:`BinTable`.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.custom import CustomShedEnforcer
from ..core.cycles import CycleBudget
from ..core.fairness import QuerySlotTable
from ..core.features import (FeatureExtractor, FeatureSharing,
                             FeatureVector)
from ..core.hashing import stream_key
from ..core.prediction import CyclePredictor, make_predictor
from ..core.sampling import FlowSampler, PacketSampler
from ..core.shedding import LoadSheddingController
from ..core.tenancy import TenantRegistry
from ..profile import StageProfiler
from .config import MODES, MODE_ALIASES, SystemConfig
from .packet import Batch, PacketTrace, as_trace
from .pipeline import INT_FIELDS, MAP_FIELDS, BinRecord
from .query import (SAMPLING_CUSTOM, SAMPLING_FLOW, Query, QueryResultLog,
                    closed_intervals)

__all__ = ["BinRecord", "BinTable", "ExecutionResult", "MonitoringSystem",
           "merge_query_logs", "MODES", "MODE_ALIASES"]


def merge_query_logs(logs: Iterable[QueryResultLog],
                     query_cls: type) -> QueryResultLog:
    """Merge finished per-partition result logs interval by interval.

    All partitions observe the same bin timeline — empty sub-batches
    included — so their logs flush at identical interval boundaries; a
    mismatch means the partitions diverged and is an error, not something
    to paper over.  Each interval folds through
    ``query_cls.merge_interval_results``, so the associativity of the
    merged log is exactly that of the query's ``RESULT_MERGE`` spec.  This
    is how the nodes of a fleet federate; the shards of one node never
    finish a result of their own (:mod:`repro.monitor.sharding` merges
    their partials).
    """
    logs = list(logs)
    if len(logs) == 1:
        return logs[0]
    first = logs[0]
    for log in logs[1:]:
        if log.intervals != first.intervals:
            raise ValueError(
                f"partition logs of query {first.name!r} have mismatching "
                "interval boundaries; partitions must see the same bin "
                "timeline")
    merged = QueryResultLog(first.name)
    for index, interval_start in enumerate(first.intervals):
        merged.append(interval_start, query_cls.merge_interval_results(
            [log.results[index] for log in logs]))
    return merged


_FIELDS = tuple(field.name for field in dataclasses.fields(BinRecord))
_SCALAR_FIELDS = tuple(name for name in _FIELDS if name not in MAP_FIELDS)


class _MapColumn:
    """One ``{name: value}`` field of every bin of a :class:`BinTable`.

    A run of bins whose maps have the same names in the same order stores
    the names once, as a tuple; every bin's values go, in that order, into
    one flat column (float64, or int64 for typecode ``"q"``).
    """

    def __init__(self, typecode: str) -> None:
        #: Per run: its first bin, where that bin's values start, its names.
        self.starts = array("q")
        self.offsets = array("q")
        self.names: List[tuple] = []
        self.values = array(typecode)

    def append(self, position: int, mapping: Dict[str, float]) -> None:
        names = tuple(mapping)
        if not self.names or names != self.names[-1]:
            self.starts.append(position)
            self.offsets.append(len(self.values))
            self.names.append(names)
        self.values.extend(mapping.values())

    def row(self, position: int) -> Dict[str, float]:
        """Bin ``position``'s map, as a fresh dict in stored key order."""
        run = bisect_right(self.starts, position) - 1
        names = self.names[run]
        first = self.offsets[run] + (position - self.starts[run]) * len(names)
        return dict(zip(names, self.values[first:first + len(names)]))

    def runs(self, length: int) -> Iterator[Tuple[tuple, np.ndarray]]:
        """``(names, values)`` of every run of the ``length`` bins appended,
        ``values`` a ``(bins of the run, len(names))`` array."""
        values = np.array(self.values)
        ends = self.starts[1:].tolist() + [length]
        for start, end, first, names in zip(self.starts, ends, self.offsets,
                                            self.names):
            yield names, values[first:first + (end - start) * len(names)
                                ].reshape(end - start, len(names))

    def copy(self) -> "_MapColumn":
        clone = _MapColumn(self.values.typecode)
        clone.starts, clone.offsets = self.starts[:], self.offsets[:]
        clone.names, clone.values = list(self.names), self.values[:]
        return clone


class _BinRow(BinRecord):
    """Bin ``position`` of a :class:`BinTable`, as a :class:`BinRecord`.

    A scalar field reads and writes its column in place; a map field
    returns a fresh dict.  Pickled or copied, a row is a plain record.
    """

    def __init__(self, table: "BinTable", position: int) -> None:
        self._table = table
        self._position = position

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinRecord):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _FIELDS)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return BinRecord, tuple(getattr(self, name) for name in _FIELDS)


def _scalar_field(name: str) -> property:
    def read(row: _BinRow):
        return row._table._columns[name][row._position]

    def write(row: _BinRow, value) -> None:
        row._table._columns[name][row._position] = value

    return property(read, write)


def _map_field(name: str) -> property:
    return property(lambda row: row._table._maps[name].row(row._position))


for _name in _SCALAR_FIELDS:
    setattr(_BinRow, _name, _scalar_field(_name))
for _name in MAP_FIELDS:
    setattr(_BinRow, _name, _map_field(_name))


class BinTable(Sequence):
    """The bins of an :class:`ExecutionResult`: a table whose rows are
    :class:`BinRecord` views.

    :meth:`append` copies a record's values into append-only columns — one
    array per scalar field, and per map field a :class:`_MapColumn` — and
    keeps no record object.  Indexing and iteration give row views, and a
    table compares equal to a list (or table) of equal records.
    """

    def __init__(self) -> None:
        self._columns = {name: array("q" if name in INT_FIELDS else "d")
                         for name in _SCALAR_FIELDS}
        self._maps = {name: _MapColumn("q" if name in INT_FIELDS else "d")
                      for name in MAP_FIELDS}
        self._length = 0

    def append(self, record: BinRecord) -> None:
        for name, column in self._columns.items():
            column.append(getattr(record, name))
        for name, column in self._maps.items():
            column.append(self._length, getattr(record, name))
        self._length += 1

    def copy(self) -> "BinTable":
        """These bins as they are now, in columns of their own."""
        clone = BinTable()
        clone._columns = {name: column[:]
                          for name, column in self._columns.items()}
        clone._maps = {name: column.copy()
                       for name, column in self._maps.items()}
        clone._length = self._length
        return clone

    def column(self, name: str) -> np.ndarray:
        """A copy of scalar field ``name``'s column (int64 or float64)."""
        return np.array(self._columns[name])

    def map_runs(self, name: str) -> Iterator[Tuple[tuple, np.ndarray]]:
        """Map field ``name`` as runs of ``(names, values)``; see
        :meth:`_MapColumn.runs`."""
        return self._maps[name].runs(self._length)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(self._length))]
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError("bin index out of range")
        return _BinRow(self, position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, BinTable)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


class ExecutionResult:
    """Result of running a system over a trace, and the accumulator every
    tier builds it in: whoever owns a session folds what each of its steps
    delivers — the bin's record and the intervals the bin flushed — in
    through :meth:`fold`, the same way for a monitor, a node and a fleet.
    The bins are a :class:`BinTable`: ``bins[i]`` is a row view whose
    scalar writes go to the column the aggregate views read.
    """

    def __init__(self, mode: str, strategy: str, trace_name: str,
                 budget: CycleBudget) -> None:
        self.mode = mode
        self.strategy = strategy
        self.trace_name = trace_name
        self.budget = budget
        self.bins = BinTable()
        self.query_logs: Dict[str, QueryResultLog] = {}
        self._tenant_cycles: Dict[str, float] = {}

    # -- accumulation -------------------------------------------------------
    def fold(self, record: Optional[BinRecord], flushed: Iterable[tuple],
             names: Iterable[str]) -> None:
        """Fold one delivery of a session: the bin's ``record`` (``None``
        for what the end of the execution flushed), the ``flushed``
        intervals, and ``names``, the queries that run from this bin
        boundary on."""
        if record is not None:
            self.add_bin(record)
        self.open_logs(names)
        self.add_intervals(flushed)

    def add_bin(self, record: BinRecord) -> None:
        """Fold one time bin's record in."""
        self.bins.append(record)
        totals = self._tenant_cycles
        for tenant, cycles in record.tenant_cycles.items():
            totals[tenant] = totals.get(tenant, 0.0) + cycles

    def open_logs(self, names: Iterable[str]) -> None:
        """A bin boundary: the queries called ``names`` run from here on.

        A log is opened when its query first runs and is never dropped: a
        departed query keeps it, a same-named later arrival appends to it.
        """
        for name in names:
            if name not in self.query_logs:
                self.query_logs[name] = QueryResultLog(name)

    def add_intervals(self, flushed: Iterable[tuple]) -> None:
        """Finish and log what a bin boundary (or the end) flushed: each
        ``(query name, interval start, query class, partial)`` is finalised
        by the class of the query that flushed it — what
        ``interval_result()`` does — so a departed query's last interval
        is its own, whoever takes the name at that boundary."""
        for name, interval_start, query_cls, partial in flushed:
            self.open_logs((name,))
            self.query_logs[name].append(interval_start,
                                         query_cls.finalize(partial))

    def snapshot(self) -> "ExecutionResult":
        """A copy that stays as it is while this result keeps growing
        (the bins are copied, the results themselves are shared)."""
        clone = ExecutionResult(self.mode, self.strategy, self.trace_name,
                                self.budget)
        clone.bins = self.bins.copy()
        clone.query_logs = {name: log.copy()
                            for name, log in self.query_logs.items()}
        clone._tenant_cycles = dict(self._tenant_cycles)
        return clone

    # -- second-tier merge --------------------------------------------------
    @classmethod
    def merge(cls, results: "Iterable[ExecutionResult]",
              query_classes: Optional[Dict[str, type]] = None,
              budget: Optional[CycleBudget] = None,
              name: Optional[str] = None) -> "ExecutionResult":
        """Fold per-partition executions into one global execution.

        The public merge of *finished* executions — what the fleet tier
        federates its nodes through.  Bin records of the same index fold
        via :meth:`BinRecord.merge` (sums / maxima / rate means); query
        logs fold interval by interval via :func:`merge_query_logs` under
        each query's ``RESULT_MERGE`` spec.

        **Ordering and associativity.**  Every registered query's
        ``RESULT_MERGE`` fold is associative and permutation-invariant:
        ``merge([a, b, c])``, ``merge([merge([a, b]), c])`` and
        ``merge([c, a, b])`` agree on every query-log value (floating-point
        sums commute exactly for the integer-valued counters the queries
        report; otherwise to rounding).  Nested ``BinRecord`` merges
        re-average already-averaged sampling rates, so grouped bin-level
        *rate* means are weighted differently from flat ones — every other
        bin quantity is an associative sum or max.

        Parameters default for the fleet case: ``query_classes`` resolves
        each log name through the :data:`repro.queries.QUERY_CLASSES`
        registry (pass it explicitly for renamed or custom query
        instances), ``budget`` sums the member capacities over the first
        result's time bin, and ``name`` is taken from the first result.
        """
        results = list(results)
        if not results:
            raise ValueError("cannot merge zero execution results")
        first = results[0]
        if budget is None:
            budget = CycleBudget(
                cycles_per_second=float(sum(r.budget.cycles_per_second
                                            for r in results)),
                time_bin=first.budget.time_bin)
        if name is None:
            name = first.trace_name
        if query_classes is None:
            from ..queries import QUERY_CLASSES
            query_classes = {}
            for qname in first.query_logs:
                if qname not in QUERY_CLASSES:
                    raise ValueError(
                        f"query log {qname!r} does not match a registered "
                        "query kind; pass query_classes= explicitly to "
                        "merge renamed or custom query instances")
                query_classes[qname] = QUERY_CLASSES[qname]
        merged = cls(first.mode, first.strategy, name, budget)
        n_bins = len(first.bins)
        for result in results[1:]:
            if len(result.bins) != n_bins:
                raise ValueError(
                    "partition executions cover different bin counts")
        for index in range(n_bins):
            merged.add_bin(BinRecord.merge([result.bins[index]
                                            for result in results]))
        merged.query_logs = {
            qname: merge_query_logs([result.query_logs[qname]
                                     for result in results],
                                    query_classes[qname])
            for qname in first.query_logs
        }
        return merged

    # -- aggregate views ----------------------------------------------------
    def series(self, attribute: str) -> np.ndarray:
        """Per-bin series of any :class:`BinRecord` attribute/property."""
        if attribute == "total_cycles":
            bins = self.bins
            return (bins.column("query_cycles") +
                    bins.column("prediction_overhead") +
                    bins.column("shedding_overhead") +
                    bins.column("system_overhead"))
        if attribute == "mean_rate":
            return self._mean_rates()[0]
        return self.bins.column(attribute).astype(np.float64, copy=False)

    def _mean_rates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per bin, :attr:`BinRecord.mean_rate` and whether it had rates."""
        means, rated = [np.empty(0)], [np.empty(0, dtype=bool)]
        for names, values in self.bins.map_runs("rates"):
            means.append(values.mean(axis=1) if names
                         else np.ones(len(values)))
            rated.append(np.full(len(values), bool(names)))
        return np.concatenate(means), np.concatenate(rated)

    def _total(self, name: str):
        """Column ``name`` summed in bin order, in Python arithmetic (as a
        loop over the records would: ints do not wrap)."""
        return sum(self.bins.column(name).tolist())

    @property
    def total_packets(self) -> int:
        return self._total("incoming_packets")

    @property
    def total_bytes(self) -> int:
        return self._total("incoming_bytes")

    @property
    def dropped_packets(self) -> int:
        return self._total("dropped_packets")

    @property
    def unsampled_packets(self) -> float:
        return float(self._total("unsampled_packets"))

    @property
    def drop_fraction(self) -> float:
        total = self.total_packets
        return self.dropped_packets / total if total else 0.0

    def cycles_per_bin(self) -> np.ndarray:
        return self.series("total_cycles")

    def mean_sampling_rate(self) -> float:
        means, rated = self._mean_rates()
        return float(np.mean(means[rated])) if rated.any() else 1.0

    def rate_series(self, query_name: str) -> np.ndarray:
        parts = [np.empty(0)]
        for names, values in self.bins.map_runs("rates"):
            parts.append(values[:, names.index(query_name)]
                         if query_name in names else np.ones(len(values)))
        return np.concatenate(parts)

    def tenant_cycle_totals(self) -> Dict[str, float]:
        """Total query cycles accounted per declared tenant.

        The running sum of the per-bin ``tenant_cycles`` maps folded in by
        :meth:`add_bin`; empty when the system ran without tenant groups.
        Survives both merge tiers (shards, fleet) because
        :meth:`BinRecord.merge` sums tenant cycles additively.
        """
        return dict(self._tenant_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionResult(mode={self.mode!r}, bins={len(self.bins)}, "
                f"dropped={self.dropped_packets})")


class _QueryRuntime:
    """Per-query state owned by the monitoring system."""

    def __init__(self, query: Query, start_time: float, predictor: CyclePredictor,
                 extractor: FeatureExtractor, sampler) -> None:
        self.query = query
        self.start_time = float(start_time)
        self.predictor = predictor
        self.extractor = extractor
        self.sampler = sampler
        self.interval_start: Optional[float] = None
        #: Row of the system's :class:`~repro.core.fairness.QuerySlotTable`
        #: holding this query's demand columns (set by ``add_query``).
        self.slot = -1

    def reset(self) -> None:
        self.query.reset()
        self.predictor.reset()
        self.extractor.reset()
        self.interval_start = None


class MonitoringSystem:
    """A CoMo-like monitoring system with pluggable load shedding.

    Built from its :class:`SystemConfig` (``config.build(queries)`` is the
    documented route) and reading every knob from ``self.config``:
    operating mode, allocation strategy, predictor kind, host capacity,
    whether custom load shedding is honoured (Chapter 6;
    when not, custom queries fall back to packet sampling, the system of
    Fig. 6.6), measurement noise, CoMo overheads.  ``queries`` is the
    initial query set (default: the config's own declarative mix); more
    can be added with :meth:`add_query`.
    """

    def __init__(self, config: Optional[SystemConfig] = None,
                 queries: Optional[Iterable[Query]] = None) -> None:
        if config is None:
            config = SystemConfig()
        elif not isinstance(config, SystemConfig):
            raise TypeError(
                f"a MonitoringSystem is built from a SystemConfig, got "
                f"{type(config).__name__}: MonitoringSystem(config, queries)"
                " or config.build(queries)")
        if config.num_shards != 1:
            raise ValueError(
                f"a MonitoringSystem is a single shard; num_shards="
                f"{config.num_shards} requires repro.monitor.sharding."
                "build_system")
        self.config = config
        self.mode = config.mode
        self.budget = config.make_budget()

        self.controller = LoadSheddingController(strategy=config.strategy)
        self.enforcer = CustomShedEnforcer()
        #: What the feature extractors share: the canonical empty interval
        #: bank and the sharing counters.
        self.feature_states = FeatureSharing()
        #: Per-stage wall-time telemetry (see :mod:`repro.profile`).
        self.profiler = StageProfiler()
        #: Columnar per-tenant state + query→tenant membership (queries
        #: outside declared groups become implicit singleton tenants).
        self.tenant_registry = TenantRegistry(config.tenants or ())
        #: Stable per-query demand columns (predicted cycles, effective
        #: minimum rates, tie-break ranks, tenant slots) maintained across
        #: bins; the per-bin allocator gathers rows by slot index.
        self.demand_table = QuerySlotTable()
        self._runtimes: Dict[str, _QueryRuntime] = {}
        #: ``(query name, interval start, query class, partial)`` of every
        #: measurement interval flushed since the session driving this
        #: system last took the list away (it does after every bin).
        self._flushed: List[tuple] = []
        #: The record of the last bin the queries ran in (a dropped bin
        #: does not count): what reactive mode scales its rate from.
        self.last_accounted: Optional[BinRecord] = None
        if queries is None:
            # A config may carry a declarative query mix of its own.
            queries = config.build_queries() or ()
        for query in queries:
            self.add_query(query)

    # ------------------------------------------------------------------
    # Query management
    # ------------------------------------------------------------------
    def add_query(self, query: Query, start_time: float = 0.0) -> None:
        """Register a query; ``start_time`` models query arrivals (Ch. 6)."""
        if query.name in self._runtimes:
            raise ValueError(f"a query named {query.name!r} is already registered")
        config = self.config
        predictor = make_predictor(config.predictor)
        extractor = FeatureExtractor(method=config.feature_method,
                                     sharing=self.feature_states)
        # The query's draws are keyed by its name, so they do not depend on
        # which queries were registered before it.
        key = stream_key(config.seed, query.name)
        if query.sampling_method == SAMPLING_FLOW:
            sampler = FlowSampler(key)
        else:
            sampler = PacketSampler(key)
        query.meter.noise_std = config.measurement_noise
        query.reseed(key)
        runtime = _QueryRuntime(query, start_time, predictor, extractor,
                                sampler)
        # Columnar demand state: the query's effective minimum sampling
        # rate (its own constraint lifted to any declared tenant floor) and
        # tenant slot live in the slot table from now on.
        effective_min = max(query.minimum_sampling_rate,
                            self.tenant_registry.min_rate_for(query.name))
        runtime.slot = self.demand_table.add(
            query.name, min_rate=effective_min,
            tenant_slot=self.tenant_registry.assign(query.name))
        self._runtimes[query.name] = runtime

    def remove_query(self, name: str) -> None:
        """Deregister a query and forget all per-query shedding state.

        Dropping the enforcement record matters when a same-named query is
        later re-added mid-experiment: a fresh query must not inherit the
        violation history of the old one, which would get it disabled for
        sins it never committed.
        """
        self._runtimes.pop(name, None)
        self.demand_table.remove(name)
        self.enforcer.reset(name)

    @property
    def query_names(self) -> List[str]:
        return list(self._runtimes)

    def runtime(self, name: str) -> _QueryRuntime:
        return self._runtimes[name]

    def _uses_custom(self, runtime: _QueryRuntime) -> bool:
        return (self.mode == "predictive"
                and self.config.support_custom_shedding
                and runtime.query.sampling_method == SAMPLING_CUSTOM)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def open_session(self, time_bin: float = 0.1, name: str = "live"):
        """Open a push-based :class:`~repro.monitor.session.MonitoringSession`.

        The session owns the execution: feed it batches with
        ``session.ingest(batch)``, reconfigure it live (``add_query``,
        ``remove_query``, ``set_capacity``) and finish with
        ``session.close()``.  Opening a session resets all per-execution
        state, exactly as :meth:`run` does.
        """
        from .session import MonitoringSession
        return MonitoringSession(self, time_bin=time_bin, name=name)

    def run(self, trace: PacketTrace, time_bin: float = 0.1) -> ExecutionResult:
        """Run the system over a trace and return the execution record.

        Thin wrapper over the streaming session API: it opens a session,
        ingests every batch of the trace and closes the session.  Driving a
        session by hand over the same batches is bit-identical.  ``trace``
        may also be a :class:`~repro.monitor.packet.StreamingTrace` or a
        trace store, in which case the execution is out-of-core.
        """
        trace = as_trace(trace)
        session = self.open_session(time_bin=time_bin, name=trace.name)
        return session.ingest_trace(trace).close()

    def _reset(self) -> None:
        self._flushed = []
        self.feature_states.reset()
        for runtime in self._runtimes.values():
            runtime.reset()
        self.controller.reset()
        self.enforcer.reset()
        self.profiler.reset()
        self.last_accounted = None

    def _active_runtimes(self, batch_start: float) -> List[_QueryRuntime]:
        return [runtime for runtime in self._runtimes.values()
                if runtime.start_time <= batch_start + 1e-9]

    # ------------------------------------------------------------------
    def _flush_intervals(self, runtime: _QueryRuntime, batch_start: float
                         ) -> None:
        """Flush the intervals the bin starting at ``batch_start`` closes;
        the query's extractor and flow sampler start the next one here."""
        closed, runtime.interval_start = closed_intervals(
            runtime.interval_start, runtime.query.measurement_interval,
            batch_start)
        for interval_start in closed:
            self._flush_interval(runtime, interval_start)
        if closed:
            runtime.extractor.reset()
            if isinstance(runtime.sampler, FlowSampler):
                runtime.sampler.renew_hash()

    def _flush_interval(self, runtime: _QueryRuntime,
                        interval_start: float) -> None:
        """Flush the interval that started at ``interval_start``: its
        mergeable partial leaves with the bin, named by the query's class,
        for whoever accumulates the session's results to finish (alone, or
        merged with the other shards' of a node)."""
        query = runtime.query
        self._flushed.append((query.name, interval_start, type(query),
                              query.interval_partial()))
        query.consume_cycles()  # flush cost is charged to export

    def _flush_runtime_final(self, runtime: _QueryRuntime) -> None:
        """Flush one query's last (possibly partial) measurement interval.

        Called when an execution ends and when a query departs mid-session.
        """
        if runtime.interval_start is not None:
            self._flush_interval(runtime, runtime.interval_start)

    def _final_flush(self) -> None:
        """Flush the last (possibly partial) measurement intervals."""
        for runtime in self._runtimes.values():
            self._flush_runtime_final(runtime)

    # ------------------------------------------------------------------
    @staticmethod
    def _filtered_batch(packet_filter, batch: Batch) -> Batch:
        """Apply a stateless filter with per-batch result sharing.

        Queries frequently register semantically identical filters (most use
        ``all_packets``); the result is memoised on the batch keyed by the
        filter's ``cache_key``, so N queries behind the same predicate
        trigger one evaluation — and because traces memoise their batch
        slices, the reuse extends across modes run over the same trace.
        Filters without a cache key (hand-written predicates) are never
        shared.  The batch owns the cache and a result never owns the
        batch back (an all-matching result is stored as a marker, a
        selecting one links to the batch weakly), so the results are freed
        with the bin.
        """
        key = packet_filter.cache_key
        if key is None:
            return packet_filter.apply(batch)
        cached = batch.cached_filter(key)
        if cached is None:
            cached = packet_filter.apply(batch)
            batch.store_filter(key, cached)
        return cached

    # ------------------------------------------------------------------
    def _run_sampled(self, runtime: _QueryRuntime, sub_batch: Batch,
                     rate: float, features_pre: Optional[FeatureVector]
                     ) -> tuple:
        """Run a query behind system packet/flow sampling.  Returns
        ``(query_cycles, shedding_cycles)``."""
        query = runtime.query
        shedding_cycles = 0.0
        if rate >= 1.0:
            processed = sub_batch
            features_post = features_pre
            if self.mode == "predictive":
                runtime.extractor.commit(sub_batch)
        elif rate <= 0.0:
            # The query is disabled for this bin: it sees no packets.
            processed = sub_batch.select(np.zeros(len(sub_batch), dtype=bool))
            features_post = None
        else:
            processed = runtime.sampler.sample(sub_batch, rate)
            shedding_cycles += runtime.sampler.cost(sub_batch)
            if self.mode == "predictive":
                features_post = runtime.extractor.extract(processed,
                                                          update_state=True)
                shedding_cycles += runtime.extractor.extraction_cost(processed)
            else:
                features_post = None
        if rate > 0.0:
            query.update(processed, max(rate, 1e-12))
        cycles = query.consume_cycles()
        if self.mode == "predictive" and features_post is not None:
            runtime.predictor.observe(features_post.values
                                      if isinstance(features_post, FeatureVector)
                                      else features_post, cycles)
        return cycles, shedding_cycles

    def _run_custom(self, runtime: _QueryRuntime, sub_batch: Batch,
                    grant: float, prediction: float, bin_index: int,
                    features_pre: Optional[FeatureVector]) -> tuple:
        """Run a query that sheds its own load at the fraction ``grant`` the
        rate decision allowed it (0.0: it does not run).  Returns
        ``(query_cycles, applied_fraction)``."""
        query = runtime.query
        if grant <= 0.0:
            return 0.0, 0.0
        applied = query.shed_load(sub_batch, grant)
        cycles = query.consume_cycles()
        # The query was granted ``prediction * grant`` cycles; consuming
        # noticeably more than that is a violation the enforcer acts upon.
        # Before the predictor has a fitted model there is no grant in
        # cycles to hold the query to, and granted its whole batch a query
        # cannot exceed it: those bins only move the correction factor.
        if prediction > 0.0:
            self.enforcer.record(
                query.name, expected_cycles=prediction * grant,
                actual_cycles=cycles, bin_index=bin_index,
                judged=runtime.predictor.fitted and grant < 1.0)
        # Disabled by this bin: its history holds what it reported, which
        # its cycles broke, and it starts its penalty with an empty one.
        disabled = self.enforcer.is_disabled(query.name, bin_index + 1)
        if disabled:
            runtime.predictor.reset()
        if features_pre is not None:
            # Keep the regression history in full-batch terms: scale the
            # measured cycles back up by the fraction the query reports.
            if not disabled:
                scale = max(float(applied), 0.05)
                runtime.predictor.observe(features_pre.values, cycles / scale)
            runtime.extractor.commit(sub_batch)
        return cycles, float(applied)
