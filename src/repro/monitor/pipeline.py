"""The per-bin data path: Figure 3.2 as a fixed sequence of stages.

:func:`process_bin` drives one time bin of a
:class:`~repro.monitor.system.MonitoringSystem` through
:data:`DEFAULT_STAGES`; every execution shape — ``system.run(trace)``, a
streaming :class:`~repro.monitor.session.MonitoringSession`, a shard of a
:class:`~repro.monitor.sharding.ShardedSystem` — is a session calling it:

``IntervalFlushStage``
    Determine the active queries, flush completed measurement intervals
    and start the next ones (the only interval clock).
``AdmissionStage``
    Capture-buffer admission: when the backlog exceeds the buffer the batch
    is lost *uncontrollably* before any query sees it (the "DAG drops" of
    Figure 4.2) and the bin ends early, closed by :func:`close_bin`.
``SystemOverheadStage``
    Charge the CoMo base cost (fixed + per packet).
``FilterStage``
    Evaluate every active query's stateless packet filter (with per-batch
    result sharing).
``PredictionStage``
    Feature extraction and per-query cycle prediction (predictive mode).
``RateDecisionStage``
    Turn predictions into per-query sampling rates (Algorithm 1 / Eq. 4.1 /
    no-op, depending on the operating mode).
``ExecutionStage``
    Apply the rates — system packet/flow sampling or the query's custom
    shedding method — and run the queries.
``AccountingStage``
    Feed the controller's EWMAs and close the bin with :func:`close_bin`.

Stages share a mutable :class:`BinContext` and are stateless themselves;
all cross-bin state lives on the system (controller, enforcer, runtimes)
and on the session's clock (the carried delay), so the one stage tuple
drives every system in the process.

Where a bin's numbers come from: each stage adds what it spends to the
context's fields, which carry the record's own names (``system_overhead``,
``prediction_overhead``, ``query_cycles``, ``shedding_overhead``,
``predicted_cycles``, ``expected_cycles``, ``unsampled_packets``,
``dropped_packets``).  Nothing else counts them.  :func:`close_bin`, the
one builder of a :class:`BinRecord`, closes the bin on the clock with their
total, reads the buffer occupation at the delay that leaves, feeds buffer
discovery, and sets ``ctx.record``; the bin stops there, admitted or
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..core.features import INTERVAL_MEMO, FeatureVector
from .capture import CaptureBuffer
from .packet import Batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cycles import CycleClock
    from .system import MonitoringSystem


@dataclass
class BinRecord:
    """Everything recorded about one time bin of an execution."""

    index: int
    start_ts: float
    incoming_packets: int
    incoming_bytes: int
    dropped_packets: int
    unsampled_packets: float
    predicted_cycles: float
    #: What the prediction said the queries would cost at the rates applied
    #: (``sum(prediction * rate)``): the number ``query_cycles`` measures.
    expected_cycles: float
    query_cycles: float
    prediction_overhead: float
    shedding_overhead: float
    system_overhead: float
    available_cycles: float
    delay: float
    buffer_occupation: float
    rates: Dict[str, float] = field(default_factory=dict)
    query_cycles_by_query: Dict[str, float] = field(default_factory=dict)
    #: Query cycles accounted per *declared* tenant (empty when the system
    #: runs without tenant groups).  Additive across partitions, like
    #: ``query_cycles_by_query``.
    tenant_cycles: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        return (self.query_cycles + self.prediction_overhead +
                self.shedding_overhead + self.system_overhead)

    @property
    def mean_rate(self) -> float:
        return float(np.mean(list(self.rates.values()))) if self.rates else 1.0

    @classmethod
    def merge(cls, records: Sequence["BinRecord"]) -> "BinRecord":
        """Fold per-partition records of the same time bin into a global one.

        The public second-tier merge: shards of one host and nodes of a
        fleet both fold through it.  Packet and cycle quantities are
        additive across partitions; ``delay`` and ``buffer_occupation``
        report the *worst* partition (the one closest to uncontrolled
        drops); per-query rates average across the partition instances of
        each query.

        The fold is associative and permutation-invariant: any grouping or
        ordering of the same records merges to the same values (sums and
        maxima commute; the rate average is over the multiset of per-
        partition rates, which nested merges preserve only when groups are
        merged once — merge a flat list, or accept the grouped average,
        which the fleet tier does knowingly for its already-averaged shard
        rates).  ``index``/``start_ts`` are taken from the first record;
        callers are expected to merge records of the same bin only.
        """
        records = list(records)
        if len(records) == 1:
            return records[0]
        first = records[0]
        rates: Dict[str, List[float]] = {}
        cycles_by_query: Dict[str, float] = {}
        cycles_by_tenant: Dict[str, float] = {}
        for record in records:
            for name, rate in record.rates.items():
                rates.setdefault(name, []).append(rate)
            for name, cycles in record.query_cycles_by_query.items():
                cycles_by_query[name] = cycles_by_query.get(name, 0.0) + cycles
            for name, cycles in record.tenant_cycles.items():
                cycles_by_tenant[name] = (cycles_by_tenant.get(name, 0.0) +
                                          cycles)
        return cls(
            index=first.index, start_ts=first.start_ts,
            incoming_packets=int(sum(r.incoming_packets for r in records)),
            incoming_bytes=int(sum(r.incoming_bytes for r in records)),
            dropped_packets=int(sum(r.dropped_packets for r in records)),
            unsampled_packets=float(sum(r.unsampled_packets
                                        for r in records)),
            predicted_cycles=float(sum(r.predicted_cycles for r in records)),
            expected_cycles=float(sum(r.expected_cycles for r in records)),
            query_cycles=float(sum(r.query_cycles for r in records)),
            prediction_overhead=float(sum(r.prediction_overhead
                                          for r in records)),
            shedding_overhead=float(sum(r.shedding_overhead
                                        for r in records)),
            system_overhead=float(sum(r.system_overhead for r in records)),
            available_cycles=float(sum(r.available_cycles for r in records)),
            delay=float(max(r.delay for r in records)),
            buffer_occupation=float(max(r.buffer_occupation
                                        for r in records)),
            rates={name: float(np.mean(values))
                   for name, values in rates.items()},
            query_cycles_by_query=cycles_by_query,
            tenant_cycles=cycles_by_tenant,
        )


@dataclass
class BinContext:
    """Mutable state one time bin accumulates while flowing through stages."""

    index: int
    batch: Batch
    clock: "CycleClock"
    buffer: CaptureBuffer
    #: Query runtimes active for this bin (arrival times already honoured).
    active: List = field(default_factory=list)
    #: Per-query filtered sub-batches, keyed by query name.
    filtered: Dict[str, Batch] = field(default_factory=dict)
    #: Pre-shedding feature vectors (predictive mode only).
    features_pre: Dict[str, FeatureVector] = field(default_factory=dict)
    #: Per-query cycle predictions (predictive mode only).
    predictions: Dict[str, float] = field(default_factory=dict)
    #: Rows of the system's :class:`~repro.core.fairness.QuerySlotTable`
    #: (one per active query, in ``active`` order) whose ``predicted``
    #: column was refreshed this bin; ``None`` until the prediction stage
    #: ran.
    demand_slots: Optional[np.ndarray] = None
    #: Sampling rates decided (and possibly adjusted by custom shedding).
    rates: Dict[str, float] = field(default_factory=dict)
    query_cycles_by_query: Dict[str, float] = field(default_factory=dict)
    #: The bin's own :class:`BinRecord` fields, added up by the stages.
    system_overhead: float = 0.0
    prediction_overhead: float = 0.0
    query_cycles: float = 0.0
    shedding_overhead: float = 0.0
    predicted_cycles: float = 0.0
    expected_cycles: float = 0.0
    unsampled_packets: float = 0.0
    dropped_packets: int = 0
    #: Set by :func:`close_bin`; stops the pipeline.
    record: Optional[BinRecord] = None

    @property
    def overhead(self) -> float:
        """Cycles the bin spent outside the queries so far (``como_cycles``
        + ``ps_cycles`` of Algorithm 1)."""
        return (self.system_overhead + self.prediction_overhead +
                self.shedding_overhead)


def close_bin(system: "MonitoringSystem", ctx: BinContext) -> BinRecord:
    """End the bin ``ctx`` describes and build its record.

    The clock carries the bin's total into the delay, the buffer
    occupation is read at that delay, buffer discovery learns the outcome,
    and the record copies the context's fields.  Both ways a bin ends —
    admitted (:class:`AccountingStage`) and dropped
    (:class:`AdmissionStage`) — come through here.
    """
    total = (ctx.query_cycles + ctx.prediction_overhead +
             ctx.shedding_overhead + ctx.system_overhead)
    delay = ctx.clock.close_bin(total)
    occupation = ctx.buffer.status(delay).occupation
    available = ctx.clock.per_bin_budget
    system.controller.end_bin(total, available, occupation)
    tenant_cycles: Dict[str, float] = {}
    if system.tenant_registry.declared:
        owners = system.tenant_registry.declared_tenant_of
        for name, cycles in ctx.query_cycles_by_query.items():
            tenant = owners.get(name)
            if tenant is not None:
                tenant_cycles[tenant] = tenant_cycles.get(tenant, 0.0) + cycles
    ctx.record = BinRecord(
        index=ctx.index, start_ts=ctx.batch.start_ts,
        incoming_packets=len(ctx.batch), incoming_bytes=ctx.batch.byte_count,
        dropped_packets=ctx.dropped_packets,
        unsampled_packets=ctx.unsampled_packets,
        predicted_cycles=ctx.predicted_cycles,
        expected_cycles=ctx.expected_cycles, query_cycles=ctx.query_cycles,
        prediction_overhead=ctx.prediction_overhead,
        shedding_overhead=ctx.shedding_overhead,
        system_overhead=ctx.system_overhead, available_cycles=available,
        delay=delay, buffer_occupation=occupation, rates=dict(ctx.rates),
        query_cycles_by_query=ctx.query_cycles_by_query,
        tenant_cycles=tenant_cycles,
    )
    return ctx.record


class IntervalFlushStage:
    """Flush completed measurement intervals: their mergeable partials
    leave the session with this bin's record, and the query's extractor and
    flow sampler start the next interval."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        ctx.active = system._active_runtimes(ctx.batch.start_ts)
        for runtime in ctx.active:
            system._flush_intervals(runtime, ctx.batch.start_ts)


class AdmissionStage:
    """Capture-buffer admission: a full buffer drops the batch uncontrolled."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        if not (ctx.buffer.status(ctx.clock.delay).dropping
                and len(ctx.batch) > 0):
            return
        # Uncontrolled loss: the batch never reaches the queries and the
        # bin's cycles go into draining the backlog.
        ctx.dropped_packets = len(ctx.batch)
        ctx.rates = {runtime.query.name: 0.0 for runtime in ctx.active}
        close_bin(system, ctx)


class SystemOverheadStage:
    """Charge the CoMo base cost of touching the batch."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        ctx.system_overhead += float(
            system.config.system_overhead_fixed +
            system.config.system_overhead_per_packet * len(ctx.batch))


class FilterStage:
    """Evaluate every active query's packet filter (shared per batch)."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        for runtime in ctx.active:
            ctx.filtered[runtime.query.name] = system._filtered_batch(
                runtime.query.filter, ctx.batch)


class PredictionStage:
    """Extract features and predict per-query cycles (predictive mode)."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        if system.mode != "predictive":
            return
        table = system.demand_table
        slots = np.empty(len(ctx.active), dtype=np.intp)
        for position, runtime in enumerate(ctx.active):
            name = runtime.query.name
            sub_batch = ctx.filtered[name]
            feats = runtime.extractor.extract(sub_batch, update_state=False)
            ctx.features_pre[name] = feats
            prediction = runtime.predictor.predict(feats)
            ctx.predictions[name] = prediction
            ctx.predicted_cycles += prediction
            ctx.prediction_overhead += float(
                runtime.extractor.extraction_cost(sub_batch) +
                runtime.predictor.overhead_cycles)
            # The prediction lands in the slot table, which maintains the
            # effective minimum rate across bins.
            table.predicted[runtime.slot] = prediction
            slots[position] = runtime.slot
        ctx.demand_slots = slots


class RateDecisionStage:
    """Decide per-query sampling rates for the bin."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        ctx.rates = system._decide_rates(ctx)


class ExecutionStage:
    """Apply the rates and run the queries (sampled or custom shedding)."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        for runtime in ctx.active:
            name = runtime.query.name
            rate = ctx.rates.get(name, 1.0)
            sub_batch = ctx.filtered[name]
            if system._uses_custom(runtime):
                cycles, applied = system._run_custom(
                    runtime, sub_batch, rate, ctx.predictions.get(name, 0.0),
                    ctx.index, ctx.features_pre.get(name))
                ctx.rates[name] = applied
                ctx.unsampled_packets += (1.0 - applied) * len(sub_batch)
            else:
                cycles, ls_cycles = system._run_sampled(
                    runtime, sub_batch, rate, ctx.features_pre.get(name))
                ctx.shedding_overhead += ls_cycles
                ctx.unsampled_packets += (1.0 - rate) * len(sub_batch)
            ctx.query_cycles_by_query[name] = cycles
            ctx.query_cycles += float(cycles)
            ctx.expected_cycles += ctx.predictions.get(name, 0.0) * rate


class AccountingStage:
    """Feed the controller's EWMAs and close the bin with
    :func:`close_bin`."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        # ``unsampled_packets`` is reported per packet of the input stream
        # (averaged over the queries), not summed across queries.
        if ctx.active:
            ctx.unsampled_packets /= len(ctx.active)
        if system.mode == "predictive":
            system.controller.record_shedding_overhead(ctx.shedding_overhead)
            system.controller.record_prediction_error(ctx.expected_cycles,
                                                      ctx.query_cycles)
        system.last_accounted = close_bin(system, ctx)


#: The canonical stage order of Figure 3.2.  Stages are stateless, so the
#: singletons can be shared by every system in the process.
DEFAULT_STAGES = (
    IntervalFlushStage(),
    AdmissionStage(),
    SystemOverheadStage(),
    FilterStage(),
    PredictionStage(),
    RateDecisionStage(),
    ExecutionStage(),
    AccountingStage(),
)


def process_bin(system: "MonitoringSystem", index: int, batch: Batch,
                clock: "CycleClock", buffer: CaptureBuffer) -> BinRecord:
    """Run ``batch`` through :data:`DEFAULT_STAGES`; returns the bin's
    record."""
    ctx = BinContext(index=index, batch=batch, clock=clock, buffer=buffer)
    profiler = system.profiler
    bin_seconds = 0.0
    for stage in DEFAULT_STAGES:
        started = perf_counter()
        stage.run(system, ctx)
        elapsed = perf_counter() - started
        profiler.record(type(stage).__name__, elapsed)
        bin_seconds += elapsed
        if ctx.record is not None:
            break
    profiler.end_bin(bin_seconds)
    # What the extractors memoised on the bin's batches is keyed by
    # interval banks they have all moved on from; a trace that keeps
    # its bins must not keep one bank per query and bin with them.
    for sub_batch in ctx.filtered.values():
        sub_batch.forget(INTERVAL_MEMO)
    return ctx.record


__all__ = [
    "AccountingStage",
    "AdmissionStage",
    "BinContext",
    "BinRecord",
    "DEFAULT_STAGES",
    "ExecutionStage",
    "FilterStage",
    "IntervalFlushStage",
    "PredictionStage",
    "RateDecisionStage",
    "SystemOverheadStage",
    "close_bin",
    "process_bin",
]
