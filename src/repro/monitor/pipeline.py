"""The per-bin data path: Algorithm 1 as one fixed tuple of four stages.

:func:`process_bin` drives one time bin of a
:class:`~repro.monitor.system.MonitoringSystem` through
:data:`DEFAULT_STAGES`; every execution shape — ``system.run(trace)``, a
streaming :class:`~repro.monitor.session.MonitoringSession`, a shard of a
:class:`~repro.monitor.sharding.ShardedSystem`, a bin handed its grants —
is a session calling it:

``IntervalFlushStage``
    Determine the active queries, flush completed measurement intervals
    and start the next ones (the only interval clock).
``RateDecisionStage``
    Decide the bin.  Capture-buffer admission: when the backlog exceeds
    the buffer the batch is lost *uncontrollably* before any query sees it
    (the "DAG drops" of Figure 4.2) and the bin ends early, closed by
    :func:`close_bin`.  Then the CoMo base cost, every query's packet
    filter (with per-batch result sharing), the pre-shedding features and
    the cycle prediction (predictive mode), and every per-query rate
    decision: the sampling rates (Algorithm 1 up to line 9 / Eq. 4.1 /
    no-op, depending on the operating mode), the grant of a query that
    sheds its own load (the Chapter 6 enforcer's correction or penalty),
    and what bound each rate (:class:`Bound`).  A caller that has decided
    the bin already hands :func:`process_bin` its ``grants`` (``{query
    name: rate}``): the stage takes them as decided rates and grants in
    place of the prediction and the decision; :data:`LOST` loses the bin.
``ExecutionStage``
    Only execute: run each query at its grant — behind system packet/flow
    sampling or through its custom shedding method — and measure it: the
    rate it applied, its cycles, the sampler's cost and the rows a sampled
    query kept.
``AccountingStage``
    The one place the system learns: the post-shedding features and each
    predictor's history, the enforcer's verdict on a query that sheds its
    own load, the EWMAs of line 13 (shedding cycles) and line 17
    (prediction error); then :func:`close_bin`.  A bin handed its grants
    learns nothing.

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
discovery, copies the rate decision in beside its outcome, and sets
``ctx.record``; the bin stops there, admitted or dropped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import IntEnum
from time import perf_counter
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Union)

import numpy as np

from ..core.features import INTERVAL_MEMO, FeatureVector
from ..core.shedding import ShedPlan, reactive_rate
from ..core.tenancy import TenantAssignment
from .capture import CaptureBuffer
from .packet import Batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cycles import CycleClock
    from .system import MonitoringSystem

#: The CoMo base cost of touching one packet of a batch, in cycles (the
#: batch's fixed cost is ``SystemConfig.system_overhead_fixed``).
SYSTEM_OVERHEAD_PER_PACKET = 20.0

#: The ``grants`` of a bin the capture buffer lost: no query sees its
#: batch, as when a full buffer drops it.
LOST = "lost"
#: What a caller that has decided a bin hands in: ``{query name: rate}``
#: for every active query, or :data:`LOST`.
Grants = Union[Mapping[str, float], str]


class Bound(IntEnum):
    """What bound a query's decided rate in a bin (``BinRecord.bounds``).

    Ordered from least to most constrained, so a merge keeps the worst
    partition's code with ``max``.  :class:`RateDecisionStage` gives each
    query the first code that applies, in the order ``DROPPED``,
    ``PENALISED``, ``DISABLED``, ``UNBOUND``, ``MIN_RATE``, ``TENANT``,
    ``CAPACITY``.
    """

    #: The decided rate is 1.0: nothing is shed.
    UNBOUND = 0
    #: Anything else, a reactive rate below 1.0 included.
    CAPACITY = 1
    #: The query's tenant share is at its ``budget_share`` cap.
    TENANT = 2
    #: The decided rate is the query's effective minimum rate.
    MIN_RATE = 3
    #: Switched off for the bin by the allocator (Section 5.2.1).
    DISABLED = 4
    #: Serving a penalty of the Chapter 6 enforcer.
    PENALISED = 5
    #: The capture buffer lost the bin before any query saw it.
    DROPPED = 6


#: The :class:`BinRecord` fields that map a query (or tenant) name to a value.
MAP_FIELDS = ("rates", "query_cycles_by_query", "tenant_cycles",
              "predicted_by_query", "decided_rates", "bounds")
#: The :class:`BinRecord` fields whose values are ``int``; the rest are
#: ``float``.
INT_FIELDS = ("index", "incoming_packets", "incoming_bytes",
              "dropped_packets", "bounds")
#: Fields :meth:`BinRecord.merge` takes from the worst partition, and
#: fields it averages; it adds up every other one.
_WORST_FIELDS = ("delay", "buffer_occupation", "error_ewma", "bounds")
_AVERAGED_FIELDS = ("rates", "decided_rates")


def _fold(name: str, values: list):
    """Partition values of field ``name`` folded by the field's rule."""
    if name in _WORST_FIELDS:
        return max(values)
    if name in _AVERAGED_FIELDS:
        return np.mean(values)
    return sum(values)


@dataclass
class BinRecord:
    """Everything recorded about one time bin of an execution: the
    outcome, and the rate decision beside it.

    The decision's columns are ``plan_cycles``, ``allowance``,
    ``error_ewma`` and ``shedding_overhead_ewma`` per bin (0.0 in a mode
    without a plan) and ``predicted_by_query``, ``decided_rates`` and
    ``bounds`` per query.  What follows from them is not stored: the
    corrected prediction is ``predicted_cycles * (1.0 + error_ewma)`` and
    the bin was overloaded when ``plan_cycles`` is below it.
    """

    index: int
    start_ts: float
    incoming_packets: int
    incoming_bytes: int
    dropped_packets: int
    unsampled_packets: float
    predicted_cycles: float
    #: What the prediction said the queries would cost at the rates decided
    #: (``sum(predicted_by_query[q] * decided_rates[q])`` in key order): the
    #: number ``query_cycles`` measures.
    expected_cycles: float
    query_cycles: float
    prediction_overhead: float
    shedding_overhead: float
    system_overhead: float
    available_cycles: float
    delay: float
    buffer_occupation: float
    #: The cycles Algorithm 1's line 7 made available to the queries:
    #: ``available_cycles`` less the system and prediction overhead, plus
    #: ``allowance`` less the delay the bin started with.
    plan_cycles: float = 0.0
    #: Section 4.1's buffer allowance, and the EWMAs of the prediction
    #: error (line 17) and of the shedding cycles (line 13), as the plan
    #: read them, before this bin updated them.
    allowance: float = 0.0
    error_ewma: float = 0.0
    shedding_overhead_ewma: float = 0.0
    #: The rate each query ran at (a custom query's: the fraction its own
    #: method reports; 0.0 under a penalty or in a lost bin).
    rates: Dict[str, float] = field(default_factory=dict)
    query_cycles_by_query: Dict[str, float] = field(default_factory=dict)
    #: Query cycles accounted per *declared* tenant (empty when the system
    #: runs without tenant groups).  Additive across partitions, like
    #: ``query_cycles_by_query``.
    tenant_cycles: Dict[str, float] = field(default_factory=dict)
    #: Each query's full-rate cycle prediction (0.0 outside predictive
    #: mode and in a lost bin).
    predicted_by_query: Dict[str, float] = field(default_factory=dict)
    #: The rate decided for each query: the allocation's, the reactive
    #: one, or 1.0 (0.0 in a lost bin).
    decided_rates: Dict[str, float] = field(default_factory=dict)
    #: What bound each decided rate, a :class:`Bound` code.
    bounds: Dict[str, int] = field(default_factory=dict)

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
        each query.  The decision columns fold the same ways:

        - ``plan_cycles``, ``allowance`` and ``shedding_overhead_ewma`` add
          up, as the budgets they are parts of do;
        - ``predicted_by_query`` adds up per query, as its cycles do;
        - ``error_ewma`` is the worst partition's, as ``delay`` is;
        - ``bounds`` is the worst partition's code per query (the most
          constrained, :class:`Bound` is ordered so);
        - ``decided_rates`` average per query, as ``rates`` do.

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
        merged = {"index": records[0].index, "start_ts": records[0].start_ts}
        for spec in dataclasses.fields(BinRecord)[2:]:
            name = spec.name
            kind = int if name in INT_FIELDS else float
            if name in MAP_FIELDS:
                grouped: Dict[str, list] = {}
                for record in records:
                    for key, value in getattr(record, name).items():
                        grouped.setdefault(key, []).append(value)
                merged[name] = {key: kind(_fold(name, values))
                                for key, values in grouped.items()}
            else:
                merged[name] = kind(_fold(name, [getattr(record, name)
                                                 for record in records]))
        return cls(**merged)


@dataclass
class BinContext:
    """Mutable state one time bin accumulates while flowing through stages."""

    index: int
    batch: Batch
    clock: "CycleClock"
    buffer: CaptureBuffer
    #: The grants the caller decided the bin with (``process_bin(...,
    #: grants)``); ``None`` when the stages decide it.
    given: Optional[Grants] = None
    #: Query runtimes active for this bin (arrival times already honoured).
    active: List = field(default_factory=list)
    #: Per-query filtered sub-batches, keyed by query name.
    filtered: Dict[str, Batch] = field(default_factory=dict)
    #: Pre-shedding feature vectors (predictive mode only).
    features_pre: Dict[str, FeatureVector] = field(default_factory=dict)
    #: Algorithm 1's plan for the bin (predictive mode only).
    plan: Optional[ShedPlan] = None
    #: The rate decision, one entry per query in ``active`` order: the
    #: full-rate predictions (zeros outside predictive mode), the decided
    #: rates, the grants execution runs the queries at (a custom query's
    #: enforcer-corrected fraction, 0.0 under a penalty) and the
    #: :class:`Bound` codes.  Set by :class:`RateDecisionStage`.
    predicted: Optional[np.ndarray] = None
    decided_rates: Optional[np.ndarray] = None
    grants: Optional[np.ndarray] = None
    bounds: Optional[np.ndarray] = None
    #: What execution measured: the rate each query ran at, its cycles,
    #: and the rows of its filtered batch a sampled query kept (held as an
    #: index, not as the batch, until accounting reads the sample).
    rates: Dict[str, float] = field(default_factory=dict)
    query_cycles_by_query: Dict[str, float] = field(default_factory=dict)
    kept: Dict[str, np.ndarray] = field(default_factory=dict)
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
    and the record copies the context's fields, the rate decision beside
    the outcome.  Both ways a bin ends —
    admitted (:class:`AccountingStage`) and dropped
    (:class:`RateDecisionStage`) — come through here.
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
    names = [runtime.query.name for runtime in ctx.active]
    plan = ctx.plan
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
        delay=delay, buffer_occupation=occupation,
        plan_cycles=0.0 if plan is None else plan.available_cycles,
        allowance=0.0 if plan is None else plan.allowance,
        error_ewma=0.0 if plan is None else plan.error_ewma,
        shedding_overhead_ewma=(0.0 if plan is None
                                else plan.shedding_overhead_ewma),
        rates=dict(ctx.rates), query_cycles_by_query=ctx.query_cycles_by_query,
        tenant_cycles=tenant_cycles,
        predicted_by_query=dict(zip(names, ctx.predicted.tolist())),
        decided_rates=dict(zip(names, ctx.decided_rates.tolist())),
        bounds=dict(zip(names, ctx.bounds.tolist())),
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


class RateDecisionStage:
    """Decide the bin: admission, the CoMo base cost, the filters, then
    every per-query rate decision — Algorithm 1's rate from the
    pre-shedding features and the prediction (Equation 4.1's in reactive
    mode, 1.0 without shedding), the grant of a query that sheds its own
    load (what the Chapter 6 enforcer allows it after the earlier bins,
    nothing under a penalty), and what bound each rate (:class:`Bound`).
    Grants the caller handed in are taken instead of a decision."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        if ctx.given == LOST or (
                ctx.given is None
                and ctx.buffer.status(ctx.clock.delay).dropping
                and len(ctx.batch) > 0):
            _lose(system, ctx)
            return
        ctx.system_overhead += float(
            system.config.system_overhead_fixed +
            SYSTEM_OVERHEAD_PER_PACKET * len(ctx.batch))
        for runtime in ctx.active:
            ctx.filtered[runtime.query.name] = system._filtered_batch(
                runtime.query.filter, ctx.batch)
        count = len(ctx.active)
        penalised = np.zeros(count, dtype=bool)
        ctx.predicted = np.zeros(count)
        slots = None
        if ctx.given is not None:
            ctx.grants = ctx.decided_rates = np.array(
                [ctx.given[runtime.query.name] for runtime in ctx.active],
                dtype=np.float64)
            ctx.bounds = _bounds(system, ctx, slots, penalised)
            return
        clock = ctx.clock
        decided = np.ones(count)
        if system.mode == "predictive":
            slots = _predict(system, ctx)
            table = system.demand_table
            tenants = None
            if system.tenant_registry.declared:
                tenants = TenantAssignment(system.tenant_registry,
                                           table.tenant_slot[slots])
            ctx.predicted = table.predicted[slots]
            ctx.plan = system.controller.plan_arrays(
                [runtime.query.name for runtime in ctx.active],
                ctx.predicted, table.min_rate[slots], clock.per_bin_budget,
                ctx.overhead, clock.delay, tenants=tenants,
                rank=table.name_rank[slots])
            if ctx.plan.allocation is not None:
                decided = ctx.plan.allocation.rate_array
        elif system.mode == "reactive" and system.last_accounted is not None:
            last = system.last_accounted
            decided[:] = reactive_rate(
                last.mean_rate, last.query_cycles,
                clock.per_bin_budget - ctx.system_overhead, clock.delay)
        ctx.decided_rates, ctx.grants = decided, decided.copy()
        for position, (runtime, prediction, rate) in enumerate(zip(
                ctx.active, ctx.predicted.tolist(), decided.tolist())):
            ctx.expected_cycles += prediction * rate
            if system._uses_custom(runtime):
                name = runtime.query.name
                penalised[position] = system.enforcer.is_disabled(name,
                                                                  ctx.index)
                ctx.grants[position] = (
                    0.0 if penalised[position]
                    else system.enforcer.allowed_fraction(name, rate))
        ctx.bounds = _bounds(system, ctx, slots, penalised)


def _lose(system: "MonitoringSystem", ctx: BinContext) -> None:
    """Uncontrolled loss: the batch never reaches the queries and the
    bin's cycles go into draining the backlog."""
    ctx.dropped_packets = len(ctx.batch)
    count = len(ctx.active)
    ctx.predicted = ctx.decided_rates = np.zeros(count)
    ctx.bounds = np.full(count, Bound.DROPPED, dtype=np.int64)
    ctx.rates = {runtime.query.name: 0.0 for runtime in ctx.active}
    close_bin(system, ctx)


def _predict(system: "MonitoringSystem", ctx: BinContext) -> np.ndarray:
    """Extract every query's pre-shedding features and predict its cycles
    into the system's :class:`~repro.core.fairness.QuerySlotTable`, which
    maintains the effective minimum rate across bins; returns the active
    queries' rows of it."""
    table = system.demand_table
    slots = np.empty(len(ctx.active), dtype=np.intp)
    for position, runtime in enumerate(ctx.active):
        name = runtime.query.name
        sub_batch = ctx.filtered[name]
        feats = runtime.extractor.extract(sub_batch, update_state=False)
        ctx.features_pre[name] = feats
        prediction = runtime.predictor.predict(feats)
        ctx.predicted_cycles += prediction
        ctx.prediction_overhead += float(
            runtime.extractor.extraction_cost(sub_batch) +
            runtime.predictor.overhead_cycles)
        table.predicted[runtime.slot] = prediction
        slots[position] = runtime.slot
    return slots


def _bounds(system: "MonitoringSystem", ctx: BinContext,
            slots: Optional[np.ndarray], penalised: np.ndarray) -> np.ndarray:
    """Each active query's :class:`Bound`; the rules are applied from the
    last to the first, so the first that matches is the one left."""
    decided = ctx.decided_rates
    bounds = np.full(len(decided), Bound.CAPACITY, dtype=np.int64)
    allocation = None if ctx.plan is None else ctx.plan.allocation
    if allocation is not None:
        table = system.demand_table
        if allocation.tenant_shares:
            registry = system.tenant_registry
            caps = registry.capacity_caps(ctx.plan.usable_cycles)
            capped = np.zeros(registry.size, dtype=bool)
            for tenant, share in allocation.tenant_shares.items():
                slot = registry.slot(tenant)
                capped[slot] = share >= caps[slot] * (1.0 - 1e-9)
            bounds[capped[table.tenant_slot[slots]]] = Bound.TENANT
        # eq_srates' tolerance for a rate at its minimum.
        bounds[np.abs(decided - table.min_rate[slots]) <= 1e-12] = \
            Bound.MIN_RATE
    bounds[decided == 1.0] = Bound.UNBOUND
    if allocation is not None:
        bounds[allocation.disabled_mask] = Bound.DISABLED
    bounds[penalised] = Bound.PENALISED
    return bounds


class ExecutionStage:
    """Run each query at the grant it was handed — behind packet/flow
    sampling, or through its custom shedding method — and measure it."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        for runtime, grant in zip(ctx.active, ctx.grants.tolist()):
            query = runtime.query
            name = query.name
            sub_batch = ctx.filtered[name]
            applied = grant
            if system._uses_custom(runtime):
                if grant > 0.0:
                    applied = float(query.shed_load(sub_batch, grant))
            elif grant > 0.0:
                processed = sub_batch
                if grant < 1.0:
                    processed = runtime.sampler.sample(sub_batch, grant)
                    ctx.shedding_overhead += runtime.sampler.cost(sub_batch)
                    # A sampler hands an empty batch back as it is.  The
                    # rows are held in the narrowest type that counts them.
                    if processed is not sub_batch:
                        ctx.kept[name] = processed._parent_index.astype(
                            np.min_scalar_type(len(sub_batch)))
                query.update(processed, max(grant, 1e-12))
            cycles = query.consume_cycles()
            ctx.rates[name] = applied
            ctx.unsampled_packets += (1.0 - applied) * len(sub_batch)
            ctx.query_cycles_by_query[name] = cycles
            ctx.query_cycles += float(cycles)


class AccountingStage:
    """Learn from the bin — each predictor's history, the enforcer's
    verdicts, the controller's EWMAs — and close it with
    :func:`close_bin`.  A bin handed its grants learns nothing."""

    def run(self, system: "MonitoringSystem", ctx: BinContext) -> None:
        # ``unsampled_packets`` is reported per packet of the input stream
        # (averaged over the queries), not summed across queries.
        if ctx.active:
            ctx.unsampled_packets /= len(ctx.active)
        if ctx.given is None and system.mode == "predictive":
            for runtime, prediction, grant in zip(
                    ctx.active, ctx.predicted.tolist(), ctx.grants.tolist()):
                if grant <= 0.0:  # the query saw no packets
                    continue
                if system._uses_custom(runtime):
                    _learn_custom(system, ctx, runtime, prediction, grant)
                else:
                    _learn_sampled(ctx, runtime, grant)
        if ctx.plan is not None:
            system.controller.record_shedding_overhead(ctx.shedding_overhead)
            system.controller.record_prediction_error(ctx.expected_cycles,
                                                      ctx.query_cycles)
        system.last_accounted = close_bin(system, ctx)


def _learn_sampled(ctx: BinContext, runtime, grant: float) -> None:
    """Train a sampled query's predictor on what it saw: the pre-shedding
    features of a whole batch, or those of its sample, whose extraction is
    a shedding cost."""
    name = runtime.query.name
    sub_batch = ctx.filtered[name]
    if grant >= 1.0:
        features = ctx.features_pre[name]
        runtime.extractor.commit(sub_batch)
    else:
        kept = ctx.kept.get(name)
        processed = sub_batch if kept is None else sub_batch.select(kept)
        features = runtime.extractor.extract(processed, update_state=True)
        ctx.shedding_overhead += runtime.extractor.extraction_cost(processed)
    runtime.predictor.observe(features.values,
                              ctx.query_cycles_by_query[name])


def _learn_custom(system: "MonitoringSystem", ctx: BinContext, runtime,
                  prediction: float, grant: float) -> None:
    """Judge a query that shed its own load against its grant, then train
    its predictor in full-batch terms."""
    name = runtime.query.name
    cycles = ctx.query_cycles_by_query[name]
    # The query was granted ``prediction * grant`` cycles; consuming
    # noticeably more than that is a violation the enforcer acts upon.
    # Before the predictor has a fitted model there is no grant in cycles
    # to hold the query to, and granted its whole batch a query cannot
    # exceed it: those bins only move the correction factor.
    if prediction > 0.0:
        system.enforcer.record(
            name, expected_cycles=prediction * grant, actual_cycles=cycles,
            bin_index=ctx.index,
            judged=runtime.predictor.fitted and grant < 1.0)
    # Disabled by this bin: its history holds what it reported, which its
    # cycles broke, and it starts its penalty with an empty one.
    if system.enforcer.is_disabled(name, ctx.index + 1):
        runtime.predictor.reset()
    else:
        # Scale the measured cycles back up by the fraction the query
        # reports.
        runtime.predictor.observe(ctx.features_pre[name].values,
                                  cycles / max(ctx.rates[name], 0.05))
    runtime.extractor.commit(ctx.filtered[name])


#: The one stage order of every bin, decided or handed its grants.  Stages
#: are stateless, so the singletons can be shared by every system in the
#: process.
DEFAULT_STAGES = (
    IntervalFlushStage(),
    RateDecisionStage(),
    ExecutionStage(),
    AccountingStage(),
)


def process_bin(system: "MonitoringSystem", index: int, batch: Batch,
                clock: "CycleClock", buffer: CaptureBuffer,
                grants: Optional[Grants] = None) -> BinRecord:
    """Run ``batch`` through :data:`DEFAULT_STAGES`, deciding it or, when
    the caller hands in its ``grants``, running it at them; returns the
    bin's record."""
    ctx = BinContext(index=index, batch=batch, clock=clock, buffer=buffer,
                     given=grants)
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
    "BinContext",
    "BinRecord",
    "Bound",
    "DEFAULT_STAGES",
    "ExecutionStage",
    "Grants",
    "IntervalFlushStage",
    "LOST",
    "RateDecisionStage",
    "SYSTEM_OVERHEAD_PER_PACKET",
    "close_bin",
    "process_bin",
]
