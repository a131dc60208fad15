"""Shared experiment machinery.

Most evaluation figures need one of three building blocks:

* :func:`collect_observations` — run a query over a trace *without* any
  system around it and record, for every batch, the extracted features and
  the cycles the query consumed.  Predictor studies (Chapter 3) then replay
  these observations against any predictor configuration cheaply.
* :func:`calibrate_capacity` — determine the cycle capacity that would let a
  query set run without shedding, so experiments can dial in an exact
  overload factor ``K`` (the paper sets the capacity experimentally the same
  way, Section 5.5.3).
* :func:`run_system` / :func:`accuracy_by_query` — full system executions and
  the per-query accuracy of an execution against a reference execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cycles import CycleBudget
from ..core.features import FeatureExtractor, FeatureVector
from ..core.prediction import CyclePredictor, PredictionErrorTracker
from ..core.sampling import FlowSampler, PacketSampler
from ..monitor import metrics
from ..monitor.config import SystemConfig
from ..monitor.packet import PacketTrace, as_trace
from ..monitor.query import SAMPLING_FLOW, Query
from ..monitor.sharding import build_system
from ..monitor.system import ExecutionResult, MonitoringSystem
from ..queries import QuerySpec, make_query

#: Default time bin (100 ms, as in the paper).
TIME_BIN = 0.1

#: Feature-extraction settings used by the experiment harness.  The paper
#: counts distinct items with multi-resolution bitmaps because a software
#: monitor cannot afford exact counting at 10 Gb/s; in this reproduction the
#: traces are small enough that exact counting is both faster and noise-free,
#: so the harness uses it by default.  The bitmap backend remains the library
#: default and is exercised by the unit and property tests.
FEATURE_CONFIG = {"feature_method": "exact"}


def system_config(**overrides) -> SystemConfig:
    """The harness's default :class:`SystemConfig`, with overrides applied.

    Starts from :data:`FEATURE_CONFIG` (exact feature counting) and the
    library defaults for everything else; any field of ``SystemConfig`` can
    be overridden — overrides always win over the harness defaults.  This is
    the canonical way for experiments to build the config they hand to
    :func:`run_system` / :meth:`SystemConfig.build`.
    """
    return SystemConfig(**{**FEATURE_CONFIG, **overrides})


def _resolve_config(config: Optional[SystemConfig],
                    mode: Optional[str] = None,
                    strategy=None,
                    predictor: Optional[str] = None) -> SystemConfig:
    """``config`` (default: :func:`system_config`) with the explicitly
    named ``mode``/``strategy``/``predictor`` arguments applied on top."""
    if config is None:
        config = system_config()
    overrides = {key: value for key, value in
                 (("mode", mode), ("strategy", strategy),
                  ("predictor", predictor)) if value is not None}
    return config.replace(**overrides) if overrides else config


# ----------------------------------------------------------------------
# Observation collection (prediction studies)
# ----------------------------------------------------------------------
@dataclass
class QueryObservations:
    """Per-batch features and measured cycles for one query on one trace."""

    query_name: str
    features: List[FeatureVector] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cycles)

    def cycles_array(self) -> np.ndarray:
        return np.array(self.cycles, dtype=np.float64)


def collect_observations(query: Query, trace: PacketTrace,
                         time_bin: float = TIME_BIN,
                         feature_method: str = None,
                         ) -> QueryObservations:
    """Run ``query`` over ``trace`` and record (features, cycles) per batch.

    Measurement intervals are flushed exactly as the full system would flush
    them, so queries whose cost depends on per-interval state (e.g. the flow
    table of the flows query) exhibit the same cost structure here as online.
    """
    query.reset()
    extractor = FeatureExtractor(
        measurement_interval=query.measurement_interval,
        method=feature_method if feature_method is not None
        else FEATURE_CONFIG["feature_method"],
    )
    observations = QueryObservations(query.name)
    interval_start = None
    for batch in trace.batches(time_bin):
        if interval_start is None:
            interval_start = batch.start_ts
        while batch.start_ts >= interval_start + query.measurement_interval - 1e-9:
            query.interval_result()
            query.consume_cycles()
            interval_start += query.measurement_interval
        filtered = query.filter.apply(batch)
        features = extractor.extract(filtered, update_state=True)
        query.update(filtered, 1.0)
        cycles = query.consume_cycles()
        observations.features.append(features)
        observations.cycles.append(cycles)
    return observations


def evaluate_predictor(predictor: CyclePredictor,
                       observations: QueryObservations,
                       warmup: int = 2) -> PredictionErrorTracker:
    """Replay observations through a predictor and track the relative error.

    The first ``warmup`` batches only feed the history (no error recorded),
    mirroring how the online system needs a couple of observations before the
    regression can be fitted.
    """
    predictor.reset()
    tracker = PredictionErrorTracker()
    for index, (features, cycles) in enumerate(
            zip(observations.features, observations.cycles)):
        if index >= warmup:
            predicted = predictor.predict(features)
            tracker.record(predicted, cycles)
        predictor.observe(features, cycles)
    return tracker


# ----------------------------------------------------------------------
# Capacity calibration and full-system runs
# ----------------------------------------------------------------------
def reference_system(queries: Iterable[Query], budget: Optional[CycleBudget] = None,
                     config: Optional[SystemConfig] = None
                     ) -> MonitoringSystem:
    """A system configured for a reference (ground truth) execution."""
    config = _resolve_config(config, mode="reference")
    if budget is not None:
        config = config.replace(cycles_per_second=budget.cycles_per_second)
    return config.build(queries)


def calibrate_capacity(query_names: Sequence[str], trace: PacketTrace,
                       time_bin: float = TIME_BIN,
                       quantile: float = 0.95,
                       query_kwargs: Optional[Dict[str, dict]] = None,
                       ) -> Tuple[float, ExecutionResult]:
    """Return ``(cycles_per_second, reference_result)`` for a query set.

    The capacity is the per-bin cycle usage of an unshedded execution at the
    given quantile, converted to cycles per second.  Running an evaluated
    system at ``capacity * (1 - K)`` then produces an overload factor of
    roughly ``K`` (Section 5.4: ``K = 0`` no overload, ``K = 1`` no capacity).
    """
    queries = build_queries(query_names, query_kwargs)
    system = reference_system(queries)
    reference = system.run(as_trace(trace), time_bin=time_bin)
    per_bin = reference.cycles_per_bin()
    if len(per_bin) == 0:
        raise ValueError("trace produced no batches")
    capacity_per_bin = float(np.quantile(per_bin, quantile))
    return capacity_per_bin / time_bin, reference


def build_queries(query_names: Sequence,
                  query_kwargs: Optional[Dict[str, dict]] = None) -> List[Query]:
    """Build query instances from specs.

    Each spec is anything :meth:`repro.queries.QuerySpec.parse` accepts — a
    registry name (``"counter"``), a ``(registry_name, kwargs)`` pair, a
    spec dict or a :class:`~repro.queries.QuerySpec` — so several instances
    of one query class can run under distinct names and carry declarative
    filters.  The legacy ``query_kwargs`` mapping merges extra constructor
    arguments into name-only specs.
    """
    query_kwargs = query_kwargs or {}
    queries: List[Query] = []
    for spec in query_names:
        if isinstance(spec, str) and spec in query_kwargs:
            queries.append(make_query(spec, **query_kwargs.get(spec, {})))
        else:
            queries.append(QuerySpec.parse(spec).build())
    return queries


def run_system(query_names: Optional[Sequence] = None,
               trace: PacketTrace = None,
               cycles_per_second: float = None,
               mode: Optional[str] = None, strategy=None,
               predictor: Optional[str] = None, time_bin: float = TIME_BIN,
               query_kwargs: Optional[Dict[str, dict]] = None,
               config: Optional[SystemConfig] = None,
               num_shards: Optional[int] = None,
               n_workers: int = 1, respect_cores: bool = True,
               backend: str = "auto") -> ExecutionResult:
    """Run a freshly-built system over a trace with an explicit capacity.

    ``query_names`` is any query-mix description ``repro.queries`` can
    parse — registry names, ``(name, kwargs)`` pairs, spec dicts or
    :class:`~repro.queries.QuerySpec` objects; pass ``None`` to run the
    declarative ``queries`` field of the config instead.

    ``trace`` may be an in-memory :class:`PacketTrace`, a
    :class:`~repro.monitor.packet.StreamingTrace`, or a trace store
    (:class:`repro.traffic.trace_io.TraceStore`); stores replay
    out-of-core, so traces far larger than RAM run with bounded memory.

    The system is described by ``config`` (a :class:`repro.SystemConfig`;
    defaults to :func:`system_config`, i.e. a predictive system with the
    harness's exact feature counting).  ``mode``/``strategy``/``predictor``
    remain as named conveniences and override the config; every other
    system knob goes in the config.

    With ``num_shards > 1`` (named argument or config field) the execution
    runs on a :class:`~repro.monitor.sharding.ShardedSystem`: the stream is
    flow-hash partitioned across that many shard pipelines (each owning a
    fixed ``1/num_shards`` of the capacity) and the returned result is the
    merged, stream-global one.  ``n_workers > 1`` asks for process-parallel
    shard execution on ``backend`` (``"auto"`` resolves to the persistent
    shard-worker pool when the host can honour the request); the default
    ``n_workers=1`` keeps the shards serial in-process.  Results are
    bit-identical either way.
    """
    if trace is None or cycles_per_second is None:
        # Only query_names is genuinely optional (it may come from the
        # config); these two merely default to None so query_names could.
        raise ValueError("run_system requires a trace and an explicit "
                         "cycles_per_second capacity")
    config = _resolve_config(config, mode=mode, strategy=strategy,
                             predictor=predictor)
    if num_shards is not None:
        config = config.replace(num_shards=int(num_shards))
    config = config.replace(cycles_per_second=float(cycles_per_second))
    if query_names is None:
        if config.queries is None:
            raise ValueError("run_system needs query_names or a config with "
                             "a declarative 'queries' field")
        query_names = config.queries
    system = build_system(
        config, lambda: build_queries(query_names, query_kwargs),
        n_workers=int(n_workers), respect_cores=bool(respect_cores),
        backend=backend)
    return system.run(as_trace(trace), time_bin=time_bin)


def ingest_trace(session, trace_or_store, close: bool = True):
    """Drive an open session with every bin of a trace or trace store.

    The out-of-core execution driver: ``session`` is any open streaming
    session (:class:`~repro.monitor.session.MonitoringSession` or
    :class:`~repro.monitor.sharding.ShardedSession`) and
    ``trace_or_store`` anything :func:`repro.monitor.packet.as_trace`
    accepts.  A v2 trace store streams through the full predict/shed
    pipeline bin by bin, so peak memory does not grow with the trace.
    Returns the final :class:`~repro.monitor.system.ExecutionResult`; pass
    ``close=False`` to keep the session open (live reconfiguration, more
    traffic) and get the session back instead.
    """
    session.ingest_trace(trace_or_store)
    return session.close() if close else session


def run_with_overload(query_names: Sequence[str], trace: PacketTrace,
                      overload: float, mode: Optional[str] = None,
                      strategy=None, predictor: Optional[str] = None,
                      reference: Optional[ExecutionResult] = None,
                      base_capacity: Optional[float] = None,
                      time_bin: float = TIME_BIN,
                      config: Optional[SystemConfig] = None
                      ) -> Tuple[ExecutionResult, ExecutionResult]:
    """Run a system at overload factor ``K`` and return (result, reference).

    ``overload`` follows the paper's convention: the capacity handed to the
    evaluated system is ``(1 - K)`` times the capacity needed to run the
    query set without shedding.
    """
    if not 0.0 <= overload < 1.0:
        raise ValueError("overload K must be in [0, 1)")
    config = _resolve_config(config, mode=mode, strategy=strategy,
                             predictor=predictor)
    if reference is None or base_capacity is None:
        base_capacity, reference = calibrate_capacity(query_names, trace,
                                                      time_bin=time_bin)
    capacity = base_capacity * (1.0 - overload)
    result = run_system(query_names, trace, capacity, time_bin=time_bin,
                        config=config)
    return result, reference


# ----------------------------------------------------------------------
# Accuracy evaluation
# ----------------------------------------------------------------------
def _metric_name(query_name: str, kinds: Optional[Mapping[str, str]]) -> str:
    """The name the accuracy metric of ``query_name`` is looked up under.

    ``kinds`` maps instance names to registry kinds
    (:meth:`SystemConfig.query_kinds`); a name it does not list is looked
    up as it is, which covers ``<kind>`` and ``<kind>-N`` instances.
    """
    return (kinds or {}).get(query_name, query_name)


def accuracy_by_query(result: ExecutionResult, reference: ExecutionResult,
                      kinds: Optional[Mapping[str, str]] = None
                      ) -> Dict[str, float]:
    """Mean accuracy (1 - error) of every query in ``result``."""
    return {name: metrics.accuracy_from_error(error) for name, error
            in error_by_query(result, reference, kinds).items()}


def error_by_query(result: ExecutionResult, reference: ExecutionResult,
                   kinds: Optional[Mapping[str, str]] = None
                   ) -> Dict[str, float]:
    """Mean error of every query in ``result`` versus the reference."""
    errors = {}
    for name, log in result.query_logs.items():
        if name not in reference.query_logs:
            continue
        errors[name] = metrics.mean_error(_metric_name(name, kinds), log,
                                          reference.query_logs[name])
    return errors


def accuracy_series(result: ExecutionResult, reference: ExecutionResult,
                    query_name: str,
                    kinds: Optional[Mapping[str, str]] = None) -> np.ndarray:
    """Per-interval accuracy series of one query."""
    errors = metrics.compare_logs(_metric_name(query_name, kinds),
                                  result.query_logs[query_name],
                                  reference.query_logs[query_name])
    return np.maximum(0.0, 1.0 - errors)


def accuracy_vs_sampling_rate(query_name: str, trace: PacketTrace,
                              rates: Sequence[float],
                              sampling: str = "auto",
                              time_bin: float = TIME_BIN,
                              seed: int = 0) -> Dict[float, float]:
    """Mean accuracy of a query when a fixed sampling rate is applied.

    This reproduces the per-query sweeps used to pick the minimum sampling
    rates of Table 5.2 and the accuracy-versus-rate curves of Figure 6.4.
    ``sampling`` is ``"packet"``, ``"flow"`` or ``"auto"`` (the query's own
    preference).
    """
    reference_query = make_query(query_name)
    reference_log = _standalone_log(reference_query, trace, 1.0, None, time_bin)
    accuracies: Dict[float, float] = {}
    for rate in rates:
        query = make_query(query_name)
        method = query.sampling_method if sampling == "auto" else sampling
        if method == SAMPLING_FLOW:
            sampler = FlowSampler(rng=np.random.default_rng(seed),
                                  measurement_interval=query.measurement_interval)
        else:
            sampler = PacketSampler(rng=np.random.default_rng(seed))
        log = _standalone_log(query, trace, rate, sampler, time_bin)
        error = metrics.mean_error(query_name, log, reference_log)
        accuracies[float(rate)] = metrics.accuracy_from_error(error)
    return accuracies


def _standalone_log(query: Query, trace: PacketTrace, rate: float, sampler,
                    time_bin: float):
    """Run one query standalone at a fixed sampling rate and log its results."""
    from ..monitor.query import QueryResultLog

    query.reset()
    log = QueryResultLog(query.name)
    interval_start = None
    for batch in trace.batches(time_bin):
        if interval_start is None:
            interval_start = batch.start_ts
        while batch.start_ts >= interval_start + query.measurement_interval - 1e-9:
            log.append(interval_start, query.interval_result())
            query.consume_cycles()
            interval_start += query.measurement_interval
        filtered = query.filter.apply(batch)
        processed = filtered if (sampler is None or rate >= 1.0) else \
            sampler.sample(filtered, rate)
        query.update(processed, max(rate, 1e-12))
        query.consume_cycles()
    if interval_start is not None:
        log.append(interval_start, query.interval_result())
    return log


def summarize_costs(reference: ExecutionResult, duration: float
                    ) -> Dict[str, float]:
    """Average cycles per second consumed by each query (Figure 2.2)."""
    totals: Dict[str, float] = {}
    for record in reference.bins:
        for name, cycles in record.query_cycles_by_query.items():
            totals[name] = totals.get(name, 0.0) + cycles
    if duration <= 0:
        return totals
    return {name: total / duration for name, total in totals.items()}
