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
* :func:`accuracy_by_query` — the per-query accuracy of an execution
  against a reference execution.

A full system execution is a config and one call: ::

    config = runner.system_config(queries=specs, mode="predictive",
                                  cycles_per_second=capacity * (1 - K))
    result = config.build().run(trace)

or ``build_system(config, n_workers=...).run(trace)`` when the config may
be sharded (``num_shards > 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.features import FeatureExtractor, FeatureVector
from ..core.hashing import stream_key
from ..core.prediction import CyclePredictor, PredictionErrorTracker
from ..core.sampling import FlowSampler, PacketSampler
from ..monitor import metrics
from ..monitor.config import SystemConfig
from ..monitor.packet import Batch, PacketTrace
from ..monitor.query import (SAMPLING_FLOW, Query, QueryResultLog,
                             closed_intervals)
from ..monitor.system import ExecutionResult
from ..queries import make_query

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
    the canonical way for experiments to describe a run:
    ``system_config(...).build().run(trace)``.
    """
    return SystemConfig(**{**FEATURE_CONFIG, **overrides})


# ----------------------------------------------------------------------
# Observation collection (prediction studies)
# ----------------------------------------------------------------------
@dataclass
class QueryObservations:
    """Per-batch features and measured cycles for one query on one trace."""

    query_name: str
    features: List[FeatureVector] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)

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
    extractor = FeatureExtractor(
        feature_method or FEATURE_CONFIG["feature_method"])
    observations = QueryObservations(query.name)
    for filtered in _query_bins(query, trace, time_bin,
                                on_interval=extractor.reset):
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
def calibrate_capacity(query_names: Sequence, trace: PacketTrace,
                       time_bin: float = TIME_BIN,
                       quantile: float = 0.95,
                       ) -> Tuple[float, ExecutionResult]:
    """Return ``(cycles_per_second, reference_result)`` for a query set.

    ``query_names`` is any query mix the ``queries`` field of a
    :class:`SystemConfig` accepts (registry names, ``(kind, kwargs)``
    pairs, spec dicts or :class:`~repro.queries.QuerySpec` objects).  The
    capacity is the per-bin cycle usage of an unshedded execution at the
    given quantile, converted to cycles per second.  Running an evaluated
    system at ``capacity * (1 - K)`` then produces an overload factor of
    roughly ``K`` (Section 5.4: ``K = 0`` no overload, ``K = 1`` no capacity).
    """
    reference = system_config(queries=query_names, mode="reference").build(
    ).run(trace, time_bin=time_bin)
    per_bin = reference.cycles_per_bin()
    if len(per_bin) == 0:
        raise ValueError("trace produced no batches")
    capacity_per_bin = float(np.quantile(per_bin, quantile))
    return capacity_per_bin / time_bin, reference


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
        key = stream_key(seed, query.name)
        sampler = FlowSampler(key) if method == SAMPLING_FLOW \
            else PacketSampler(key)
        log = _standalone_log(query, trace, rate, sampler, time_bin)
        error = metrics.mean_error(query_name, log, reference_log)
        accuracies[float(rate)] = metrics.accuracy_from_error(error)
    return accuracies


def _standalone_log(query: Query, trace: PacketTrace, rate: float, sampler,
                    time_bin: float) -> QueryResultLog:
    """Run one query standalone at a fixed sampling rate and log its results."""
    log = QueryResultLog(query.name)
    renew = sampler.renew_hash if isinstance(sampler, FlowSampler) else None
    for filtered in _query_bins(query, trace, time_bin, log, renew):
        processed = filtered if (sampler is None or rate >= 1.0) else \
            sampler.sample(filtered, rate)
        query.update(processed, max(rate, 1e-12))
        query.consume_cycles()
    return log


def _query_bins(query: Query, trace: PacketTrace, time_bin: float,
                log: Optional[QueryResultLog] = None,
                on_interval: Optional[Callable[[], None]] = None
                ) -> Iterator[Batch]:
    """``query``'s filtered batches of ``trace``, with no system around it.

    ``query`` is reset first, and its measurement intervals are flushed
    between the batches as a system flushes them (``closed_intervals``),
    calling ``on_interval`` once where one or more close.  A flush's
    cycles are discarded and its result goes to ``log``, when one is
    given; the last interval is then flushed into ``log`` after the last
    batch.
    """
    query.reset()
    interval_start = None
    for batch in trace.batches(time_bin):
        closed, interval_start = closed_intervals(
            interval_start, query.measurement_interval, batch.start_ts)
        for start in closed:
            result = query.interval_result()
            if log is not None:
                log.append(start, result)
            query.consume_cycles()
        if closed and on_interval is not None:
            on_interval()
        yield query.filter.apply(batch)
    if log is not None and interval_start is not None:
        log.append(interval_start, query.interval_result())


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
