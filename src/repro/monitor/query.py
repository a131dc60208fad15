"""Plug-in query API.

A *query* (the paper also calls it a monitoring application or plug-in
module) is a black box from the point of view of the load shedding scheme:
the system hands it batches of packets and observes only the cycles it
consumed.  The interface below mirrors the CoMo callbacks of Table 2.1 in a
pythonic form:

``update(batch, sampling_rate)``
    Process the packets of one batch, maintaining arbitrary internal state.
``interval_partial()`` / ``finalize(partial)``
    The flush, in two steps.  At each measurement-interval boundary
    ``interval_partial()`` hands over the interval's *mergeable* state and
    resets it; ``finalize(partial)`` turns such a state into the reported
    result (a dict of named values).  A session only takes the first step:
    the partial leaves with the bin, and whoever accumulates the results
    (:class:`~repro.monitor.system.ExecutionResult`) finalises it — as it
    is for a whole monitor, folded with the other shards' by
    ``merge_partials`` for a node.  ``interval_result()`` is the two in a
    row, for standalone use.
``shed_load(batch, target_fraction)``
    Optional custom load shedding hook (Chapter 6): the query itself reduces
    its work to roughly ``target_fraction`` of the full-batch cost and
    returns the sampling-equivalent fraction it actually applied.

Cost accounting: queries *charge* the basic operations they really perform to
a :class:`~repro.core.cycles.CycleMeter`; the system reads the accumulated
total after each batch.  The predictor never sees the individual charges.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cycles import CycleMeter, OperationCosts
from ..core.hashing import stream_key
from .filters import Filter, all_packets
from .packet import Batch


def merge_additive(values: Sequence, context: str = "result") -> object:
    """Fold per-shard values of one result key by addition.

    Numbers sum; dicts of numbers merge key-wise (the union of keys, each
    summed).  Anything else — rankings, verdict lists, nested structures —
    has no universal merge and must be declared in the owning query's
    :attr:`Query.RESULT_MERGE` spec (or handled by a
    :meth:`Query.derive_merged` hook).
    """
    first = values[0]
    if isinstance(first, dict):
        merged: Dict = {}
        for value in values:
            for key, item in value.items():
                if not isinstance(item, numbers.Number):
                    raise TypeError(
                        f"cannot merge {context}[{key!r}] values of type "
                        f"{type(item).__name__}; declare a RESULT_MERGE "
                        "rule for this key")
                merged[key] = merged.get(key, 0) + item
        return merged
    if isinstance(first, numbers.Number):
        return sum(values)
    raise TypeError(
        f"cannot merge {context} values of type {type(first).__name__}; "
        "declare a RESULT_MERGE rule for this key")


def merge_union(sort_key: Optional[Callable] = None,
                coerce: Optional[Callable] = None) -> Callable:
    """Rule factory: sorted union of per-shard item collections.

    ``coerce`` normalises items before deduplication (e.g. ``tuple`` for
    cluster coordinates that deserialise as lists); ``sort_key`` orders the
    merged list (natural order by default).
    """
    def rule(values: Sequence, context: str = "result") -> list:
        union = set()
        for collection in values:
            union.update(coerce(item) if coerce is not None else item
                         for item in collection)
        return sorted(union, key=sort_key)
    return rule


#: Named merge rules usable in :attr:`Query.RESULT_MERGE`.  ``"sum"`` is
#: also the fallback for keys with no declared rule.  The special rule
#: ``"derived"`` marks keys the per-key fold skips entirely — the query's
#: :meth:`Query.derive_merged` hook recomputes them from the merged values.
MERGE_RULES: Dict[str, Callable] = {
    "sum": merge_additive,
    "union": merge_union(),
}

#: Sampling methods a query can request from the system load shedders.
SAMPLING_PACKET = "packet"
SAMPLING_FLOW = "flow"
SAMPLING_CUSTOM = "custom"


def closed_intervals(interval_start: Optional[float], interval: float,
                     bin_start: float) -> Tuple[List[float], float]:
    """The one interval clock: the starts of the intervals a bin starting
    at ``bin_start`` closes, oldest first, and the start of the one it is in.

    ``[s, s + interval)`` closes before the first bin that starts at or
    after its end (to within 1e-9 s) and the next starts at ``s +
    interval``; with none open (``None``) the bin opens the first.
    """
    if not interval > 0:  # it would never end
        raise ValueError(
            f"measurement_interval must be positive, got {interval!r}")
    if interval_start is None:
        return [], bin_start
    closed = []
    while bin_start >= interval_start + interval - 1e-9:
        closed.append(interval_start)
        interval_start += interval
    return closed, interval_start


class Query(ABC):
    """Base class for plug-in monitoring queries.

    Subclasses set the class attributes below and implement
    :meth:`update` and :meth:`interval_partial` — plus
    :meth:`merge_partials` and :meth:`finalize` when the reported result is
    not itself mergeable (a truncated ranking, a thresholded report, a
    maximum, a distinct count).

    Attributes
    ----------
    name:
        Unique query name (used in reports and accuracy tables).
    sampling_method:
        ``"packet"``, ``"flow"`` or ``"custom"`` — which shedding mechanism
        the query selects at configuration time.
    minimum_sampling_rate:
        The ``m_q`` constraint of Chapter 5: the lowest sampling rate under
        which the user still considers the results useful.
    measurement_interval:
        Seconds between result flushes (:func:`closed_intervals`).
    needs_payload:
        Whether the query requires packet payloads to operate.
    """

    name: str = "query"
    sampling_method: str = SAMPLING_PACKET
    minimum_sampling_rate: float = 0.0
    measurement_interval: float = 1.0
    needs_payload: bool = False

    #: Declarative merge spec for *finished results*: result key -> merge
    #: rule.  A rule is a name from :data:`MERGE_RULES` or a callable
    #: ``(values, context) -> merged``; keys with no entry fold additively
    #: (numbers sum, dicts of numbers merge key-wise).  Queries whose merged
    #: result has *derived* keys (a ranking recomputed from merged volumes,
    #: say) override :meth:`derive_merged` on top.  This is the rule the
    #: fleet federates independent monitors' reports by, and the default
    #: :meth:`merge_partials` of the kinds whose result is its own mergeable
    #: state.
    RESULT_MERGE: Dict[str, object] = {}

    def __init__(
        self,
        packet_filter: Optional[Filter] = None,
        costs: Optional[OperationCosts] = None,
        name: Optional[str] = None,
    ) -> None:
        self.filter = packet_filter if packet_filter is not None else all_packets()
        self.meter = CycleMeter(costs=costs)
        if name is not None:
            self.name = name

    # ------------------------------------------------------------------
    # Callbacks implemented by concrete queries
    # ------------------------------------------------------------------
    @abstractmethod
    def update(self, batch: Batch, sampling_rate: float) -> None:
        """Process one (possibly sampled) batch.

        ``sampling_rate`` is the probability with which each packet (or flow)
        of the original filtered batch was retained; queries use it to
        estimate their unsampled output (typically by scaling counters by
        ``1 / sampling_rate``).
        """

    @abstractmethod
    def interval_partial(self):
        """Hand over the interval's mergeable state and reset it.

        The returned *partial* is whatever :meth:`merge_partials` folds and
        :meth:`finalize` reports from; the query keeps no reference to it.
        All flush costs are charged here, by the instance that flushes.
        The default pair of classmethods below suits a query whose result
        dict *is* its mergeable state (counters, per-flow tables): the
        partial is then the result itself.
        """

    @classmethod
    def merge_partials(cls, partials: Sequence):
        """Fold the partials of flow-disjoint sub-streams into one partial.

        Associative and permutation-invariant (floating-point sums to
        rounding), and it leaves its inputs untouched; for instances that
        shed nothing, finalising the merged partial gives exactly what one
        instance over the whole stream reports.  Default: the
        :attr:`RESULT_MERGE` fold, for partials that are results.
        """
        return cls.merge_interval_results(partials)

    @classmethod
    def finalize(cls, partial) -> Dict[str, float]:
        """The reported result of one (merged or single) partial."""
        return partial

    def interval_result(self) -> Dict[str, float]:
        """Return results for the current measurement interval and reset it."""
        return self.finalize(self.interval_partial())

    def reset(self) -> None:
        """Reset all query state (start of a fresh execution)."""
        self.meter.reset()

    def reseed(self, key: int) -> None:
        """Key every draw the query makes by ``key``: the system that runs
        it passes ``stream_key(config.seed, name)``."""
        self.meter.reseed(stream_key(key, "meter"))

    # ------------------------------------------------------------------
    # Federation of finished results (the fleet tier)
    # ------------------------------------------------------------------
    @classmethod
    def merge_interval_results(cls, results: Sequence[Dict]) -> Dict:
        """Fold finished :meth:`interval_result` dicts into one global one.

        When independent monitors each report on a partition of a stream
        (the nodes of :mod:`repro.fleet`), this classmethod defines how
        their per-interval results federate into one answer.  Each result
        key folds by the rule declared for it in
        :attr:`RESULT_MERGE` (additive by default — exact for per-flow
        state, since flows never span shards, and for plain counters), and
        :meth:`derive_merged` then recomputes any keys that are functions
        of the merged values rather than folds of the per-shard ones.

        The fold runs over the *union* of the per-shard keys: a key absent
        from some shards (a query result that grew a field mid-stream, a
        shard that saw no matching traffic) merges over the shards that do
        report it instead of being dropped or raising ``KeyError``.
        """
        results = list(results)
        if not results:
            return {}
        if len(results) == 1:
            return dict(results[0])
        keys: list = []
        for result in results:
            for key in result:
                if key not in keys:
                    keys.append(key)
        merged: Dict = {}
        for key in keys:
            rule = cls.RESULT_MERGE.get(key, "sum")
            if rule == "derived":
                continue  # recomputed from merged values in derive_merged
            if isinstance(rule, str):
                rule = MERGE_RULES[rule]
            merged[key] = rule([r[key] for r in results if key in r],
                               context=key)
        return cls.derive_merged(merged, results)

    @classmethod
    def derive_merged(cls, merged: Dict, results: Sequence[Dict]) -> Dict:
        """Hook: recompute result keys derived from the merged values.

        Called by :meth:`merge_interval_results` after the per-key fold,
        with the folded dict and the original per-shard results.  The
        default returns ``merged`` unchanged; queries like ``top-k``
        (ranking recomputed from summed volumes) override it.
        """
        return merged

    # ------------------------------------------------------------------
    # Custom load shedding hook (Chapter 6)
    # ------------------------------------------------------------------
    def shed_load(self, batch: Batch, target_fraction: float) -> float:
        """Custom shedding: reduce the work on ``batch`` to ``target_fraction``.

        Implementations must process the batch themselves (calling
        :meth:`update` or equivalent internal logic) and return the fraction
        of the full-batch resource usage they actually consumed, which the
        enforcement policy compares against its measurement.  The default
        raises, since most queries rely on system sampling.
        """
        raise NotImplementedError(
            f"query {self.name!r} does not implement custom load shedding")

    # ------------------------------------------------------------------
    # Cost accounting helpers
    # ------------------------------------------------------------------
    def charge(self, operation: str, count: float = 1.0) -> None:
        """Charge ``count`` repetitions of a basic operation to the meter."""
        self.meter.charge(operation, count)

    def consume_cycles(self) -> float:
        """Read and reset the cycles accumulated for the last batch."""
        return self.meter.consume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class QueryResultLog:
    """Accumulates per-interval results of one query over an execution.

    The experiment harness uses two logs per query — one from the evaluated
    (load shedding) run and one from a reference run on the full trace — and
    feeds them to the accuracy metrics of :mod:`repro.monitor.metrics`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.intervals: list = []
        self.results: list = []

    def append(self, interval_start: float, result: Dict[str, float]) -> None:
        self.intervals.append(float(interval_start))
        self.results.append(result)

    def copy(self) -> "QueryResultLog":
        """Shallow copy (for mid-stream snapshots)."""
        clone = QueryResultLog(self.name)
        clone.intervals = list(self.intervals)
        clone.results = list(self.results)
        return clone

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(zip(self.intervals, self.results))

    def result_at(self, index: int) -> Dict[str, float]:
        return self.results[index]
