"""Traffic feature extraction (Section 3.2.1).

For every batch the system extracts a fixed set of simple features with a
deterministic worst-case cost:

* the number of packets and bytes in the batch;
* for each of the ten traffic aggregates of Table 3.1 (combinations of the
  TCP/IP header fields), four counters:

  - ``unique``              distinct items in the batch,
  - ``new``                 items not yet seen in the current measurement
                            interval,
  - ``repeated``            packets in the batch minus unique items,
  - ``interval_repeated``   packets in the batch minus new items.

That yields ``2 + 4 x 10 = 42`` features per batch, the numbers quoted in
Section 3.2.3.  Distinct items are counted with multi-resolution bitmaps by
default (the paper's choice) or exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distinct import CounterBank, as_bank, make_bank

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..monitor.packet import Batch

#: The traffic aggregates of Table 3.1: name -> header columns combined.
TRAFFIC_AGGREGATES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("src_ip", ("src_ip",)),
    ("dst_ip", ("dst_ip",)),
    ("proto", ("proto",)),
    ("src_dst_ip", ("src_ip", "dst_ip")),
    ("src_port_proto", ("src_port", "proto")),
    ("dst_port_proto", ("dst_port", "proto")),
    ("src_ip_port_proto", ("src_ip", "src_port", "proto")),
    ("dst_ip_port_proto", ("dst_ip", "dst_port", "proto")),
    ("src_dst_port_proto", ("src_port", "dst_port", "proto")),
    ("five_tuple", ("src_ip", "dst_ip", "src_port", "dst_port", "proto")),
)

#: Per-aggregate counter kinds, in the order they appear in the feature vector.
AGGREGATE_COUNTERS = ("unique", "new", "repeated", "interval_repeated")


def feature_names() -> List[str]:
    """Names of all extracted features, in canonical order."""
    names = ["packets", "bytes"]
    for agg_name, _ in TRAFFIC_AGGREGATES:
        for counter in AGGREGATE_COUNTERS:
            names.append(f"{agg_name}_{counter}")
    return names


#: Canonical feature order used throughout prediction.
FEATURE_NAMES: Tuple[str, ...] = tuple(feature_names())
NUM_FEATURES = len(FEATURE_NAMES)
_FEATURE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(FEATURE_NAMES)}


# "Which batch was that?" tokens.  The interval state remembers the batch it
# last read, merged or has a commit pending for, only to recognise the same
# object again within the bin.  The tokens are weak references: a strong one
# would keep every finished bin alive until the next bin replaces the token,
# and an ``id()`` can be recycled once the batch is freed.  Pickled state
# carries the batch itself (see the ``__getstate__`` methods), as it always
# has.
def _token(batch) -> Optional["weakref.ref[Batch]"]:
    return None if batch is None else weakref.ref(batch)


def _resolve(token) -> Optional["Batch"]:
    return None if token is None else token()


def _is_batch(token, batch: "Batch") -> bool:
    return token is not None and token() is batch


@dataclass
class FeatureVector:
    """The features extracted from one batch."""

    values: np.ndarray
    names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != len(self.names):
            raise ValueError(
                f"expected {len(self.names)} feature values, got {len(self.values)}")

    def __getitem__(self, name: str) -> float:
        return float(self.values[_FEATURE_INDEX[name]])

    def as_dict(self) -> Dict[str, float]:
        return {name: float(v) for name, v in zip(self.names, self.values)}

    def __len__(self) -> int:
        return len(self.values)


class IntervalState:
    """Per-interval counter state shared by a group of extractors.

    One group exists per ``(measurement interval, counter signature, filter
    share key)``: every member merges *the same* filtered sub-batch objects
    at the same interval boundaries, so the bank of ten distinct counters —
    and the per-bin ``new_estimates`` read against it — is paid once for the
    whole group instead of once per query.

    Bit-identity is guaranteed by construction: bitmap/exact merges are
    commutative unions, so the shared counters hold exactly the state each
    member's private counters would hold — *as long as the member merged
    every batch the group merged*.  The group tracks that with write
    rounds:

    * ``write_round`` counts merge rounds since the group was created; a
      member whose ``_synced`` round (or the ``heal_round``, see below)
      equals it is in lockstep and may read/merge through the group.
    * ``snapshot`` holds the counters as they were *before* the current
      round's merge (see :meth:`begin_round`); a member exactly one round
      behind (its batch was fully shed, say) forks its private state from
      the snapshot — bit-identical to the private path, which would have
      skipped the same merge.
    * ``heal_round`` records the round at which the counters were last
      wiped by an interval roll: a wipe erases any missed-merge divergence,
      so members behind at most that round snap back into lockstep.

    The monitoring pipeline reads (prediction) strictly before it writes
    (execution) within a bin and each bin merges at most one batch per
    group, so an attached member is never more than one round behind — the
    three cases above are exhaustive.
    """

    def __init__(self, interval: float, method: str,
                 counter_kwargs: dict) -> None:
        self.interval = float(interval)
        self.method = method
        self.counter_kwargs = dict(counter_kwargs)
        self.counters: CounterBank = make_bank(
            method, len(TRAFFIC_AGGREGATES), **self.counter_kwargs)
        self.interval_start: Optional[float] = None
        self.write_round = 0
        self.heal_round = 0
        #: Token of the batch merged by the current round: later members'
        #: commits of the same batch are dedup no-ops.
        self.round_batch = None
        self.snapshot: Optional[CounterBank] = None
        self.members = 0
        #: Read cache: (batch token, write_round, heal_round, values array).
        self.cache: Optional[tuple] = None
        # Telemetry (surfaced through session.metrics).
        self.shared_reads = 0
        self.computed_reads = 0
        self.deduped_merges = 0
        self.forks = 0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["round_batch"] = _resolve(self.round_batch)
        if self.cache is not None:
            batch = self.cache[0]()
            state["cache"] = None if batch is None \
                else (batch,) + self.cache[1:]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.round_batch = _token(self.round_batch)
        if self.cache is not None:
            self.cache = (_token(self.cache[0]),) + self.cache[1:]
        if isinstance(self.counters, list):  # pickled before banks existed
            self.counters = as_bank(self.counters)
            if self.snapshot is not None:
                self.snapshot = as_bank(self.snapshot)

    @property
    def pristine(self) -> bool:
        """True while no batch has touched the group (joinable state)."""
        return self.interval_start is None and self.write_round == 0

    def roll(self, batch_start: float) -> None:
        """Advance the measurement interval; idempotent per batch start.

        Mirrors the private extractor's interval roll exactly.  A wipe
        heals every member (their private state would have been wiped the
        same way, erasing any missed merges), so it resets the round
        bookkeeping too.
        """
        if self.interval_start is None:
            self.interval_start = batch_start
            return
        if batch_start - self.interval_start >= self.interval:
            self.counters.reset()
            elapsed = batch_start - self.interval_start
            steps = int(elapsed // self.interval)
            self.interval_start += steps * self.interval
            self.heal_round = self.write_round
            self.snapshot = None
            self.round_batch = None
            self.cache = None

    def begin_round(self, batch) -> None:
        """Open a merge round for ``batch`` (called by the first committer).

        A group with more than one member keeps the pre-merge counters as
        the fork ``snapshot``.  For bitmaps that copies the bank's packed
        words (40 KiB); an exact bank's copy shares every row's item array
        with the live counters, which the merge that follows replaces
        rather than writes to.
        """
        if self.members > 1:
            self.snapshot = self.counters.copy()
        self.write_round += 1
        self.round_batch = _token(batch)


class FeatureStateRegistry:
    """Registry of shared :class:`IntervalState` groups for one system.

    ``acquire`` joins an existing group only while it is *pristine* (no
    batch seen yet): extractors created together — at system construction,
    at a reset, or in the same bin-boundary reconfiguration — share state,
    while a query arriving after the stream started gets a fresh group (its
    private state would start empty, unlike the running group's).
    """

    def __init__(self) -> None:
        self._groups: Dict[tuple, IntervalState] = {}

    def acquire(self, interval: float, method: str, counter_kwargs: dict,
                share_key) -> IntervalState:
        key = (float(interval), method,
               tuple(sorted(counter_kwargs.items())), share_key)
        group = self._groups.get(key)
        if group is None or not group.pristine:
            group = IntervalState(interval, method, counter_kwargs)
            self._groups[key] = group
        group.members += 1
        return group

    def release(self, group: IntervalState) -> None:
        group.members = max(0, group.members - 1)

    def clear(self) -> None:
        """Drop every group (start of a fresh execution).

        Members re-acquire on their own reset, so the reset order matters:
        clear the registry first, then reset the extractors.
        """
        self._groups.clear()

    def stats(self) -> Dict[str, float]:
        """Aggregate sharing telemetry across the registry's groups."""
        groups = list(self._groups.values())
        return {
            "groups": len(groups),
            "members": int(sum(g.members for g in groups)),
            "shared_reads": int(sum(g.shared_reads for g in groups)),
            "computed_reads": int(sum(g.computed_reads for g in groups)),
            "deduped_merges": int(sum(g.deduped_merges for g in groups)),
            "forks": int(sum(g.forks for g in groups)),
        }


#: Sync states of an attached extractor relative to its group.
_SYNC = "sync"
_FORK_SNAPSHOT = "snapshot"
_FORK_PRISTINE = "pristine"


class FeatureExtractor:
    """Extracts the 42 traffic features from batches for one query.

    The extractor keeps per-measurement-interval state (a bank of distinct
    counters, one row per aggregate) used to compute the ``new`` and
    ``interval_repeated`` counters; the state resets automatically when a
    batch belonging to a new measurement interval arrives, so callers simply
    feed batches in time order.

    When constructed with a ``registry`` and a ``share_key``, the interval
    state is shared through an :class:`IntervalState` group: extractors
    with the same interval, counter backend and filter pay one set of
    merges and ``new_estimates`` reads per bin instead of one per query,
    with bit-identical results.  An extractor silently *forks* back to
    private state the moment its own stream diverges from the group's
    (sampled extraction, a fully shed bin, a mid-stream join).

    Parameters
    ----------
    measurement_interval:
        The query's measurement interval in seconds.
    method:
        ``"bitmap"`` (multi-resolution bitmaps, default) or ``"exact"``.
    counter_kwargs:
        Extra arguments passed to the bitmap constructor (e.g. smaller
        bitmaps to trade accuracy for speed).
    registry:
        Optional :class:`FeatureStateRegistry` to share interval state
        through.
    share_key:
        Hashable key identifying the packet stream this extractor sees
        (the query filter's ``cache_key``); ``None`` disables sharing.
    """

    def __init__(self, measurement_interval: float = 1.0,
                 method: str = "bitmap",
                 counter_kwargs: Optional[dict] = None,
                 registry: Optional[FeatureStateRegistry] = None,
                 share_key=None) -> None:
        if measurement_interval <= 0:
            raise ValueError("measurement_interval must be positive")
        self.measurement_interval = float(measurement_interval)
        self.method = method
        self._counter_kwargs = dict(counter_kwargs or {})
        #: Identifies the counter backend for the shared per-batch memo: all
        #: extractors with the same backend share batch counters.
        self._counter_signature = (method,
                                   tuple(sorted(self._counter_kwargs.items())))
        self._interval_counters: CounterBank = self._new_bank()
        self._interval_start: Optional[float] = None
        # The batch bank used by the most recent
        # ``extract(..., update_state=False)`` call, so that ``commit`` can
        # merge it without recomputing hashes, and the token of its batch.
        self._pending_batch = None
        self._pending_counters: Optional[CounterBank] = None
        self._registry = registry
        self._share_key = share_key
        self._group: Optional[IntervalState] = None
        #: Group round this member has merged through (attached mode only).
        self._synced = 0
        self._participated = False
        if registry is not None and share_key is not None:
            self._group = registry.acquire(
                self.measurement_interval, method, self._counter_kwargs,
                share_key)
        #: Number of cycles charged per extracted feature value; used by the
        #: shedding scheme to account for its own overhead (Table 3.4).
        self.cycles_per_packet = 12.0
        self.cycles_fixed = 2000.0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_pending_batch"] = _resolve(self._pending_batch)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pending_batch = _token(self._pending_batch)
        if isinstance(self._interval_counters, list):  # pickled before banks
            self._interval_counters = as_bank(self._interval_counters)
            if self._pending_counters is not None:
                self._pending_counters = as_bank(self._pending_counters)

    def _new_bank(self) -> CounterBank:
        return make_bank(self.method, len(TRAFFIC_AGGREGATES),
                         **self._counter_kwargs)

    @property
    def shared(self) -> bool:
        """True while the interval state lives in a shared group."""
        return self._group is not None

    def _batch_counters(self, batch: "Batch") -> CounterBank:
        """Distinct counters over the ten aggregates of ``batch``, shared.

        Every query's extractor needs the same per-batch counters for the
        pre-sampling extraction; the bank is built once, memoised on the
        batch and only ever merged *from*, never mutated (so its
        ``estimates()``, the ``unique`` features, are computed once too).
        """
        def build() -> CounterBank:
            bank = self._new_bank()
            for index, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
                bank.add_hashes(index, batch.aggregate_hashes(columns))
            return bank

        return batch.memo(("counters", self._counter_signature), build)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all interval state (start of a fresh execution).

        A sharing extractor re-acquires a group from its registry, so a
        reset re-establishes sharing even after a mid-run fork (the system
        clears the registry first, making every re-acquired group fresh).
        """
        self._interval_counters = self._new_bank()
        self._interval_start = None
        self._pending_batch = None
        self._pending_counters = None
        self.release()
        self._synced = 0
        self._participated = False
        if self._registry is not None and self._share_key is not None:
            self._group = self._registry.acquire(
                self.measurement_interval, self.method, self._counter_kwargs,
                self._share_key)

    def release(self) -> None:
        """Leave the shared group (query removal / extractor teardown)."""
        if self._group is not None:
            self._registry.release(self._group)
            self._group = None

    # ------------------------------------------------------------------
    # Shared-group protocol
    # ------------------------------------------------------------------
    def _sync_state(self, batch_start: float) -> str:
        """Classify this member against the group's current round."""
        group = self._group
        if self._participated:
            effective = max(self._synced, group.heal_round)
            if effective == group.write_round:
                return _SYNC
            if effective == group.write_round - 1:
                if group.snapshot is None:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "shared interval state lost its fork snapshot")
                return _FORK_SNAPSHOT
            raise RuntimeError(  # pragma: no cover - defensive
                "shared interval state diverged beyond repair (member "
                f"round {effective}, group round {group.write_round}); "
                "batches must flow through the monitoring pipeline")
        # Never merged or read anything yet: in lockstep only if the group
        # still holds exactly what a pristine private extractor would
        # (empty counters, aligned interval).
        if group.write_round == group.heal_round \
                and group.interval_start == batch_start:
            return _SYNC
        return _FORK_PRISTINE

    def _detach(self, state: str) -> None:
        """Fork private interval state out of the group and leave it."""
        group = self._group
        if state == _SYNC:
            self._interval_counters = group.counters.copy()
            self._interval_start = group.interval_start
        elif state == _FORK_SNAPSHOT:
            self._interval_counters = group.snapshot.copy()
            self._interval_start = group.interval_start
        else:  # pristine: nothing observed yet, start from scratch
            self._interval_counters = self._new_bank()
            self._interval_start = None
        group.forks += 1
        self.release()

    @staticmethod
    def _empty_vector(batch: "Batch") -> FeatureVector:
        """The feature vector of an empty batch (no counter state touched)."""
        values = np.zeros(NUM_FEATURES, dtype=np.float64)
        values[1] = float(batch.byte_count)
        return FeatureVector(values)

    @staticmethod
    def _vector_values(batch: "Batch", unique: np.ndarray, new: np.ndarray
                       ) -> np.ndarray:
        """The 42 values from the per-aggregate ``unique``/``new`` counts."""
        n_packets = float(len(batch))
        values = np.empty(NUM_FEATURES, dtype=np.float64)
        values[0] = n_packets
        values[1] = float(batch.byte_count)
        values[2::4] = unique
        values[3::4] = new
        values[4::4] = np.maximum(n_packets - unique, 0.0)
        values[5::4] = np.maximum(n_packets - new, 0.0)
        return values

    def _read_shared(self, batch: "Batch") -> FeatureVector:
        """Read the feature vector through the group (no state change)."""
        group = self._group
        cache = group.cache
        if (cache is not None and _is_batch(cache[0], batch)
                and cache[1] == group.write_round
                and cache[2] == group.heal_round):
            group.shared_reads += 1
            return FeatureVector(cache[3])
        incoming = self._batch_counters(batch)
        values = self._vector_values(
            batch, incoming.estimates(),
            group.counters.new_estimates(incoming))
        group.cache = (_token(batch), group.write_round, group.heal_round,
                       values)
        group.computed_reads += 1
        return FeatureVector(values)

    def _maybe_roll_interval(self, batch_start: float) -> None:
        if self._interval_start is None:
            self._interval_start = batch_start
            return
        if batch_start - self._interval_start >= self.measurement_interval:
            self._interval_counters.reset()
            # Align the new interval start on a multiple of the interval so
            # long gaps roll forward correctly.
            elapsed = batch_start - self._interval_start
            steps = int(elapsed // self.measurement_interval)
            self._interval_start += steps * self.measurement_interval

    # ------------------------------------------------------------------
    def extract(self, batch: "Batch", update_state: bool = True) -> FeatureVector:
        """Extract the feature vector of ``batch``.

        With ``update_state=False`` the per-interval counters are left
        untouched; Algorithm 1 uses this for the pre-sampling extraction and
        then re-extracts (with ``update_state=True``) on the sampled batch so
        the regression history matches what the query actually processed.
        """
        if self._group is not None:
            group = self._group
            group.roll(batch.start_ts)
            state = self._sync_state(batch.start_ts)
            if len(batch) == 0:
                # An empty batch changes no counter state on either path,
                # so an in-sync member can stay attached.
                if state == _SYNC:
                    self._participated = True
                    self._synced = group.write_round
                    self._pending_batch = None
                    self._pending_counters = None
                    return self._empty_vector(batch)
                self._detach(state)
            elif not update_state and state == _SYNC:
                self._participated = True
                self._synced = group.write_round
                self._pending_batch = None
                self._pending_counters = None
                return self._read_shared(batch)
            else:
                # A state-updating extract on a non-group batch (sampled
                # path) — or any out-of-sync access — forks private state.
                self._detach(state)
        self._maybe_roll_interval(batch.start_ts)
        self._pending_batch = None if update_state else _token(batch)
        self._pending_counters = None
        if len(batch) == 0:
            # Nothing to count, and nothing for a later commit to merge.
            return self._empty_vector(batch)
        incoming = self._batch_counters(batch)
        new = self._interval_counters.new_estimates(incoming)
        if update_state:
            self._interval_counters.merge(incoming)
        else:
            self._pending_counters = incoming
        return FeatureVector(
            self._vector_values(batch, incoming.estimates(), new))

    def commit(self, batch: "Batch") -> None:
        """Fold ``batch`` into the interval state without recomputing features.

        Used by the monitoring system when a batch was *not* sampled: the
        features obtained from the earlier ``extract(..., update_state=False)``
        call are reused for the regression history and only the interval
        counters need updating.  Falls back to a full recomputation when the
        batch differs from the one last extracted.

        On a shared group the first committer of a bin merges the batch for
        everyone (one round); the other members' commits of the same batch
        object are dedup no-ops — this is where N-queries-one-merge comes
        from.
        """
        if self._group is not None:
            group = self._group
            group.roll(batch.start_ts)
            if len(batch) == 0:
                return
            if _is_batch(group.round_batch, batch) and self._participated:
                effective = max(self._synced, group.heal_round)
                if effective >= group.write_round - 1:
                    # This batch is exactly the current round's merge:
                    # someone already folded it in on our behalf.
                    self._synced = group.write_round
                    group.deduped_merges += 1
                    self._pending_batch = None
                    self._pending_counters = None
                    return
            state = self._sync_state(batch.start_ts)
            if state == _SYNC:
                group.begin_round(batch)
                group.counters.merge(self._batch_counters(batch))
                self._participated = True
                self._synced = group.write_round
                self._pending_batch = None
                self._pending_counters = None
                return
            self._detach(state)
        self._maybe_roll_interval(batch.start_ts)
        if len(batch) == 0:
            return
        if (_is_batch(self._pending_batch, batch)
                and self._pending_counters is not None):
            self._interval_counters.merge(self._pending_counters)
        else:
            self._interval_counters.merge(self._batch_counters(batch))
        self._pending_batch = None
        self._pending_counters = None

    def extraction_cost(self, batch: "Batch") -> float:
        """Simulated cycle cost of extracting features from ``batch``.

        The paper reports feature extraction as the dominant prediction
        overhead (~9% of total cycles, Table 3.4); the linear-in-packets model
        here reproduces that property under the default cost weights.
        """
        return self.cycles_fixed + self.cycles_per_packet * len(batch)


@lru_cache(maxsize=None)
def _name_indices(names: Tuple[str, ...]) -> np.ndarray:
    """Precomputed fancy-index array for a tuple of canonical feature names."""
    return np.array([_FEATURE_INDEX[name] for name in names], dtype=np.intp)


def select_values(vector: FeatureVector, names: Sequence[str]) -> np.ndarray:
    """Return the values of the named features as an array.

    Resolves the names once into a cached fancy-index array (the name
    universe is the fixed canonical feature set), so repeated selection is
    a single vectorised gather instead of a per-name Python loop.
    """
    return vector.values[_name_indices(tuple(names))]
