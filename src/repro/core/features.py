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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .distinct import CounterBank, make_bank

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


#: Per-batch memo key of everything that depends on an extractor's interval
#: bank as well as on the packets (see :meth:`FeatureExtractor._shared`).
INTERVAL_MEMO = ("interval",)


class FeatureSharing:
    """What the extractors of one system have in common.

    The empty bank every measurement interval starts from — one read-only
    object per counter backend, so extractors that wipe their state hold
    *the same* bank again — and the counts of feature reads and counter
    merges computed or found memoised on the batch (``stats()``, reported
    as ``session.metrics["feature_sharing"]``).
    """

    COUNTERS = {("features", True): "shared_reads",
                ("features", False): "computed_reads",
                ("merged", True): "deduped_merges",
                ("merged", False): "computed_merges"}

    def __init__(self) -> None:
        self._empty: Dict[str, CounterBank] = {}
        self.reset()

    def empty_bank(self, method: str) -> CounterBank:
        """The canonical empty bank (read-only) of the counter backend
        ``method``."""
        if method not in self._empty:
            self._empty[method] = make_bank(
                method, len(TRAFFIC_AGGREGATES)).freeze()
        return self._empty[method]

    def reset(self) -> None:
        """Zero the counts (start of a fresh execution)."""
        self.counts = dict.fromkeys(self.COUNTERS, 0)

    def stats(self) -> Dict[str, int]:
        return {name: self.counts[key] for key, name in self.COUNTERS.items()}


class FeatureExtractor:
    """Extracts the 42 traffic features from batches for one query.

    The state is ``(interval start, bank)``: the bank holds the distinct
    items of the current measurement interval (one row per aggregate), the
    source of the ``new`` and ``interval_repeated`` counters; a batch of a
    new interval starts from the empty bank, so feed batches in time order.

    A bank is an immutable value — merging a batch *replaces* it with the
    union — and both per-bin operations are memoised on the batch, keyed by
    the bank they start from.  So extractors share work exactly when they
    hold the same bank object and are handed the same batch object, which
    the filter cache and the canonical empty bank arrange for queries with
    the same filter; once their streams differ (a sampled batch merged, a
    fully shed bin skipped, a mid-stream join) they hold different banks.

    Parameters
    ----------
    measurement_interval:
        The query's measurement interval in seconds.
    method:
        ``"bitmap"`` (multi-resolution bitmaps, default) or ``"exact"``.
    sharing:
        The owning system's :class:`FeatureSharing` (default: its own).
    """

    def __init__(self, measurement_interval: float = 1.0,
                 method: str = "bitmap",
                 sharing: Optional[FeatureSharing] = None) -> None:
        if measurement_interval <= 0:
            raise ValueError("measurement_interval must be positive")
        self.measurement_interval = float(measurement_interval)
        #: Counter backend: key of the batch counters' memo and the empty bank.
        self.method = method
        self._sharing = sharing if sharing is not None else FeatureSharing()
        self.reset()
        #: Number of cycles charged per extracted feature value; used by the
        #: shedding scheme to account for its own overhead (Table 3.4).
        self.cycles_per_packet = 12.0
        self.cycles_fixed = 2000.0

    def _empty_bank(self) -> CounterBank:
        return self._sharing.empty_bank(self.method)

    def _batch_counters(self, batch: "Batch") -> CounterBank:
        """Distinct counters over the ten aggregates of ``batch``.

        Built once for every extractor of the backend, memoised on the
        batch and only ever merged *from*, never mutated (so its
        ``estimates()``, the ``unique`` features, are computed once too).
        """
        def build() -> CounterBank:
            bank = self._empty_bank().copy()
            for index, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
                bank.add_hashes(index, batch.aggregate_hashes(columns))
            return bank

        return batch.memo(("counters", self.method), build)

    def _shared(self, batch: "Batch", kind: str, build):
        """``build(batch)``, once per batch and interval bank.

        The memo entry holds the bank (in its key), so no later bank can be
        mistaken for it; whoever keeps a batch beyond its bin drops
        ``INTERVAL_MEMO`` when the bin is done.
        """
        memo = batch.memo(INTERVAL_MEMO, dict)
        key = (kind, self._bank)
        value = memo.get(key)
        self._sharing.counts[kind, value is not None] += 1
        if value is None:
            value = memo[key] = build(batch)
        return value

    def _features(self, batch: "Batch") -> np.ndarray:
        """The 42 values of ``batch`` against the current bank."""
        incoming = self._batch_counters(batch)
        unique = incoming.estimates()
        new = self._bank.new_estimates(incoming)
        n_packets = float(len(batch))
        values = np.empty(NUM_FEATURES, dtype=np.float64)
        values[0] = n_packets
        values[1] = float(batch.byte_count)
        values[2::4] = unique
        values[3::4] = new
        values[4::4] = np.maximum(n_packets - unique, 0.0)
        values[5::4] = np.maximum(n_packets - new, 0.0)
        values.flags.writeable = False  # every sharer gets this array
        return values

    def _merged(self, batch: "Batch") -> CounterBank:
        return self._bank.union(self._batch_counters(batch))

    def reset(self) -> None:
        """Drop all interval state (start of a fresh execution)."""
        self._bank: CounterBank = self._empty_bank()
        self._interval_start: Optional[float] = None

    def _roll(self, batch_start: float) -> None:
        """Enter the measurement interval ``batch_start`` belongs to."""
        if self._interval_start is None:
            self._interval_start = batch_start
        elif batch_start - self._interval_start >= self.measurement_interval:
            self._bank = self._empty_bank()
            # Align the new interval start on a multiple of the interval so
            # long gaps roll forward correctly.
            elapsed = batch_start - self._interval_start
            steps = int(elapsed // self.measurement_interval)
            self._interval_start += steps * self.measurement_interval

    def extract(self, batch: "Batch", update_state: bool = True) -> FeatureVector:
        """Extract the feature vector of ``batch``.

        With ``update_state=False`` the interval state stays as it is:
        Algorithm 1 extracts so before sampling and again, updating, on the
        sampled batch, so that the regression history is what the query saw.
        """
        self._roll(batch.start_ts)
        if len(batch) == 0:  # nothing to count, and nothing to merge
            return FeatureVector(np.zeros(NUM_FEATURES))
        values = self._shared(batch, "features", self._features)
        if update_state:
            self._bank = self._shared(batch, "merged", self._merged)
        return FeatureVector(values)

    def commit(self, batch: "Batch") -> None:
        """Fold ``batch`` into the interval state without extracting.

        Used by the monitoring system when a batch was *not* sampled: the
        features of the earlier ``extract(..., update_state=False)`` go into
        the regression history and only the interval state needs updating.
        Extractors that held the same bank hold the same union afterwards —
        this is where N-queries-one-merge comes from.
        """
        self._roll(batch.start_ts)
        if len(batch):
            self._bank = self._shared(batch, "merged", self._merged)

    def extraction_cost(self, batch: "Batch") -> float:
        """Simulated cycle cost of extracting features from ``batch``.

        The paper reports feature extraction as the dominant prediction
        overhead (~9% of total cycles, Table 3.4); the linear-in-packets model
        here reproduces that property under the default cost weights.
        """
        return self.cycles_fixed + self.cycles_per_packet * len(batch)
