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

A batch's counters are built once for every extractor that reads it, and
Algorithm 1 reads each bin twice: the full batch before shedding, then
each query's sampled batch.  A bitmap bank is filled from *bit addresses*
(:meth:`~repro.core.distinct.BitmapBank.addresses`), computed once per
batch: one ``(10, n)`` matrix, ``uint16`` at the default geometry (2 bytes
a packet and aggregate), memoised on the batch.  A selection of it (a
filter result, a sampled batch) gathers its rows of that matrix and
memoises no copy, and the 64-bit aggregate hashes are not kept, except the
5-tuple's, which the samplers and the flow queries read too.  The exact
backend counts the memoised hashes themselves.

An extractor keeps no clock: the system starts its next interval
(:meth:`FeatureExtractor.reset`) in the bin that flushes the query's last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .distinct import BitmapBank, CounterBank, make_bank
from .hashing import combine_columns

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

#: The aggregate whose hashes others read from the batch memo too (the
#: flowwise samplers, the flow-keyed queries): a bank build memoises it
#: like they do.  Every other aggregate's hashes are turned into bit
#: addresses and dropped.
_SHARED_AGGREGATE = "five_tuple"

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


#: Per-batch memo key of everything that depends on an extractor's interval
#: bank as well as on the packets (see :meth:`FeatureExtractor._shared`).
INTERVAL_MEMO = ("interval",)


class FeatureSharing:
    """What the extractors of one system have in common.

    The empty bank every measurement interval starts from — one read-only
    object per counter backend, so extractors that wipe their state hold
    *the same* bank again — and the counts (``stats()``, reported as
    ``session.metrics["feature_sharing"]``) of feature reads and counter
    merges computed or found memoised on the batch, of the bit-address
    matrices computed, and of the batch banks built, by cause in Algorithm
    1: for a batch a query is handed (read before shedding) or for its
    sampled batch (read, updating, after).
    """

    COUNTERS = {("features", True): "shared_reads",
                ("features", False): "computed_reads",
                ("merged", True): "deduped_merges",
                ("merged", False): "computed_merges",
                ("addresses", False): "address_matrices",
                ("bank", False): "full_bank_builds",
                ("bank", True): "sampled_bank_builds"}

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

    The state is the bank: the distinct items of the current measurement
    interval (one row per aggregate), the source of the ``new`` and
    ``interval_repeated`` counters.  Whoever owns the query's intervals
    calls :meth:`reset` when one ends, which puts back the empty bank.

    A bank is an immutable value — merging a batch *replaces* it with the
    union — and both per-bin operations are memoised on the batch, keyed by
    the bank they start from.  So extractors share work exactly when they
    hold the same bank object and are handed the same batch object, which
    the filter cache and the canonical empty bank arrange for queries with
    the same filter; once their streams differ (a sampled batch merged, a
    fully shed bin skipped, a mid-stream join) they hold different banks.

    Parameters
    ----------
    method:
        ``"bitmap"`` (multi-resolution bitmaps, default) or ``"exact"``.
    sharing:
        The owning system's :class:`FeatureSharing` (default: its own).
    """

    def __init__(self, method: str = "bitmap",
                 sharing: Optional[FeatureSharing] = None) -> None:
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

    def _batch_counters(self, batch: "Batch",
                        sampled: bool = False) -> CounterBank:
        """Distinct counters over the ten aggregates of ``batch``.

        Built once for every extractor of the backend, memoised on the
        batch and only ever merged *from*, never mutated (so its
        ``estimates()``, the ``unique`` features, are computed once too).
        A bitmap bank sets the bits of :meth:`_bit_addresses`; the exact
        backend's counters take the hashes.  A build is counted as a
        sampled batch's when ``sampled``, else as a full batch's.
        """
        def build() -> CounterBank:
            self._sharing.counts["bank", sampled] += 1
            bank = self._empty_bank().copy()
            if isinstance(bank, BitmapBank):
                for index, addresses in enumerate(
                        self._bit_addresses(batch, bank)):
                    bank.add_addresses(index, addresses)
            else:
                for index, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
                    bank.add_hashes(index, batch.aggregate_hashes(columns))
            return bank

        return batch.memo(("counters", self.method), build)

    def _bit_addresses(self, batch: "Batch", bank: BitmapBank) -> np.ndarray:
        """The ``(10, len(batch))`` bit addresses of ``batch`` in ``bank``'s
        geometry: computed once per batch, gathered for its selections."""
        def build(source: "Batch") -> np.ndarray:
            self._sharing.counts["addresses", False] += 1
            return np.stack([
                bank.addresses(
                    source.aggregate_hashes(columns)
                    if name == _SHARED_AGGREGATE
                    else combine_columns(source.columns(columns)))
                for name, columns in TRAFFIC_AGGREGATES])

        return batch.rowwise(("addresses", bank.num_components,
                              bank.bits_per_component), build)

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
        """Start a new measurement interval (or execution): the empty bank."""
        self._bank: CounterBank = self._empty_bank()

    def extract(self, batch: "Batch", update_state: bool = True) -> FeatureVector:
        """Extract the feature vector of ``batch``.

        With ``update_state=False`` the interval state stays as it is:
        Algorithm 1 extracts so before sampling and again, updating, on the
        sampled batch, so that the regression history is what the query saw.
        """
        if len(batch) == 0:  # nothing to count, and nothing to merge
            return FeatureVector(np.zeros(NUM_FEATURES))
        if update_state:
            # Algorithm 1's updating read is of a sampled batch: its bank
            # is built, and counted, as one (the read below finds it).
            self._batch_counters(batch, sampled=True)
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
        if len(batch):
            self._bank = self._shared(batch, "merged", self._merged)

    def extraction_cost(self, batch: "Batch") -> float:
        """Simulated cycle cost of extracting features from ``batch``.

        The paper reports feature extraction as the dominant prediction
        overhead (~9% of total cycles, Table 3.4); the linear-in-packets model
        here reproduces that property under the default cost weights.
        """
        return self.cycles_fixed + self.cycles_per_packet * len(batch)
