"""The in-place, one-bank-per-query feature extractor, kept as a test oracle.

This is the private path :class:`repro.core.features.FeatureExtractor` had
while sharing was a protocol beside it: every extractor owns a bank of
interval counters, merges each batch into it in place and wipes it in place
when its owner starts a new measurement interval (``reset()``).  The method
bodies are verbatim, but for the shared-group branches, which this path
never entered, the weak reference to the pending batch (an oracle may keep
a bin alive), the interval clock (like the production extractor, it keeps
none) and the batch bank.  The oracle builds its own batch bank, from the
batch's raw columns, with the reference hash (``oracles.scalar``) and the
reference counters (``oracles.bitmap``, ``oracles.exact_counter``), and
memoises it nowhere: it shares nothing with the bank the production
extractor memoises on the batch.  The extractor that shares by value must
return the same vectors exactly (``tests/test_extractor_oracle.py``,
``tests/test_feature_sharing.py``).  Test code only — nothing under
``src/`` imports it.

The constructor takes and ignores ``sharing`` so that the class can stand in
for the production one inside a ``MonitoringSystem``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from oracles.bitmap import MultiResolutionBitmap
from oracles.counters import CounterBank
from oracles.exact_counter import ExactDistinctCounter
from oracles.scalar import combine_columns

from repro.core.features import (NUM_FEATURES, TRAFFIC_AGGREGATES,
                                 FeatureVector)

#: The reference counter of each counting method.
COUNTERS = {"bitmap": MultiResolutionBitmap, "exact": ExactDistinctCounter}


class FeatureExtractor:
    """Extracts the 42 traffic features from batches for one query."""

    def __init__(self, method: str = "bitmap", sharing=None) -> None:
        self.method = method
        self._interval_counters: CounterBank = self._new_bank()
        # The batch bank used by the most recent
        # ``extract(..., update_state=False)`` call, so that ``commit`` can
        # merge it without recomputing hashes, and its batch.
        self._pending_batch = None
        self._pending_counters: Optional[CounterBank] = None
        self.cycles_per_packet = 12.0
        self.cycles_fixed = 2000.0

    def _new_bank(self) -> CounterBank:
        return CounterBank([COUNTERS[self.method]()
                            for _ in TRAFFIC_AGGREGATES])

    def _batch_counters(self, batch) -> CounterBank:
        bank = self._new_bank()
        for index, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
            bank.add_hashes(index, combine_columns(
                [getattr(batch, column) for column in columns]))
        return bank

    def reset(self) -> None:
        self._interval_counters = self._new_bank()
        self._pending_batch = None
        self._pending_counters = None

    @staticmethod
    def _empty_vector(batch) -> FeatureVector:
        values = np.zeros(NUM_FEATURES, dtype=np.float64)
        values[1] = float(batch.byte_count)
        return FeatureVector(values)

    @staticmethod
    def _vector_values(batch, unique: np.ndarray, new: np.ndarray
                       ) -> np.ndarray:
        n_packets = float(len(batch))
        values = np.empty(NUM_FEATURES, dtype=np.float64)
        values[0] = n_packets
        values[1] = float(batch.byte_count)
        values[2::4] = unique
        values[3::4] = new
        values[4::4] = np.maximum(n_packets - unique, 0.0)
        values[5::4] = np.maximum(n_packets - new, 0.0)
        return values

    def extract(self, batch, update_state: bool = True) -> FeatureVector:
        self._pending_batch = None if update_state else batch
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

    def commit(self, batch) -> None:
        if len(batch) == 0:
            return
        if (self._pending_batch is batch
                and self._pending_counters is not None):
            self._interval_counters.merge(self._pending_counters)
        else:
            self._interval_counters.merge(self._batch_counters(batch))
        self._pending_batch = None
        self._pending_counters = None

    def extraction_cost(self, batch) -> float:
        return self.cycles_fixed + self.cycles_per_packet * len(batch)
