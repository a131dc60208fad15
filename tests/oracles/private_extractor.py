"""The in-place, one-bank-per-query feature extractor, kept as a test oracle.

This is the private path :class:`repro.core.features.FeatureExtractor` had
while sharing was a protocol beside it: every extractor owns a bank of
interval counters, merges each batch into it in place and wipes it in place
at an interval boundary; nothing is shared but the per-batch counters
memoised on the batch.  The method bodies are verbatim, but for the
shared-group branches, which this path never entered, and the weak
reference to the pending batch (an oracle may keep a bin alive).  The
extractor that shares by value must return the same vectors exactly
(``tests/test_extractor_oracle.py``, ``tests/test_feature_sharing.py``).
Test code only — nothing under ``src/`` imports it.

The constructor takes and ignores ``sharing`` so that the class can stand in
for the production one inside a ``MonitoringSystem``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distinct import CounterBank, make_bank
from repro.core.features import (NUM_FEATURES, TRAFFIC_AGGREGATES,
                                 FeatureVector)


class FeatureExtractor:
    """Extracts the 42 traffic features from batches for one query."""

    def __init__(self, measurement_interval: float = 1.0,
                 method: str = "bitmap",
                 sharing=None) -> None:
        if measurement_interval <= 0:
            raise ValueError("measurement_interval must be positive")
        self.measurement_interval = float(measurement_interval)
        self.method = method
        self._interval_counters: CounterBank = self._new_bank()
        self._interval_start: Optional[float] = None
        # The batch bank used by the most recent
        # ``extract(..., update_state=False)`` call, so that ``commit`` can
        # merge it without recomputing hashes, and its batch.
        self._pending_batch = None
        self._pending_counters: Optional[CounterBank] = None
        self.cycles_per_packet = 12.0
        self.cycles_fixed = 2000.0

    def _new_bank(self) -> CounterBank:
        return make_bank(self.method, len(TRAFFIC_AGGREGATES))

    def _batch_counters(self, batch) -> CounterBank:
        def build() -> CounterBank:
            bank = self._new_bank()
            for index, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
                bank.add_hashes(index, batch.aggregate_hashes(columns))
            return bank

        return batch.memo(("counters", self.method), build)

    def reset(self) -> None:
        self._interval_counters = self._new_bank()
        self._interval_start = None
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

    def extract(self, batch, update_state: bool = True) -> FeatureVector:
        self._maybe_roll_interval(batch.start_ts)
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
        self._maybe_roll_interval(batch.start_ts)
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
