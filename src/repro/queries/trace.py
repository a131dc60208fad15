"""Trace query: full-payload packet collection (Table 2.2).

Stores every packet matching its filter to the storage process.  The cost is
driven by the number of bytes moved; the accuracy of a sampled execution is
defined as the fraction of packets processed (Section 2.2.1), since no
standard procedure exists to "un-sample" a packet trace.
"""

from __future__ import annotations

from typing import Dict

from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query


class TraceQuery(Query):
    """Collects (stores) all packets that match the filter."""

    name = "trace"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.10
    measurement_interval = 1.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._packets_stored = 0.0
        self._bytes_stored = 0.0

    def reset(self) -> None:
        super().reset()
        self._packets_stored = 0.0
        self._bytes_stored = 0.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        nbytes = batch.byte_count
        self.charge("packet", n)
        self.charge("store_byte", nbytes)
        self._packets_stored += n
        self._bytes_stored += nbytes

    def interval_partial(self) -> Dict[str, float]:
        self.charge("flush")
        result = {
            "packets_stored": self._packets_stored,
            "bytes_stored": self._bytes_stored,
        }
        self._packets_stored = 0.0
        self._bytes_stored = 0.0
        return result
