"""Counter query: traffic load in packets and bytes (Table 2.2).

The cheapest query of the standard set: it maintains two aggregate counters
per measurement interval.  Its cost is driven purely by the number of packets,
which is why Simple Linear Regression on the packet count predicts it almost
perfectly (Figure 3.9).
"""

from __future__ import annotations

from typing import Dict

from ..core.sampling import scale_estimate
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query


class CounterQuery(Query):
    """Counts packets and bytes per measurement interval."""

    name = "counter"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.03
    measurement_interval = 1.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._packets = 0.0
        self._bytes = 0.0

    def reset(self) -> None:
        super().reset()
        self._packets = 0.0
        self._bytes = 0.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        self.charge("counter_update", 2 * n)
        self._packets += scale_estimate(n, sampling_rate)
        self._bytes += scale_estimate(batch.byte_count, sampling_rate)

    def interval_partial(self) -> Dict[str, float]:
        self.charge("flush")
        result = {"packets": self._packets, "bytes": self._bytes}
        self._packets = 0.0
        self._bytes = 0.0
        return result
