"""High-watermark query: peak link utilisation over time (Table 2.2).

Tracks the maximum traffic volume observed in any sub-interval (one time bin)
within the measurement interval.  Cost is linear in the number of packets.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.sampling import scale_estimate
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query


class HighWatermarkQuery(Query):
    """High watermark of link utilisation (bytes per time bin)."""

    name = "high-watermark"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.15
    measurement_interval = 1.0

    #: How finished reports of independent monitors federate (the fleet
    #: tier): a node's watermark is the peak of *its slice* of the stream,
    #: and with only the peaks to go by the federated figure is their sum —
    #: the whole stream's peak when the slices peak in the same bin, above
    #: it otherwise, never more than N times it; the per-node maximum would
    #: instead fall short by roughly a factor of N.  Shards of one node
    #: hand over the interval's per-bin series (:meth:`interval_partial`),
    #: which sum bin by bin before the maximum is taken.
    RESULT_MERGE = {"watermark_bytes": "sum", "watermark_packets": "sum"}

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: Bin start -> (bytes, packets) seen for that bin this interval.
        self._bins: Dict[float, Tuple[float, float]] = {}

    def reset(self) -> None:
        super().reset()
        self._bins = {}

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        self.charge("counter_update", 2 * n)
        nbytes, packets = self._bins.get(batch.start_ts, (0.0, 0.0))
        self._bins[batch.start_ts] = (
            nbytes + scale_estimate(batch.byte_count, sampling_rate),
            packets + scale_estimate(n, sampling_rate))

    def interval_partial(self) -> Dict[float, Tuple[float, float]]:
        """The interval's per-bin ``(bytes, packets)`` series."""
        self.charge("flush")
        bins, self._bins = self._bins, {}
        return bins

    @classmethod
    def merge_partials(cls, partials: Sequence[Dict]) -> Dict:
        """Sum the series bin by bin: the shards saw slices of the same
        bins, and a bin's volume is the sum of its slices."""
        first, *rest = partials
        if not rest:
            return first
        bins = dict(first)
        for partial in rest:
            for start, (nbytes, packets) in partial.items():
                mine = bins.get(start, (0.0, 0.0))
                bins[start] = (mine[0] + nbytes, mine[1] + packets)
        return bins

    @classmethod
    def finalize(cls, partial: Dict) -> Dict[str, float]:
        return {
            "watermark_bytes": max((nbytes for nbytes, _ in partial.values()),
                                   default=0.0),
            "watermark_packets": max((packets for _, packets
                                      in partial.values()), default=0.0),
        }
