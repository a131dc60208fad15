"""Application query: port-based application classification (Table 2.2).

Maintains per-application packet and byte counters, where the application is
determined by the destination (or source) transport port.  Cost is linear in
the number of packets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.aggregate import KeyedAccumulator
from ..core.sampling import scale_estimates
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query

#: Port-to-application mapping used by the classifier; anything else is
#: accounted under ``other``.
PORT_APPLICATIONS: Dict[int, str] = {
    80: "http",
    443: "https",
    53: "dns",
    25: "smtp",
    22: "ssh",
    6881: "p2p",
    6346: "p2p",
    8080: "http-alt",
}


class ApplicationQuery(Query):
    """Breaks traffic down into application classes by port number."""

    name = "application"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.03
    measurement_interval = 1.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._counters = KeyedAccumulator(columns=("packets", "bytes"))

    def reset(self) -> None:
        super().reset()
        self._counters.reset()

    @staticmethod
    def _labels() -> List[str]:
        """Application labels in class-index order."""
        return sorted(set(PORT_APPLICATIONS.values())) + ["other"]

    @staticmethod
    def _classify(batch: Batch) -> Tuple[np.ndarray, list]:
        """Return per-packet application indices and the label list."""
        labels = ApplicationQuery._labels()
        label_index = {label: i for i, label in enumerate(labels)}
        app_idx = np.full(len(batch), label_index["other"], dtype=np.int64)
        for port, label in PORT_APPLICATIONS.items():
            mask = (batch.dst_port == port) | (batch.src_port == port)
            app_idx[mask] = label_index[label]
        return app_idx, labels

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        # One table lookup plus two counter updates per packet.
        self.charge("hash_lookup", n * 0.2)
        self.charge("counter_update", 2 * n)
        if n == 0:
            return
        app_idx, labels = self._classify(batch)
        pkt_counts = np.bincount(app_idx, minlength=len(labels))
        byte_counts = np.bincount(app_idx, weights=batch.size,
                                  minlength=len(labels))
        seen = np.flatnonzero(pkt_counts)
        self._counters.observe(
            seen.astype(np.uint64),
            packets=scale_estimates(pkt_counts[seen], sampling_rate),
            bytes=scale_estimates(byte_counts[seen], sampling_rate))

    def interval_partial(self) -> Dict[str, object]:
        self.charge("flush")
        labels = self._labels()
        result = {
            "packets_by_app": {labels[key]: value for key, value
                               in self._counters.items("packets")},
            "bytes_by_app": {labels[key]: value for key, value
                             in self._counters.items("bytes")},
        }
        self._counters.reset()
        return result
