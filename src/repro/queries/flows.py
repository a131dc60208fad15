"""Flows query: per-flow classification and active-flow count (Table 2.2).

Maintains a 5-tuple flow table (as NetFlow would) and reports the number of
active flows per measurement interval.  Its cost depends both on the number
of packets (lookups) and on the number of *new* flows (insertions), which is
why it needs multiple features to be predicted well (Figure 3.3/3.4).

The query uses flow sampling so the active-flow estimate stays unbiased:
under flow sampling with rate ``p`` the expected number of sampled flows is
``p`` times the true count.
"""

from __future__ import annotations

from typing import Dict

from ..core.aggregate import KeyedAccumulator
from ..core.sampling import scale_estimate
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_FLOW, Query


class FlowsQuery(Query):
    """Counts active 5-tuple flows per measurement interval.

    The flow table is a column-free :class:`KeyedAccumulator` (a sorted
    array of 64-bit flow keys), so the per-batch membership test (which
    flows are new?) is one vectorised table update instead of a Python
    loop.
    """

    name = "flows"
    sampling_method = SAMPLING_FLOW
    minimum_sampling_rate = 0.05
    measurement_interval = 1.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._flow_table = KeyedAccumulator()
        self._flow_estimate = 0.0
        self._packets = 0.0

    def reset(self) -> None:
        super().reset()
        self._flow_table.reset()
        self._flow_estimate = 0.0
        self._packets = 0.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        self._packets += scale_estimate(n, sampling_rate)
        # Every packet performs a lookup in the flow table.
        self.charge("hash_lookup", n)
        if n == 0:
            return
        n_new = self._flow_table.observe(batch.unique_aggregate_hashes(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto")))
        # New flows pay the insertion cost, the rest only an in-place update.
        self.charge("hash_insert", n_new)
        self.charge("hash_update", n - n_new)
        # Scale the newly observed flows by the inverse of the sampling rate
        # of the batch in which they first appeared, so the estimate stays
        # unbiased even when the rate changes from bin to bin.
        self._flow_estimate += scale_estimate(n_new, sampling_rate)

    def interval_partial(self) -> Dict[str, float]:
        self.charge("flush")
        self.charge("hash_update", len(self._flow_table))
        result = {
            "flows": self._flow_estimate,
            "packets": self._packets,
        }
        self._flow_table.reset()
        self._flow_estimate = 0.0
        self._packets = 0.0
        return result
