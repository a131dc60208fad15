"""Top-k query: ranking of the most popular destination addresses (Table 2.2).

Maintains per-destination byte counters and reports the ``k`` destinations
that received the most traffic in each measurement interval.  The accuracy
metric is the number of misranked pairs between the reported and the true
ranking (Section 2.2.1), so the query is fairly sensitive to sampling — its
minimum sampling rate in Table 5.2 is 0.57.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.aggregate import KeyedAccumulator
from ..core.sampling import scale_estimates
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query


class TopKQuery(Query):
    """Ranking of the top-k destination IP addresses by byte volume.

    The per-destination byte table is a :class:`KeyedAccumulator` (sorted
    destination keys with a parallel volume column), so the per-batch
    membership test and the per-destination accumulation are pure array
    operations — no Python loop over destinations.
    """

    name = "top-k"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.57
    measurement_interval = 1.0

    #: How finished reports of independent monitors federate (the fleet
    #: tier): ``ranking`` and ``bytes`` are recomputed from the summed
    #: volumes by :meth:`derive_merged`; ``table_size`` sums.  Shards of one
    #: node do not go through this: they hand over their whole table
    #: (:meth:`interval_partial`) and the node ranks the merged one.
    RESULT_MERGE = {"ranking": "derived", "bytes": "derived",
                    "table_size": "sum"}

    def __init__(self, k: int = 10, **kwargs) -> None:
        super().__init__(**kwargs)
        self.k = int(k)
        self._table = KeyedAccumulator(columns=("bytes",))

    def reset(self) -> None:
        super().reset()
        self._table.reset()

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        if n == 0:
            self.charge("hash_lookup", 0)
            return
        unique_dst, inverse = batch.unique_values("dst_ip")
        byte_counts = np.bincount(inverse, weights=batch.size)
        scaled = scale_estimates(byte_counts, sampling_rate)
        new_entries = self._table.observe(unique_dst.astype(np.uint64),
                                          bytes=scaled)
        # One lookup per packet, insertions for previously unseen keys.
        self.charge("hash_lookup", n)
        self.charge("hash_insert", new_entries)
        self.charge("hash_update", len(unique_dst) - new_entries)

    def interval_partial(self) -> Dict[str, object]:
        """The interval's whole per-destination table, with ``k``."""
        self.charge("flush")
        # Ranking cost: n log n comparisons over the table.
        table_size = len(self._table)
        self.charge("sort_op", table_size * max(1.0, np.log2(max(table_size, 2))))
        table, self._table = self._table, KeyedAccumulator(columns=("bytes",))
        return {"k": self.k, "table": table}

    @classmethod
    def merge_partials(cls, partials: Sequence[Dict]) -> Dict:
        """Sum the tables per destination: a destination's flows may sit on
        several shards, and the merged table is the one a single instance
        over the whole stream holds."""
        first, *rest = partials
        if not rest:
            return first
        return {"k": max(partial["k"] for partial in partials),
                "table": KeyedAccumulator.union(
                    [partial["table"] for partial in partials])}

    @classmethod
    def finalize(cls, partial: Dict) -> Dict[str, object]:
        table = partial["table"]
        # Primary key: volume descending; ties broken by smaller address.
        top = table.top(partial["k"], "bytes")
        return {
            "ranking": [dst for dst, _ in top],
            "bytes": {dst: volume for dst, volume in top},
            "table_size": float(len(table)),
        }

    @classmethod
    def derive_merged(cls, merged: Dict, results: Sequence[Dict]) -> Dict:
        """Re-rank the summed per-node volumes; truncate the ranking only.

        Each node reports its own top-k; the federated ranking re-sorts the
        union of those entries by total volume (``k`` recovered from the
        widest member ranking).  The merged ``bytes`` map keeps the *full*
        summed volume table, ordered by (volume desc, address asc), rather
        than truncating it to the ranking: truncating at merge time would
        make nested merges lose volume mass an outer merge still needs, so
        the untruncated table is what makes this fold associative — any
        grouping of nodes sums the same volumes, and ``k`` recovery by
        ``max`` is associative because an inner merged ranking is always as
        long as its widest member.  A destination outside a node's own
        top-k is missing from that node's report, so its federated volume
        is a lower bound (:data:`repro.queries.MERGE_EXACTNESS`:
        ``"prefix"``).
        """
        volumes: Dict[int, float] = {}
        for result in results:
            for dst, nbytes in result.get("bytes", {}).items():
                volumes[dst] = volumes.get(dst, 0.0) + nbytes
        k = max((len(result["ranking"]) for result in results
                 if "ranking" in result), default=0)
        ordered = sorted(volumes.items(), key=lambda item: (-item[1], item[0]))
        merged["ranking"] = [dst for dst, _ in ordered[:k]]
        merged["bytes"] = dict(ordered)
        return merged
