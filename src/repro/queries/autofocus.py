"""Autofocus query: high-volume traffic clusters per subnet (Table 2.2).

A uni-dimensional version of the Autofocus algorithm (Estan et al.): traffic
is aggregated hierarchically over destination prefixes (/8, /16, /24, /32)
and the query reports the clusters whose volume exceeds a threshold fraction
of the total traffic, after removing clusters already explained by a more
specific reported prefix (the "delta report").

The per-level prefix tables are :class:`KeyedAccumulator` kernels, so the
per-batch accumulation is one keyed array update per level instead of a
Python loop over prefixes.

Accuracy under sampling is the fraction of reported clusters that match the
reference report (Section 2.2.1), which makes the query relatively sensitive
to sampling — its minimum sampling rate in Table 5.2 is 0.69.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core.aggregate import KeyedAccumulator
from ..core.distinct import sorted_unique
from ..core.sampling import scale_estimate, scale_estimates
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query, merge_union

#: Prefix lengths of the uni-dimensional hierarchy, most specific first.
PREFIX_LENGTHS: Tuple[int, ...] = (32, 24, 16, 8)


class AutofocusQuery(Query):
    """Reports destination-prefix clusters carrying a significant volume."""

    name = "autofocus"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.69
    measurement_interval = 1.0

    #: How finished reports of independent monitors federate (the fleet
    #: tier): a delta report cannot be re-thresholded without the prefix
    #: tables, so the federated report is the union of the clusters any
    #: node found significant against *its own* total.  Total volume is
    #: additive.  Shards of one node hand over the tables themselves
    #: (:meth:`interval_partial`) and the node thresholds the merged ones.
    RESULT_MERGE = {
        "clusters": merge_union(sort_key=lambda c: (c[1], c[0]),
                                coerce=tuple),
        "total_bytes": "sum",
    }

    def __init__(self, threshold_fraction: float = 0.02, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.0 < threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        self.threshold_fraction = float(threshold_fraction)
        self._volumes: Dict[int, KeyedAccumulator] = {
            plen: KeyedAccumulator(columns=("bytes",))
            for plen in PREFIX_LENGTHS}
        self._total_bytes = 0.0

    def reset(self) -> None:
        super().reset()
        for table in self._volumes.values():
            table.reset()
        self._total_bytes = 0.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        # One tree node visit per prefix level per packet.
        self.charge("tree_op", n * len(PREFIX_LENGTHS))
        if n == 0:
            return
        self._total_bytes += scale_estimate(batch.byte_count, sampling_rate)
        # Aggregate the finest level from the packets, then fold each
        # coarser level from the previous one: prefix volumes are integer
        # byte sums, so the two-stage aggregation is exact (scaling happens
        # after the per-level fold, as in the per-packet formulation).
        unique_dst, inverse = batch.unique_values("dst_ip")
        keys = unique_dst.astype(np.uint64)
        volumes = np.bincount(inverse, weights=batch.size)
        previous_plen = 32
        for plen in PREFIX_LENGTHS:
            if plen != previous_plen:
                coarse = keys >> np.uint64(previous_plen - plen)
                keys, index = sorted_unique(coarse, return_inverse=True)
                volumes = np.bincount(index, weights=volumes)
                previous_plen = plen
            self._volumes[plen].observe(
                keys, bytes=scale_estimates(volumes, sampling_rate))

    def interval_partial(self) -> Dict[str, object]:
        """The interval's four prefix tables and the total they sum to."""
        self.charge("flush")
        self.charge("tree_op",
                    sum(len(t) for t in self._volumes.values()))
        partial = {"threshold_fraction": self.threshold_fraction,
                   "total_bytes": self._total_bytes,
                   "volumes": self._volumes}
        self._volumes = {plen: KeyedAccumulator(columns=("bytes",))
                         for plen in PREFIX_LENGTHS}
        self._total_bytes = 0.0
        return partial

    @classmethod
    def merge_partials(cls, partials: Sequence[Dict]) -> Dict:
        """Sum the tables level by level and the totals: a prefix's flows
        sit on several shards, so only the merged tables can be held
        against the threshold of the whole stream."""
        first, *rest = partials
        if not rest:
            return first
        return {"threshold_fraction": first["threshold_fraction"],
                "total_bytes": sum(partial["total_bytes"]
                                   for partial in partials),
                "volumes": {plen: KeyedAccumulator.union(
                    [partial["volumes"][plen] for partial in partials])
                    for plen in PREFIX_LENGTHS}}

    @classmethod
    def finalize(cls, partial: Dict) -> Dict[str, object]:
        """The delta report: clusters above the threshold that no more
        specific reported cluster explains."""
        threshold = partial["threshold_fraction"] * \
            max(partial["total_bytes"], 1.0)
        reported: List[Tuple[int, int]] = []
        explained: Dict[int, Set[int]] = {plen: set() for plen in PREFIX_LENGTHS}
        for level, plen in enumerate(PREFIX_LENGTHS):
            table = partial["volumes"][plen]
            keys = table.keys
            # Vectorised threshold cut; only the (few) significant
            # clusters go through the per-prefix delta logic.
            for i in np.flatnonzero(table.column("bytes") >= threshold):
                prefix = int(keys[i])
                if prefix in explained[plen]:
                    continue
                reported.append((prefix, plen))
                # Mark the ancestors of this prefix as explained.
                for coarser in PREFIX_LENGTHS[level + 1:]:
                    explained[coarser].add(prefix >> (plen - coarser))
        return {"clusters": reported, "total_bytes": partial["total_bytes"]}
