"""Super-sources query: sources with the largest fan-out (Table 2.2).

Detects the source addresses contacting the largest number of distinct
destinations (super-spreaders), following the spirit of Venkataraman et al.
The query uses flow sampling (entire source-destination pairs survive or are
dropped together) and reports the estimated fan-out of the top sources; the
accuracy metric is the average relative error of those fan-out estimates.

The per-source destination sets are a :class:`DistinctFanout` kernel: the
distinct ``(src, dst)`` pairs live in one sorted array, so the per-batch
deduplication and the per-source counts are vectorised array operations
instead of a Python loop over a dict of sets.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.aggregate import DistinctFanout
from ..core.distinct import locate_sorted, sorted_unique
from ..core.sampling import scale_estimates
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_FLOW, Query


class SuperSourcesQuery(Query):
    """Tracks the sources with the largest number of distinct destinations."""

    name = "super-sources"
    sampling_method = SAMPLING_FLOW
    minimum_sampling_rate = 0.93
    measurement_interval = 1.0

    #: How finished reports of independent monitors federate (the fleet
    #: tier): the ``fanout`` map is re-topped from the summed per-node
    #: estimates by :meth:`derive_merged`; ``sources`` sums (a source seen
    #: by two nodes counts twice).  Shards of one node hand over their
    #: distinct pairs (:meth:`interval_partial`), and a pair two shards
    #: both saw counts once.
    RESULT_MERGE = {"fanout": "derived", "sources": "sum"}

    def __init__(self, top_n: int = 10, **kwargs) -> None:
        super().__init__(**kwargs)
        self.top_n = int(top_n)
        self._pairs = DistinctFanout()
        self._sampling_rate = 1.0

    def reset(self) -> None:
        super().reset()
        self._pairs.reset()
        self._sampling_rate = 1.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        self._sampling_rate = sampling_rate
        self.charge("hash_lookup", n)
        if n == 0:
            return
        pair_keys = DistinctFanout.pair_u32(batch.src_ip, batch.dst_ip)
        inserts = self._pairs.observe(pair_keys,
                                      batch.src_ip.astype(np.uint64))
        self.charge("hash_insert", inserts)
        self.charge("hash_update", n - inserts if n > inserts else 0)

    def interval_partial(self) -> Dict[str, object]:
        """The interval's distinct ``(src, dst)`` pairs, under the sampling
        rate that admitted them (the instance's latest)."""
        self.charge("flush")
        partial = {"top_n": self.top_n,
                   "pairs": {self._sampling_rate: self._pairs.pairs}}
        self._pairs.reset()
        return partial

    @classmethod
    def merge_partials(cls, partials: Sequence[Dict]) -> Dict:
        """Union the pair tables, rate by rate.  A source reaches one
        destination over several flows, which may sit on different shards:
        such a pair is kept once, under the highest of its rates."""
        first, *rest = partials
        if not rest:
            return first
        by_rate: Dict[float, list] = {}
        for partial in partials:
            for rate, pairs in partial["pairs"].items():
                by_rate.setdefault(rate, []).append(pairs)
        merged: Dict[float, np.ndarray] = {}
        seen = np.empty(0, dtype=np.uint64)
        for rate in sorted(by_rate, reverse=True):
            pairs = sorted_unique(np.concatenate(by_rate[rate]))
            if seen.size:
                pairs = pairs[~locate_sorted(seen, pairs)[1]]
            merged[rate] = pairs
            if len(merged) < len(by_rate):
                seen = sorted_unique(np.concatenate([seen, pairs]))
        return {"top_n": max(partial["top_n"] for partial in partials),
                "pairs": merged}

    @classmethod
    def finalize(cls, partial: Dict) -> Dict[str, object]:
        """Fan-out per source — every distinct pair counting ``1 / rate``
        — and the ``top_n`` largest."""
        counted = []
        for rate, pairs in partial["pairs"].items():
            # Sorted pair keys lead with the source: so are their sources.
            keys, counts = sorted_unique(DistinctFanout.key_u32(pairs),
                                         return_counts=True)
            counted.append((keys, scale_estimates(counts.astype(np.float64),
                                                  rate)))
        sources = sorted_unique(np.concatenate([keys for keys, _ in counted]))
        estimates = np.zeros(len(sources))
        for keys, scaled in counted:
            estimates[np.searchsorted(sources, keys)] += scaled
        # Fan-out descending, ties to the smaller source address — the
        # vectorised equivalent of sorting the full fan-out dict.
        order = np.lexsort((sources, -estimates))[:partial["top_n"]]
        return {
            "fanout": {int(sources[i]): float(estimates[i]) for i in order},
            "sources": float(len(sources)),
        }

    @classmethod
    def derive_merged(cls, merged: Dict, results: Sequence[Dict]) -> Dict:
        """Sum per-node fan-out estimates and re-take the top sources.

        A source's (src, dst) pairs spread across nodes, so its federated
        fan-out is the sum of the per-node distinct-destination counts —
        above the true one when the same destination is reached through
        different nodes, never more than N times it
        (:data:`repro.queries.MERGE_EXACTNESS`: ``"bounded"``).

        The merged map keeps every summed source (ordered by fan-out desc,
        address asc) instead of truncating to a member's ``top_n``:
        truncation at merge time would drop fan-out mass an outer merge of
        a nested grouping still needs, and keeping the full summed table is
        what makes this fold associative and permutation-invariant.
        """
        fanout: Dict[int, float] = {}
        for result in results:
            for src, count in result.get("fanout", {}).items():
                fanout[src] = fanout.get(src, 0.0) + count
        top = sorted(fanout.items(), key=lambda item: (-item[1], item[0]))
        merged["fanout"] = dict(top)
        return merged
