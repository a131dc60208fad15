"""P2P detector query: signature-based peer-to-peer flow detection (Table 2.2).

Combines payload signature matching (BitTorrent / Gnutella / Kazaa handshake
strings) with the well-known-port heuristic to flag flows as peer-to-peer,
following the approach of Karagiannis et al. and Sen et al. cited in the
paper.  This is the most expensive query of the standard set and the running
example of Chapter 6:

* under *packet* sampling its accuracy collapses quickly, because dropping
  the single packet that carries the handshake makes the whole flow
  undetectable (Figure 6.4);
* with a *custom* load shedding method that samples whole flows internally,
  the query keeps a much higher accuracy for the same resource usage
  (Figures 6.1 and 6.2).

The detection state lives in :class:`KeyedAccumulator` kernels (the seen /
flagged flow tables and the per-flow handshake-hit counters) and the
signature scan is the batched :func:`~repro.core.aggregate.payload_hits`
sweep, so the per-packet Python loop of the original implementation is gone.
The semantics — including the exact bytes charged to the cycle meter, which
stop accruing for a flow once it is flagged — are unchanged.

Besides the cooperative custom-shedding variant, this module provides the
*selfish* and *buggy* variants used in Sections 6.3.4 and 6.3.5 to exercise
the enforcement policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.aggregate import KeyedAccumulator
from ..core.distinct import sorted_unique
from ..core.hashing import stream_key
from ..core.sampling import FlowSampler, scale_estimate
from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_CUSTOM, SAMPLING_PACKET, Query
from ..traffic.generator import P2P_SIGNATURES

#: Transport ports commonly associated with P2P protocols.
P2P_PORTS: Tuple[int, ...] = (6881, 6882, 6883, 6346, 6347, 4662, 1214)


class P2PDetectorQuery(Query):
    """Signature plus port-heuristic P2P flow detector.

    Parameters
    ----------
    custom_shedding:
        When True the query registers a custom load shedding method that
        samples whole flows internally instead of relying on system packet
        sampling.  Its flow hash is drawn from the query's stream key
        (:meth:`reseed`; the system that runs it passes
        ``stream_key(config.seed, name)``) and renewed at every interval
        flush, as a system flow sampler's is.
    """

    name = "p2p-detector"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.60
    measurement_interval = 1.0
    needs_payload = True

    #: Flow affinity makes the verdict-set union exact: a flow's packets
    #: (and therefore its handshake) are confined to one shard, so the
    #: union of the per-shard ``p2p_flows`` lists is precisely the set a
    #: single detector over the whole stream would flag, and the flow
    #: counts sum without double counting.
    RESULT_MERGE = {"p2p_flows": "union", "flows_seen": "sum",
                    "p2p_flow_count": "sum"}

    #: Number of signature-carrying (handshake) packets that must be observed
    #: before a flow is flagged as P2P; signature-based detectors need to see
    #: the handshake exchange, not just one direction.
    handshake_packets = 2

    def __init__(self, custom_shedding: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.custom_shedding = bool(custom_shedding)
        if custom_shedding:
            self.sampling_method = SAMPLING_CUSTOM
        self._flows_seen = KeyedAccumulator()
        self._signature_hits = KeyedAccumulator(columns=("hits",))
        self._p2p_flows = KeyedAccumulator()
        self._sampling_rate = 1.0
        #: This interval's flows seen and flagged under custom shedding,
        #: each weighted by the inverse of the flow hash threshold it was
        #: kept at (None before its first custom-shed batch).
        self._weighted: Optional[List[float]] = None
        self._flow_sampler = (FlowSampler(stream_key(0, self.name))
                              if custom_shedding else None)

    def reseed(self, key: int) -> None:
        super().reseed(key)
        if self._flow_sampler is not None:
            self._flow_sampler = FlowSampler(key)

    def reset(self) -> None:
        super().reset()
        self._flows_seen.reset()
        self._signature_hits.reset()
        self._p2p_flows.reset()
        self._sampling_rate = 1.0
        self._weighted = None

    # ------------------------------------------------------------------
    # Detection logic
    # ------------------------------------------------------------------
    def _scan_batch(self, batch: Batch) -> None:
        """Process every packet of ``batch`` (already reduced, if at all)."""
        n = len(batch)
        self.charge("hash_lookup", n)
        if n == 0:
            return
        keys = batch.aggregate_hashes(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto"))
        unique, inverse = batch.unique_aggregate_hashes(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
            return_inverse=True)
        new_flows = self._flows_seen.observe(unique)
        self.charge("hash_insert", new_flows)

        # Packets of flows already flagged are skipped outright: they are
        # neither scanned nor counted, exactly as the per-packet loop did.
        # Membership is tested once per unique flow and broadcast back.
        active = ~self._p2p_flows.contains(unique)[inverse]
        if batch.has_payloads:
            scanned_bytes = self._scan_payloads(batch, keys, active,
                                                unique, inverse)
        else:
            # Header-only traffic: fall back to the port heuristic alone.
            port_hit = np.isin(batch.dst_port, P2P_PORTS) | \
                np.isin(batch.src_port, P2P_PORTS)
            flagged = keys[active & port_hit]
            if flagged.size:
                self._p2p_flows.observe(sorted_unique(flagged))
            scanned_bytes = 0
        self.charge("regex_byte", scanned_bytes * len(P2P_SIGNATURES))

    def _scan_payloads(self, batch: Batch, keys: np.ndarray,
                       active: np.ndarray, unique: np.ndarray,
                       inverse: np.ndarray) -> int:
        """Signature scan with per-flow handshake thresholding.

        Returns the number of payload bytes the scalar reference
        implementation would have scanned: packets of a flow stop counting
        (and stop being scanned) from the moment the flow crosses the
        handshake threshold, so the ``regex_byte`` charge is bit-identical
        to the original per-packet loop.
        """
        sig_hit = batch.payload_hits(P2P_SIGNATURES)
        lengths = batch.payload_lengths()
        index = np.flatnonzero(active)
        if index.size == 0:
            return 0
        hits_here = sig_hit[index]
        scanned_bytes = int(lengths[index].sum())
        if not hits_here.any():
            # No signature anywhere in the batch: nothing can cross the
            # handshake threshold (prior counts are always below it, or the
            # flow would already be flagged), so every active packet is
            # scanned and no per-flow state changes.
            return scanned_bytes
        # Only flows with an in-batch signature hit can update counters,
        # flag, or skip packets; restrict the per-flow threshold pass to
        # their packets (flagged via the unique-flow index, not a search).
        inverse_active = inverse[index]
        hit_unique = np.zeros(len(unique), dtype=bool)
        hit_unique[inverse_active[hits_here]] = True
        relevant = hit_unique[inverse_active]
        flows = keys[index][relevant]
        # Group the relevant packets by flow, preserving arrival order
        # inside each group (stable sort), and accumulate hits per flow.
        order = np.argsort(flows, kind="stable")
        flows = flows[order]
        hits = hits_here[relevant][order].astype(np.int64)
        seg_start = np.r_[True, flows[1:] != flows[:-1]]
        seg_ids = np.cumsum(seg_start) - 1
        seg_lengths = np.bincount(seg_ids)
        prior = self._signature_hits.lookup(flows[seg_start], "hits")
        running = np.cumsum(hits)
        running -= np.repeat((running - hits)[seg_start], seg_lengths)
        total = prior[seg_ids] + running
        # A packet is skipped when its flow reached the threshold strictly
        # before it; the flagging packet itself is still scanned.
        skipped = (total - hits) >= self.handshake_packets
        if skipped.any():
            scanned_bytes -= int(lengths[index][relevant][order][skipped].sum())
        counted = np.bincount(seg_ids, weights=hits * ~skipped)
        segment_flows = flows[seg_start]
        self._signature_hits.observe(segment_flows, hits=counted)
        flagged = segment_flows[(prior + counted) >= self.handshake_packets]
        if flagged.size:
            self._p2p_flows.observe(flagged)
        return scanned_bytes

    def update(self, batch: Batch, sampling_rate: float) -> None:
        self._sampling_rate = sampling_rate
        self._scan_batch(batch)

    # ------------------------------------------------------------------
    # Custom load shedding (Chapter 6)
    # ------------------------------------------------------------------
    def shed_load(self, batch: Batch, target_fraction: float) -> float:
        """Flow-sample the batch internally down to ``target_fraction``.

        Whole flows survive together, so the handshake packet of a surviving
        flow is never lost, and the packets kept never exceed the fraction
        granted.
        """
        if not self.custom_shedding:
            raise NotImplementedError(
                "custom shedding is disabled for this instance")
        fraction = float(min(1.0, max(0.0, target_fraction)))
        if fraction >= 1.0 or len(batch) == 0:
            self._scan_kept(batch, 1.0)
            return 1.0
        if fraction <= 0.0:
            return 0.0
        units = self._flow_sampler.units(batch)
        self.charge("packet", len(batch))  # hashing every packet has a cost
        # The flows hashing below the fraction carry more packets than it
        # grants when heavy ones are among them: the threshold is lowered
        # until the flows under it fit in the grant.
        budget = int(fraction * len(batch))
        threshold = min(fraction, float(np.partition(units, budget)[budget]))
        keep = units < threshold
        self._scan_kept(batch.select(keep), threshold)
        return int(keep.sum()) / len(batch)

    def _scan_kept(self, batch: Batch, threshold: float) -> None:
        """Scan the flows kept at flow hash ``threshold``, and weigh each
        one new to the interval by its inverse: a flow is kept with that
        probability (a Horvitz-Thompson estimate, since the threshold
        varies from batch to batch)."""
        seen, flagged = len(self._flows_seen), len(self._p2p_flows)
        self._scan_batch(batch)
        if self._weighted is None:
            self._weighted = [0.0, 0.0]
        self._weighted[0] += (len(self._flows_seen) - seen) / threshold
        self._weighted[1] += (len(self._p2p_flows) - flagged) / threshold

    # ------------------------------------------------------------------
    def interval_partial(self) -> Dict[str, object]:
        self.charge("flush")
        if self._flow_sampler is not None:
            self._flow_sampler.renew_hash()
        result = {
            "p2p_flows": [int(flow) for flow in self._p2p_flows.keys],
            "flows_seen": scale_estimate(len(self._flows_seen),
                                         self._sampling_rate),
            "p2p_flow_count": scale_estimate(len(self._p2p_flows),
                                             self._sampling_rate),
        }
        if self._weighted is not None:
            result["flows_seen"], result["p2p_flow_count"] = self._weighted
            self._weighted = None
        self._flows_seen.reset()
        self._signature_hits.reset()
        self._p2p_flows.reset()
        return result


class SelfishP2PDetectorQuery(P2PDetectorQuery):
    """A selfish variant that ignores the shedding request (Section 6.3.4).

    It always processes the full batch to maximise its own accuracy, yet
    reports that it complied with the requested fraction.  The enforcement
    policy must detect the excess consumption and disable it.
    """

    name = "p2p-detector-selfish"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("custom_shedding", True)
        super().__init__(**kwargs)

    def shed_load(self, batch: Batch, target_fraction: float) -> float:
        self._sampling_rate = 1.0
        self._scan_batch(batch)       # ignores the request entirely
        return float(target_fraction)  # ...and lies about it


class BuggyP2PDetectorQuery(P2PDetectorQuery):
    """A buggy variant whose custom method sheds far too little (Section 6.3.5).

    The implementation confuses the target fraction with its square root, so
    it systematically consumes more cycles than it was granted without any
    malicious intent.  The enforcement policy corrects and eventually
    disables it.
    """

    name = "p2p-detector-buggy"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("custom_shedding", True)
        super().__init__(**kwargs)

    def shed_load(self, batch: Batch, target_fraction: float) -> float:
        buggy_fraction = float(np.sqrt(min(1.0, max(0.0, target_fraction))))
        return super().shed_load(batch, buggy_fraction)
