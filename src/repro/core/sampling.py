"""Load shedding mechanisms: packet and flow sampling (Section 4.2).

Two data-reduction mechanisms are supported, selected per query at
configuration time:

* *Packet sampling* — every packet of the batch is kept independently with
  probability ``p`` (the sampling rate).
* *Flowwise flow sampling* — entire 5-tuple flows are kept with probability
  ``p`` using a hash-based selection (no per-flow state): a packet is kept
  when ``h(5-tuple) <= p`` for an H3 hash ``h`` drawn afresh every
  measurement interval — by the system, in the bin that flushes the
  query's last — so selection cannot be predicted or evaded.

Both draw their bits from one counter-based stream per query
(:func:`~repro.core.hashing.splitmix_stream`, keyed by
:func:`~repro.core.hashing.stream_key` of the system seed and the query's
name), so a query's draws do not depend on the other queries of the mix.

Both mechanisms are unbiased: scaling additive per-packet (respectively
per-flow) statistics by ``1 / p`` recovers the unsampled value in
expectation.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .hashing import H3Hash, splitmix_stream

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..monitor.packet import Batch

#: Cycle cost charged per packet touched by the samplers; part of the
#: ``ls_cycles`` overhead tracked by Algorithm 1.
SAMPLING_CYCLES_PER_PACKET = 8.0
SAMPLING_CYCLES_FIXED = 500.0

_TWO_53 = 2.0 ** 53


class PacketSampler:
    """Uniform random packet sampling.

    The coins are the stream keyed by ``key`` (:func:`splitmix_stream`):
    the i-th packet this sampler draws for is kept when the top 53 bits of
    output i, as a fraction of 2**53, are below the rate.  Its state is the
    key and the count of coins drawn.
    """

    def __init__(self, key: int = 0) -> None:
        self.key = operator.index(key)
        self.draws = 0

    def sample(self, batch: "Batch", rate: float) -> "Batch":
        """Return a new batch with each packet kept with probability ``rate``."""
        rate = _validate_rate(rate)
        if rate >= 1.0 or len(batch) == 0:
            return batch
        if rate <= 0.0:
            return batch.select(np.zeros(len(batch), dtype=bool))
        coins = splitmix_stream(self.key, self.draws, len(batch))
        self.draws += len(batch)
        # top53(z) * 2**-53 < rate  <=>  z < ceil(rate * 2**53) * 2**11:
        # the same test on the integers (rate * 2**53 is exact, below 2**53).
        keep = coins < np.uint64(math.ceil(rate * _TWO_53) << 11)
        return batch.select(keep)

    def cost(self, batch: "Batch") -> float:
        """Simulated cycle cost of sampling ``batch``."""
        return SAMPLING_CYCLES_FIXED + SAMPLING_CYCLES_PER_PACKET * len(batch)


class FlowSampler:
    """Hash-based ("flowwise") flow sampling.

    A packet is kept when the H3 hash of its 5-tuple, mapped to ``[0, 1)``,
    is below the sampling rate; all packets of a flow therefore share the
    same fate.  The hash function is re-drawn by whoever owns the query's
    measurement intervals, at every boundary (:meth:`renew_hash`).  The
    k-th function is draw k of the stream keyed by ``key``; the state is the
    key and the count of functions drawn before the current one.
    """

    def __init__(self, key: int = 0) -> None:
        self.key = operator.index(key)
        self.renewals = 0
        self._hash = H3Hash(key=self.key, draw=0)

    def renew_hash(self) -> None:
        """Draw a fresh H3 hash function (called every measurement interval)."""
        self.renewals += 1
        self._hash = H3Hash(key=self.key, draw=self.renewals)

    def sample(self, batch: "Batch", rate: float) -> "Batch":
        """Return the sub-batch whose flows hash below ``rate``."""
        rate = _validate_rate(rate)
        if rate >= 1.0 or len(batch) == 0:
            return batch
        if rate <= 0.0:
            return batch.select(np.zeros(len(batch), dtype=bool))
        return batch.select(self.units(batch) < rate)

    def units(self, batch: "Batch") -> np.ndarray:
        """Each packet's flow hash mapped to ``[0, 1)``: a flow is kept at
        any rate above it."""
        keys = batch.aggregate_hashes(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto"))
        return self._hash.unit_interval(keys)

    def cost(self, batch: "Batch") -> float:
        """Simulated cycle cost of sampling ``batch``."""
        return SAMPLING_CYCLES_FIXED + SAMPLING_CYCLES_PER_PACKET * len(batch)


def _validate_rate(rate: float) -> float:
    if not np.isfinite(rate):
        raise ValueError("sampling rate must be finite")
    return float(min(max(rate, 0.0), 1.0))


def scale_estimate(value: float, sampling_rate: float) -> float:
    """Estimate an unsampled additive statistic from its sampled value.

    This is the correction applied by the sampling-robust queries: multiply
    by the inverse of the sampling rate (Section 2.2).  A rate of zero means
    nothing was observed; the estimate is then zero.
    """
    rate = _validate_rate(sampling_rate)
    if rate <= 0.0:
        return 0.0
    return float(value) / rate


def scale_estimates(values: np.ndarray, sampling_rate: float) -> np.ndarray:
    """Vectorised :func:`scale_estimate` over an array of sampled values.

    Element-for-element identical to calling the scalar version (same
    float64 division), which is what lets vectorised query paths replace
    per-item loops without perturbing golden results.
    """
    rate = _validate_rate(sampling_rate)
    values = np.asarray(values, dtype=np.float64)
    if rate <= 0.0:
        return np.zeros_like(values)
    return values / rate
