"""Pattern-search query: byte-sequence identification in payloads (Table 2.2).

Searches every packet payload for a configurable byte signature using the
Boyer-Moore(-Horspool) algorithm the paper cites, whose cost is linear in the
number of scanned bytes.  Like the trace query, its accuracy under sampling
is defined as the fraction of packets processed.

The production path scans the whole batch in one
:func:`~repro.core.aggregate.payload_hits` sweep (a single C-level search
over the joined payloads) instead of a per-packet Python loop;
:func:`boyer_moore_horspool` documents the algorithm whose cost structure
the cycle meter charges, and the tests hold it to ``bytes.find``.
"""

from __future__ import annotations

from typing import Dict

from ..monitor.packet import Batch
from ..monitor.query import SAMPLING_PACKET, Query
from ..traffic.generator import ATTACK_SIGNATURE


def boyer_moore_horspool(haystack: bytes, needle: bytes) -> int:
    """Return the index of ``needle`` in ``haystack`` or -1 if absent.

    Reference implementation of the search algorithm used by the query; the
    query itself delegates to the C-implemented ``bytes.find`` for speed, but
    this function documents (and is tested to match) the exact semantics and
    cost structure charged to the cycle meter.
    """
    n, m = len(haystack), len(needle)
    if m == 0:
        return 0
    if m > n:
        return -1
    shift = {byte: m - index - 1 for index, byte in enumerate(needle[:-1])}
    default_shift = m
    position = 0
    while position <= n - m:
        if haystack[position:position + m] == needle:
            return position
        next_char = haystack[position + m - 1]
        position += shift.get(next_char, default_shift)
    return -1


class PatternSearchQuery(Query):
    """Finds packets whose payload contains a byte signature."""

    name = "pattern-search"
    sampling_method = SAMPLING_PACKET
    minimum_sampling_rate = 0.10
    measurement_interval = 1.0
    needs_payload = True

    def __init__(self, pattern: bytes = ATTACK_SIGNATURE, **kwargs) -> None:
        super().__init__(**kwargs)
        if not pattern:
            raise ValueError("pattern must be a non-empty byte string")
        self.pattern = bytes(pattern)
        self._matches = 0.0
        self._packets_scanned = 0.0
        self._bytes_scanned = 0.0

    def reset(self) -> None:
        super().reset()
        self._matches = 0.0
        self._packets_scanned = 0.0
        self._bytes_scanned = 0.0

    def update(self, batch: Batch, sampling_rate: float) -> None:
        n = len(batch)
        self.charge("packet", n)
        self._packets_scanned += n
        if n == 0:
            return
        if not batch.has_payloads:
            # Header-only traffic: nothing to scan, the cost stays per-packet.
            return
        hit = batch.payload_hits((self.pattern,))
        scanned_bytes = int(batch.payload_lengths().sum())
        matches = int(hit.sum())
        self.charge("regex_byte", scanned_bytes)
        self.charge("store_byte", matches * 64)
        self._bytes_scanned += scanned_bytes
        self._matches += matches

    def interval_partial(self) -> Dict[str, float]:
        self.charge("flush")
        result = {
            "matches": self._matches,
            "packets_scanned": self._packets_scanned,
            "bytes_scanned": self._bytes_scanned,
        }
        self._matches = 0.0
        self._packets_scanned = 0.0
        self._bytes_scanned = 0.0
        return result
