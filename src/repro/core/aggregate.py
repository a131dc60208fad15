"""Vectorised keyed-aggregation kernels shared by the query plug-ins.

Before this module existed every stateful query hand-rolled its own table:
``flows`` and ``top-k`` kept sorted NumPy arrays, while ``p2p-detector``,
``super-sources`` and ``autofocus`` looped over packets updating Python
dicts and sets — the slowest tier of the whole pipeline once the data path
and the trace store were vectorised.  The kernels here generalise the
sorted-array tables so that *all* keyed queries share one implementation:

:class:`KeyedAccumulator`
    A columnar table: one sorted ``uint64`` key array plus any number of
    parallel ``float64`` value columns.  Per-batch updates are pure array
    operations (sort / ``np.searchsorted`` / ``np.insert``), and
    :meth:`KeyedAccumulator.observe` reports how many keys were new so the
    caller can charge the exact hash-insert/update cost model the paper's
    queries use.
:class:`DistinctFanout`
    A distinct-(key, item) table, the super-spreader fan-out state.  Pairs
    are deduplicated in a sorted ``uint64`` pair-key array, the state
    layout of :class:`repro.core.distinct.ExactDistinctCounter` with the
    owning key alongside.
:func:`payload_hits`
    Batched signature search over packet payloads: the payload list is
    joined with a separator byte that cannot occur inside any pattern, so
    one C-level ``bytes.find`` sweep replaces the per-packet Python loop of
    the payload-inspection queries.

Both tables reduce a batch to its sorted distinct keys with
:func:`repro.core.distinct.sorted_unique` and find them in their sorted key
array with :func:`repro.core.distinct.locate_sorted`, the two primitives the
exact distinct counter uses too.

Shards merge a query's state through its class's ``merge_partials``
(:class:`repro.monitor.query.Query`), which unions what these tables hold
(:meth:`KeyedAccumulator.union`, the pair arrays of a
:class:`DistinctFanout`): state built from flow-disjoint sub-streams
unions into exactly the state a single instance over the whole stream
would hold.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distinct import locate_sorted, sorted_unique


class KeyedAccumulator:
    """Sorted-``uint64`` key table with parallel ``float64`` value columns.

    Parameters
    ----------
    columns:
        Names of the value columns.  An accumulator with no columns is a
        plain key set (the flow-table shape).
    """

    __slots__ = ("column_names", "_keys", "_columns")

    def __init__(self, columns: Sequence[str] = ()) -> None:
        self.column_names: Tuple[str, ...] = tuple(columns)
        self._keys = np.empty(0, dtype=np.uint64)
        self._columns: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.float64) for name in self.column_names}

    # ------------------------------------------------------------------
    @property
    def keys(self) -> np.ndarray:
        """The sorted key array (read-only view semantics by convention)."""
        return self._keys

    def column(self, name: str) -> np.ndarray:
        """The value column aligned with :attr:`keys`."""
        return self._columns[name]

    def __len__(self) -> int:
        return int(self._keys.size)

    # ------------------------------------------------------------------
    def observe(self, unique_keys: np.ndarray, **values: np.ndarray) -> int:
        """Fold one batch's per-key aggregates into the table.

        ``unique_keys`` must be sorted and duplicate-free (the shape
        ``sorted_unique`` produces); each keyword is a value column aligned
        with it.  Existing keys accumulate in place, new keys are inserted
        in sorted position.  Returns the number of *new* keys, which is
        exactly the hash-insert count of the paper's cost model (the rest
        being in-place updates).
        """
        unique_keys = np.asarray(unique_keys, dtype=np.uint64)
        if unique_keys.size == 0:
            return 0
        positions, known = locate_sorted(self._keys, unique_keys)
        new = ~known
        n_new = int(new.sum())
        for name in self.column_names:
            column_values = np.asarray(values[name], dtype=np.float64)
            self._columns[name][positions[known]] += column_values[known]
            if n_new:
                self._columns[name] = np.insert(
                    self._columns[name], positions[new], column_values[new])
        if n_new:
            self._keys = np.insert(self._keys, positions[new],
                                   unique_keys[new])
        return n_new

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask for an arbitrary key array."""
        keys = np.asarray(keys, dtype=np.uint64)
        return locate_sorted(self._keys, keys)[1]

    def lookup(self, keys: np.ndarray, column: str,
               default: float = 0.0) -> np.ndarray:
        """Per-key values of ``column`` (``default`` for unknown keys)."""
        keys = np.asarray(keys, dtype=np.uint64)
        positions, hit = locate_sorted(self._keys, keys)
        values = np.full(len(keys), float(default), dtype=np.float64)
        values[hit] = self._columns[column][positions[hit]]
        return values

    # ------------------------------------------------------------------
    def items(self, column: str) -> Iterator[Tuple[int, float]]:
        """Iterate ``(key, value)`` pairs in sorted key order."""
        values = self._columns[column]
        for index in range(self._keys.size):
            yield int(self._keys[index]), float(values[index])

    def top(self, n: int, column: str) -> List[Tuple[int, float]]:
        """Top ``n`` entries by ``column`` descending, ties to smaller key."""
        values = self._columns[column]
        order = np.lexsort((self._keys, -values))[:n]
        return [(int(self._keys[i]), float(values[i])) for i in order]

    # ------------------------------------------------------------------
    @classmethod
    def union(cls, tables: Sequence["KeyedAccumulator"]
              ) -> "KeyedAccumulator":
        """A new accumulator holding the union of ``tables``, which are
        left untouched: the keys' union, every column summed per key in
        table order.  Built from flow-disjoint sub-streams, the union equals
        the accumulator a single instance over the whole stream would hold
        — what the keyed queries' ``merge_partials`` rely on."""
        merged = cls(tables[0].column_names)
        for table in tables:
            if table.column_names != merged.column_names:
                raise ValueError("cannot merge accumulators with different "
                                 f"columns ({merged.column_names} vs "
                                 f"{table.column_names})")
        merged._keys = sorted_unique(
            np.concatenate([table._keys for table in tables]))
        merged._columns = {name: np.zeros(merged._keys.size)
                           for name in merged.column_names}
        for table in tables:
            positions = np.searchsorted(merged._keys, table._keys)
            for name, column in merged._columns.items():
                column[positions] += table._columns[name]
        return merged

    def reset(self) -> None:
        self._keys = np.empty(0, dtype=np.uint64)
        for name in self.column_names:
            self._columns[name] = np.empty(0, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KeyedAccumulator(keys={len(self)}, "
                f"columns={list(self.column_names)})")


class DistinctFanout:
    """Distinct ``(key, item)`` pairs with per-key fan-out counts.

    The super-spreader state shape: for every key (e.g. a source address)
    the *distinct* items (e.g. destination addresses) seen with it.  Pairs
    are stored once in a sorted ``uint64`` pair-key array with the owning
    key alongside, so per-batch deduplication is a pure array operation.
    Shards hand over their :attr:`pairs`, whose union is exact, unlike
    folding pre-aggregated counts.

    The caller provides an injective pair key (:meth:`pair_u32` covers the
    common 32-bit address pair).
    """

    __slots__ = ("_pairs", "_owners")

    def __init__(self) -> None:
        self._pairs = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.uint64)

    @staticmethod
    def pair_u32(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Injective ``uint64`` pair key for two 32-bit-ranged columns."""
        return ((np.asarray(keys, dtype=np.uint64) << np.uint64(32)) |
                (np.asarray(items, dtype=np.uint64) & np.uint64(0xFFFFFFFF)))

    @staticmethod
    def key_u32(pair_keys: np.ndarray) -> np.ndarray:
        """The key column of :meth:`pair_u32` pair keys."""
        return pair_keys >> np.uint64(32)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct pairs recorded so far."""
        return int(self._pairs.size)

    @property
    def pairs(self) -> np.ndarray:
        """The sorted distinct pair keys (replaced, never written, by
        :meth:`observe` and :meth:`reset`)."""
        return self._pairs

    def observe(self, pair_keys: np.ndarray, owner_keys: np.ndarray) -> int:
        """Record one batch of per-packet pairs; returns the new-pair count."""
        pair_keys = np.asarray(pair_keys, dtype=np.uint64)
        owner_keys = np.asarray(owner_keys, dtype=np.uint64)
        if pair_keys.size == 0:
            return 0
        unique_pairs, first = sorted_unique(pair_keys, return_index=True)
        unique_owners = owner_keys[first]
        positions, known = locate_sorted(self._pairs, unique_pairs)
        new = ~known
        n_new = int(new.sum())
        if n_new:
            self._pairs = np.insert(self._pairs, positions[new],
                                    unique_pairs[new])
            self._owners = np.insert(self._owners, positions[new],
                                     unique_owners[new])
        return n_new

    def reset(self) -> None:
        self._pairs = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.uint64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistinctFanout(pairs={len(self)})"


# ----------------------------------------------------------------------
# Batched payload scanning
# ----------------------------------------------------------------------
def separator_byte(patterns: Sequence[bytes]) -> Optional[int]:
    """A byte value absent from every pattern (None when all 256 occur)."""
    used = set()
    for pattern in patterns:
        used.update(pattern)
    for value in range(256):
        if value not in used:
            return value
    return None


def payload_lengths(payloads: Sequence[bytes]) -> np.ndarray:
    """Per-payload byte lengths (the ``regex_byte`` charge quantity)."""
    return np.fromiter(map(len, payloads), dtype=np.int64,
                       count=len(payloads))


def join_payloads(payloads: Sequence[bytes], separator: int,
                  lengths: Optional[np.ndarray] = None
                  ) -> Tuple[bytes, np.ndarray]:
    """Join payloads with a separator byte; returns ``(haystack, starts)``.

    ``starts[i]`` is the offset of payload ``i`` inside the haystack.  A
    pattern free of the separator byte can never match across a payload
    boundary, which is what makes one C-level search over the joined
    buffer equivalent to a per-payload scan.
    """
    if lengths is None:
        lengths = payload_lengths(payloads)
    haystack = bytes([separator]).join(payloads)
    starts = np.zeros(len(payloads), dtype=np.int64)
    if len(payloads) > 1:
        np.cumsum(lengths[:-1] + 1, out=starts[1:])
    return haystack, starts


def payload_hits(payloads: Sequence[bytes], patterns: Sequence[bytes],
                 lengths: Optional[np.ndarray] = None,
                 joined: Optional[Tuple[bytes, np.ndarray]] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Which payloads contain at least one of the byte patterns.

    Returns ``(hit, lengths)``: a boolean array marking the payloads where
    any pattern occurs, and the payload lengths (the quantity the queries
    charge ``regex_byte`` cycles for).

    The payloads are joined with a separator byte that occurs in no
    pattern (see :func:`join_payloads`), so a single C-level
    ``bytes.find`` sweep per pattern replaces a per-payload Python loop.
    ``lengths`` and ``joined`` accept precomputed values — batches memoise
    both, so repeated scans of one batch (several payload queries, the
    calibration/reference/evaluated passes of one experiment) share the
    representation work.  In the degenerate case where the patterns
    jointly use all 256 byte values the implementation falls back to the
    per-payload loop.
    """
    n = len(payloads)
    if lengths is None:
        lengths = payload_lengths(payloads)
    hit = np.zeros(n, dtype=bool)
    if n == 0 or not patterns:
        return hit, lengths
    separator = separator_byte(patterns)
    if separator is None:  # pragma: no cover - needs >=256-byte alphabets
        for index, payload in enumerate(payloads):
            hit[index] = any(payload.find(pattern) >= 0
                             for pattern in patterns)
        return hit, lengths
    if joined is None:
        joined = join_payloads(payloads, separator, lengths)
    haystack, starts = joined
    for pattern in patterns:
        # Collect every (non-overlapping) occurrence first, then map all of
        # them onto payload indices in one vectorised searchsorted.
        positions = []
        step = max(1, len(pattern))
        position = haystack.find(pattern)
        while position != -1:
            positions.append(position)
            position = haystack.find(pattern, position + step)
        if positions:
            index = np.searchsorted(starts,
                                    np.asarray(positions, dtype=np.int64),
                                    side="right") - 1
            hit[index] = True
    return hit, lengths


__all__ = [
    "DistinctFanout",
    "KeyedAccumulator",
    "join_payloads",
    "payload_hits",
    "payload_lengths",
    "separator_byte",
]
