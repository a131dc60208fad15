"""Packet and batch data model.

The monitoring system processes the input packet stream in *batches*: groups
of packets that arrived during a fixed ``time_bin`` (100 ms in the paper).
A :class:`Batch` is a column store backed by NumPy arrays so that feature
extraction, sampling and most query computations can be vectorised, while a
per-packet view (:class:`Packet`) is still available for queries written in a
packet-at-a-time style (e.g. pattern search over payloads).

Column layout
-------------
``ts``        float64   packet timestamp (seconds)
``src_ip``    uint32    source IPv4 address
``dst_ip``    uint32    destination IPv4 address
``src_port``  uint16    source transport port
``dst_port``  uint16    destination transport port
``proto``     uint8     IP protocol number (6 = TCP, 17 = UDP, ...)
``size``      uint32    packet size on the wire in bytes
``payload``   optional list of ``bytes`` (only present in full-payload traces)
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import aggregate
from ..core.distinct import sorted_unique
from ..core.hashing import combine_columns

#: IP protocol numbers used throughout the code base.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

#: Names of the integer header columns stored in a batch, in canonical order.
HEADER_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")

#: All per-packet columns of a batch, in canonical order (the column set a
#: trace store persists).
COLUMN_FIELDS = ("ts",) + HEADER_FIELDS + ("size",)

#: Dtype of every persisted column — the one layout shared by the batch
#: constructor, the trace store and the shard workers' batch transport.
COLUMN_DTYPES: Dict[str, np.dtype] = {
    "ts": np.dtype(np.float64),
    "src_ip": np.dtype(np.uint32),
    "dst_ip": np.dtype(np.uint32),
    "src_port": np.dtype(np.uint16),
    "dst_port": np.dtype(np.uint16),
    "proto": np.dtype(np.uint8),
    "size": np.dtype(np.uint32),
}


def column_layout(n: int) -> Tuple[List[Tuple[str, np.dtype, int]], int]:
    """Byte layout of an ``n``-packet columnar block.

    Returns ``(columns, total_nbytes)`` where ``columns`` lists
    ``(name, dtype, byte_offset)`` in canonical :data:`COLUMN_FIELDS` order.
    Each column is stored contiguously and starts at an 8-byte-aligned
    offset, so any buffer-protocol object of ``total_nbytes`` bytes (an
    mmap, a plain bytearray) can hold one batch's columns with aligned
    zero-copy NumPy views over them.
    This is the wire format of the shard-worker batch transport
    (:mod:`repro.monitor.workers`).
    """
    n = int(n)
    offset = 0
    columns: List[Tuple[str, np.dtype, int]] = []
    for name in COLUMN_FIELDS:
        dtype = COLUMN_DTYPES[name]
        columns.append((name, dtype, offset))
        offset += (n * dtype.itemsize + 7) & ~7
    return columns, offset


@dataclass(frozen=True)
class Packet:
    """A single packet, materialised from a :class:`Batch` row.

    This is a convenience view for per-packet query code; the authoritative
    storage is the column arrays of the owning batch.
    """

    ts: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    size: int
    payload: Optional[bytes] = None


class Batch:
    """A set of packets collected during one time bin.

    Parameters
    ----------
    ts, src_ip, dst_ip, src_port, dst_port, proto, size:
        Equal-length 1-D arrays (or sequences) with per-packet values.
    payloads:
        Optional list of ``bytes`` objects, one per packet.  ``None`` for
        header-only traces.
    time_bin:
        Duration in seconds of the bin this batch covers.
    start_ts:
        Timestamp of the start of the bin.  Defaults to the first packet
        timestamp (or 0.0 for an empty batch).
    """

    __slots__ = (
        "ts",
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "proto",
        "size",
        "payloads",
        "time_bin",
        "start_ts",
        "_agg_cache",
        "_filter_cache",
        "_parent",
        "_parent_index",
        "__weakref__",
    )

    def __init__(
        self,
        ts,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
        size,
        payloads: Optional[List[bytes]] = None,
        time_bin: float = 0.1,
        start_ts: Optional[float] = None,
    ) -> None:
        self.ts = np.asarray(ts, dtype=np.float64)
        self.src_ip = np.asarray(src_ip, dtype=np.uint32)
        self.dst_ip = np.asarray(dst_ip, dtype=np.uint32)
        self.src_port = np.asarray(src_port, dtype=np.uint16)
        self.dst_port = np.asarray(dst_port, dtype=np.uint16)
        self.proto = np.asarray(proto, dtype=np.uint8)
        self.size = np.asarray(size, dtype=np.uint32)
        n = len(self.ts)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port", "proto", "size"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has length "
                                 f"{len(getattr(self, name))}, expected {n}")
        if payloads is not None and len(payloads) != n:
            raise ValueError(f"payloads has length {len(payloads)}, expected {n}")
        self.payloads = payloads
        self.time_bin = float(time_bin)
        if start_ts is None:
            start_ts = float(self.ts[0]) if n else 0.0
        self.start_ts = float(start_ts)
        self._agg_cache: Optional[Dict[tuple, object]] = None
        #: Filter results by cache key; ``None`` stands for "this batch
        #: itself" (every packet matched), so no entry refers back to it.
        self._filter_cache: Optional[Dict[str, Optional["Batch"]]] = None
        # Set by ``select``: hashes of a sub-batch are the parent's hashes at
        # the selected rows, so they can be sliced instead of recomputed.
        # The link is weak: the parent memoises its sub-batches (filter
        # results, partitions), and a strong link back would make every bin
        # a reference cycle that only the cyclic collector can free.
        self._parent: Optional["weakref.ref[Batch]"] = None
        self._parent_index: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Columns, payloads and memos; never the batch it was selected from.

        Whatever the parent link provides is row-wise, so the copy rebuilds
        it from its own columns.
        """
        return {name: getattr(self, name) for name in self.__slots__
                if name not in ("_parent", "_parent_index", "__weakref__")}

    def __setstate__(self, state) -> None:
        self._parent = None
        self._parent_index = None
        for name, value in state.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(len(self.ts))

    def __iter__(self) -> Iterator[Packet]:
        return self.packets()

    def packets(self) -> Iterator[Packet]:
        """Iterate over the batch as :class:`Packet` objects."""
        payloads = self.payloads
        for i in range(len(self)):
            yield Packet(
                ts=float(self.ts[i]),
                src_ip=int(self.src_ip[i]),
                dst_ip=int(self.dst_ip[i]),
                src_port=int(self.src_port[i]),
                dst_port=int(self.dst_port[i]),
                proto=int(self.proto[i]),
                size=int(self.size[i]),
                payload=payloads[i] if payloads is not None else None,
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def byte_count(self) -> int:
        """Total bytes (wire sizes) in the batch."""
        return int(self.size.sum()) if len(self) else 0

    @property
    def has_payloads(self) -> bool:
        return self.payloads is not None

    def flow_keys(self) -> np.ndarray:
        """Return a structured array of the per-packet 5-tuples."""
        keys = np.empty(
            len(self),
            dtype=[
                ("src_ip", np.uint32),
                ("dst_ip", np.uint32),
                ("src_port", np.uint16),
                ("dst_port", np.uint16),
                ("proto", np.uint8),
            ],
        )
        keys["src_ip"] = self.src_ip
        keys["dst_ip"] = self.dst_ip
        keys["src_port"] = self.src_port
        keys["dst_port"] = self.dst_port
        keys["proto"] = self.proto
        return keys

    def columns(self, names: Sequence[str]) -> List[np.ndarray]:
        """Return the header columns named in ``names``."""
        return [getattr(self, name) for name in names]

    # ------------------------------------------------------------------
    # Buffer-protocol column export (the shard workers' batch transport)
    # ------------------------------------------------------------------
    def buffer_nbytes(self) -> int:
        """Bytes a buffer must hold to :meth:`pack_into` this batch."""
        return column_layout(len(self))[1]

    def pack_into(self, buffer) -> int:
        """Write the packet columns into ``buffer`` (any writable
        buffer-protocol object) using the :func:`column_layout` wire format.

        Payloads are *not* packed — they are variable-length Python objects
        and travel out of band.  Returns the number of bytes used, so a
        caller can reuse one oversized buffer across batches of different
        sizes, as the shard worker pool does with its slots.  The written
        block round-trips bit-identically through :meth:`from_buffer`.
        """
        n = len(self)
        layout, total = column_layout(n)
        view = memoryview(buffer)
        if view.nbytes < total:
            raise ValueError(f"buffer holds {view.nbytes} bytes; packing "
                             f"{n} packets needs {total}")
        for name, dtype, offset in layout:
            dst = np.frombuffer(view, dtype=dtype, count=n, offset=offset)
            np.copyto(dst, getattr(self, name), casting="no")
        return total

    @classmethod
    def from_buffer(cls, buffer, n: int, time_bin: float = 0.1,
                    start_ts: Optional[float] = None,
                    payloads: Optional[List[bytes]] = None,
                    copy: bool = False) -> "Batch":
        """Rebuild a batch from a :meth:`pack_into` columnar block.

        With ``copy=False`` the batch's columns are zero-copy views into
        ``buffer`` — the caller must keep the buffer alive and unmodified
        for the batch's lifetime.  ``copy=True`` materialises the columns
        (one contiguous memcpy per column), which is what a shard worker
        does with its read-only mapping of a slot before handing the batch
        to query code: the sender is then free to overwrite, or grow, the
        slot for the next bin.
        """
        n = int(n)
        layout, _ = column_layout(n)
        view = memoryview(buffer)
        columns = {}
        for name, dtype, offset in layout:
            arr = np.frombuffer(view, dtype=dtype, count=n, offset=offset)
            columns[name] = arr.copy() if copy else arr
        return cls(payloads=payloads, time_bin=time_bin, start_ts=start_ts,
                   **columns)

    def memo(self, key: tuple, build):
        """Per-batch memo for immutable derived values.

        Batches are treated as immutable once constructed, so any value
        derived purely from the packet columns (aggregate hashes, distinct
        counters, filter results) can be computed once and shared by every
        consumer.  ``key`` must identify the derivation unambiguously; a
        value that depends on more than the packets carries the rest in
        its key and is dropped (:meth:`forget`) once that is stale.
        """
        if self._agg_cache is None:
            self._agg_cache = {}
        value = self._agg_cache.get(key)
        if value is None:
            value = build()
            self._agg_cache[key] = value
        return value

    def forget(self, key: tuple) -> None:
        """Drop one memoised value, if present."""
        if self._agg_cache is not None:
            self._agg_cache.pop(key, None)

    def _selected_from(self) -> Optional["Batch"]:
        """The batch this one was selected from, while that is still alive."""
        if self._parent is None:
            return None
        parent = self._parent()
        if parent is None:
            self._parent = self._parent_index = None
        return parent

    def aggregate_hashes(self, columns: Sequence[str]) -> np.ndarray:
        """Memoised :func:`~repro.core.hashing.combine_columns` over columns.

        Every feature extractor (one per query) and the flowwise samplers
        hash the same header aggregates of the same batch; the combined
        64-bit keys are computed once and shared by all consumers.  For a
        batch produced by :meth:`select`, the hashes are row-wise, so they
        are sliced from the parent batch instead of recomputed (recomputed
        after all, to the same values, once the parent is gone).
        """
        key = ("hash", tuple(columns))

        def build() -> np.ndarray:
            parent = self._selected_from()
            if parent is not None:
                return parent.aggregate_hashes(columns)[self._parent_index]
            return combine_columns(self.columns(tuple(columns)))

        return self.memo(key, build)

    def unique_aggregate_hashes(self, columns: Sequence[str],
                                return_inverse: bool = False):
        """Memoised sorted unique values of :meth:`aggregate_hashes`.

        Several queries (the flow table, the P2P detector's seen-flow set)
        and the feature extractors all reduce the same batch to its unique
        flow keys; the reduction is computed once per batch and shared.
        With ``return_inverse`` the memoised ``(unique, inverse)`` pair is
        returned, so per-unique-key results can be broadcast back to
        packets without a second pass.
        """
        key = ("unique_hash", tuple(columns))
        pair = self.memo(
            key, lambda: sorted_unique(self.aggregate_hashes(columns),
                                       return_inverse=True))
        return pair if return_inverse else pair[0]

    def unique_values(self, column: str):
        """Memoised sorted ``(unique values, inverse)`` pair of a column.

        The destination-keyed queries (top-k, autofocus) aggregate the
        same batch by the same column; the reduction is shared.
        """
        return self.memo(
            ("unique_column", column),
            lambda: sorted_unique(getattr(self, column),
                                  return_inverse=True))

    # ------------------------------------------------------------------
    # Memoised payload derivations (batched signature scanning)
    # ------------------------------------------------------------------
    def payload_lengths(self) -> np.ndarray:
        """Memoised per-payload byte lengths (requires payloads).

        For a batch produced by :meth:`select` the lengths are sliced from
        the parent batch, mirroring :meth:`aggregate_hashes`.
        """
        def build() -> np.ndarray:
            parent = self._selected_from()
            if parent is not None:
                return parent.payload_lengths()[self._parent_index]
            return aggregate.payload_lengths(self.payloads)

        return self.memo(("payload_lengths",), build)

    def joined_payloads(self, separator: int):
        """Memoised :func:`repro.core.aggregate.join_payloads` buffer.

        Payload queries searching for separator-free patterns (the P2P
        handshake signatures, the pattern-search signature) share one
        joined haystack per batch instead of re-concatenating payloads for
        every query and every execution pass.
        """
        return self.memo(
            ("payload_join", int(separator)),
            lambda: aggregate.join_payloads(self.payloads, int(separator),
                                            self.payload_lengths()))

    def payload_hits(self, patterns) -> np.ndarray:
        """Payloads containing at least one of ``patterns`` (boolean mask).

        Thin batch-aware wrapper over
        :func:`repro.core.aggregate.payload_hits` feeding it the memoised
        lengths and joined-haystack representations.
        """
        patterns = tuple(patterns)
        separator = aggregate.separator_byte(patterns)
        joined = self.joined_payloads(separator) \
            if separator is not None and len(self) else None
        hit, _ = aggregate.payload_hits(self.payloads, patterns,
                                        lengths=self.payload_lengths(),
                                        joined=joined)
        return hit

    # ------------------------------------------------------------------
    # Shared filter results
    # ------------------------------------------------------------------
    def cached_filter(self, cache_key: str) -> Optional["Batch"]:
        """Look up a previously stored filter result by semantic cache key."""
        if self._filter_cache is None or cache_key not in self._filter_cache:
            return None
        cached = self._filter_cache[cache_key]
        return self if cached is None else cached

    def store_filter(self, cache_key: str, sub_batch: "Batch") -> None:
        """Store a filter result so other queries (and modes) can reuse it.

        ``cache_key`` must uniquely identify the predicate's semantics (see
        :class:`~repro.monitor.filters.Filter`); only filters that carry a
        key are ever shared.
        """
        if self._filter_cache is None:
            self._filter_cache = {}
        self._filter_cache[cache_key] = \
            None if sub_batch is self else sub_batch

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def select(self, mask_or_index) -> "Batch":
        """Return a new batch with the packets selected by a mask or index.

        Used both by stateless filters and by the sampling load shedders.
        """
        idx = np.asarray(mask_or_index)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        payloads = None
        if self.payloads is not None:
            payloads = [self.payloads[i] for i in idx]
        sub = Batch(
            ts=self.ts[idx],
            src_ip=self.src_ip[idx],
            dst_ip=self.dst_ip[idx],
            src_port=self.src_port[idx],
            dst_port=self.dst_port[idx],
            proto=self.proto[idx],
            size=self.size[idx],
            payloads=payloads,
            time_bin=self.time_bin,
            start_ts=self.start_ts,
        )
        sub._parent = weakref.ref(self)
        sub._parent_index = idx
        return sub

    def partition(self, num_shards: int,
                  fields: Sequence[str] = HEADER_FIELDS, *,
                  partition_key: Optional[object] = None,
                  assignments: Optional[np.ndarray] = None) -> List["Batch"]:
        """Split the batch into ``num_shards`` sub-batches by flow hash.

        Every packet is assigned ``combine_columns(fields) % num_shards``,
        so all packets sharing the given header aggregate (by default the
        full 5-tuple, i.e. a flow) land on the same shard — the invariant
        flow-state queries and flowwise sampling rely on when a stream is
        processed by sharded workers.  Packets keep their chronological
        order inside each shard, and every sub-batch keeps the parent's
        ``start_ts``/``time_bin`` so shards observe the same bin timeline
        (a shard with no packets gets an empty batch, not a missing bin).

        The split is memoised per ``(num_shards, fields, partition_key)``:
        repeated executions over a memoised trace partition each batch only
        once.  A caller with its own assignment rule (the fleet-level
        partitioner splitting by ingress link, source prefix or weighted
        flow hash) passes per-packet ``assignments`` in ``[0, num_shards)``
        plus a hashable ``partition_key`` identifying the rule, so its
        splits get their own cache entries and never collide with — or
        evict — the shard-level flow-hash splits of the same batch.
        """
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if assignments is not None and partition_key is None:
            raise ValueError(
                "custom assignments require an explicit partition_key= "
                "identifying the assignment rule for the memo cache")
        if num_shards == 1:
            return [self]
        fields = tuple(fields)

        def build() -> List["Batch"]:
            if len(self) == 0:
                return [self.select(np.empty(0, dtype=np.intp))
                        for _ in range(num_shards)]
            if assignments is not None:
                shards = np.asarray(assignments).astype(np.intp)
                if len(shards) != len(self):
                    raise ValueError(
                        f"assignments cover {len(shards)} packets, "
                        f"batch has {len(self)}")
            else:
                shards = (self.aggregate_hashes(fields) %
                          np.uint64(num_shards)).astype(np.intp)
            # One stable sort groups the packets per shard while preserving
            # arrival order inside each group.
            order = np.argsort(shards, kind="stable")
            bounds = np.searchsorted(shards[order], np.arange(num_shards + 1))
            return [self.select(order[bounds[s]:bounds[s + 1]])
                    for s in range(num_shards)]

        return self.memo(("partition", num_shards, fields, partition_key),
                         build)

    @classmethod
    def empty(cls, time_bin: float = 0.1, start_ts: float = 0.0,
              with_payloads: bool = False) -> "Batch":
        """Return a batch with no packets."""
        return cls(
            ts=np.empty(0),
            src_ip=np.empty(0, dtype=np.uint32),
            dst_ip=np.empty(0, dtype=np.uint32),
            src_port=np.empty(0, dtype=np.uint16),
            dst_port=np.empty(0, dtype=np.uint16),
            proto=np.empty(0, dtype=np.uint8),
            size=np.empty(0, dtype=np.uint32),
            payloads=[] if with_payloads else None,
            time_bin=time_bin,
            start_ts=start_ts,
        )

    @classmethod
    def concatenate(cls, batches: Sequence["Batch"]) -> "Batch":
        """Concatenate several batches into one (used by trace assembly)."""
        if not batches:
            return cls.empty()
        payloads: Optional[List[bytes]] = None
        if all(b.payloads is not None for b in batches):
            payloads = []
            for b in batches:
                payloads.extend(b.payloads)  # type: ignore[arg-type]
        return cls(
            ts=np.concatenate([b.ts for b in batches]),
            src_ip=np.concatenate([b.src_ip for b in batches]),
            dst_ip=np.concatenate([b.dst_ip for b in batches]),
            src_port=np.concatenate([b.src_port for b in batches]),
            dst_port=np.concatenate([b.dst_port for b in batches]),
            proto=np.concatenate([b.proto for b in batches]),
            size=np.concatenate([b.size for b in batches]),
            payloads=payloads,
            time_bin=batches[0].time_bin,
            start_ts=batches[0].start_ts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Batch(packets={len(self)}, bytes={self.byte_count}, "
                f"start_ts={self.start_ts:.3f}, time_bin={self.time_bin})")


class BinGrid:
    """The time bins a packet stream is cut into.

    The one home of that arithmetic: in-memory traces, stores, their
    writer and every feed cut their bins here, so their bins agree by
    construction.  Edge ``i`` is ``first_ts + time_bin * i`` in float64,
    and bin ``i`` holds the packets with ``edge(i) <= ts < edge(i + 1)``.
    A stream's bins run through the bin that holds its last timestamp
    (:meth:`count`), and a live source's bin is complete once its upper
    edge is at or below the newest timestamp seen (:meth:`complete`).
    """

    __slots__ = ("first_ts", "time_bin")

    def __init__(self, first_ts: float, time_bin: float) -> None:
        self.first_ts = float(first_ts)
        self.time_bin = float(time_bin)

    def edge(self, index: int) -> float:
        """Where bin ``index`` starts."""
        return self.first_ts + self.time_bin * index

    def count(self, last_ts: float) -> int:
        """Bins of a stream whose last timestamp is ``last_ts``: the number
        of edges at or below it."""
        # The quotient is off by one where an edge rounds across last_ts;
        # the edges themselves decide.
        n = int(np.floor((last_ts - self.first_ts) / self.time_bin)) + 1
        while self.edge(n) <= last_ts:
            n += 1
        while n > 0 and self.edge(n - 1) > last_ts:
            n -= 1
        return max(n, 0)

    def complete(self, newest_ts: float) -> int:
        """Bins no packet at or after ``newest_ts`` can enter: those whose
        upper edge is at or below it."""
        return max(self.count(newest_ts) - 1, 0)

    def bounds(self, ts: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Row offsets of edges ``start`` to ``stop - 1`` in sorted ``ts``
        (the same floats :meth:`edge` gives one by one)."""
        return np.searchsorted(
            ts, self.first_ts + self.time_bin * np.arange(start, stop))

    def bin(self, index: int, lo: int, hi: int, rows,
            with_payloads: bool) -> Batch:
        """Bin ``index`` made of rows ``[lo, hi)``.

        ``rows(lo, hi)`` builds the batch of a non-empty range; an empty
        range is an empty batch.  Either way the bin starts at its edge
        and spans the grid's ``time_bin``.
        """
        start_ts = self.edge(index)
        if hi <= lo:
            return Batch.empty(time_bin=self.time_bin, start_ts=start_ts,
                               with_payloads=with_payloads)
        batch = rows(lo, hi)
        batch.time_bin = self.time_bin
        batch.start_ts = start_ts
        return batch

    def cut(self, packets: Batch, start: int, stop: int) -> List[Batch]:
        """Bins ``start`` to ``stop - 1`` of a sorted batch, each the
        :meth:`Batch.select` of its rows (so it slices the batch's memoised
        hashes)."""
        bounds = self.bounds(packets.ts, start, stop + 1)

        def rows(lo: int, hi: int) -> Batch:
            return packets.select(np.arange(lo, hi))

        return [self.bin(index, int(bounds[i]), int(bounds[i + 1]), rows,
                         packets.has_payloads)
                for i, index in enumerate(range(start, stop))]

    @classmethod
    def spanning(cls, ts, time_bin: float) -> Tuple["BinGrid", int]:
        """The grid anchored at sorted ``ts``'s first timestamp, and its
        number of bins through the last (none for no ``ts``)."""
        if len(ts) == 0:
            return cls(0.0, time_bin), 0
        grid = cls(ts[0], time_bin)
        return grid, grid.count(float(ts[-1]))


class PacketTrace:
    """A full packet trace: one large :class:`Batch` plus batching helpers.

    A trace is stored as a single column store ordered by timestamp; the
    :meth:`batches` method slices it into fixed ``time_bin`` batches, which is
    how the capture process of the monitoring system consumes it.
    """

    def __init__(self, packets: Batch, name: str = "trace") -> None:
        self.packets = packets
        self.name = name
        self._batch_cache: Dict[float, List[Batch]] = {}

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def duration(self) -> float:
        """Trace duration in seconds (last timestamp minus first)."""
        if len(self.packets) == 0:
            return 0.0
        return float(self.packets.ts[-1] - self.packets.ts[0])

    def batches(self, time_bin: float = 0.1) -> Iterator[Batch]:
        """Yield consecutive batches of ``time_bin`` seconds.

        Empty bins are yielded as empty batches so that the consumer observes
        a continuous timeline, exactly as a live capture process would.
        """
        return iter(self.batch_list(time_bin))

    def batch_list(self, time_bin: float = 0.1) -> List[Batch]:
        """The trace cut on its :class:`BinGrid`, computed once.

        Slicing a multi-second trace copies every column array; executions in
        different modes (a calibration and then one run per mode, as every
        experiment performs) consume identical batches, so the slices
        are memoised per ``time_bin``.  Traces are treated as immutable once
        built; mutate ``self.packets`` and the cache goes stale.
        """
        time_bin = float(time_bin)
        cached = self._batch_cache.get(time_bin)
        if cached is not None:
            return cached
        grid, n_bins = BinGrid.spanning(self.packets.ts, time_bin)
        batches = grid.cut(self.packets, 0, n_bins)
        self._batch_cache[time_bin] = batches
        return batches

    def num_batches(self, time_bin: float = 0.1) -> int:
        """Number of batches :meth:`batches` will yield."""
        return BinGrid.spanning(self.packets.ts, time_bin)[1]


class StreamingTrace:
    """An out-of-core trace: per-bin batches read from a backing store.

    Exposes the same consumption protocol as :class:`PacketTrace`
    (``batches()`` / ``batch_list()`` / ``num_batches()`` / ``name`` /
    ``duration``) but never holds more than the bin being built: each bin
    is one ``store.read_rows(lo, hi)`` for its header columns and one
    ``store.payloads_slice(lo, hi)`` for its payloads (``None`` on
    header-only stores).  The arrays and ``bytes`` objects that come back
    belong to the bin — read-only, as batches are immutable — and are freed
    with it, and nothing of the store is cached here: a sequential scan
    gains nothing from a cache of its own, and the kernel's page cache and
    read-ahead already serve the file.  The process's resident set
    therefore does not grow with the length of the store.

    ``store`` is any object implementing the store protocol of
    :class:`repro.traffic.trace_io.TraceStore`: attributes ``name``,
    ``num_packets`` and ``has_payloads``, ``read_rows(lo, hi)`` and
    ``payloads_slice(lo, hi)`` as above, ``column(name)`` returning a whole
    column (used for the first and last timestamp, and searched for the
    bin edges when ``bin_bounds`` has none), ``bin_bounds(time_bin)``
    returning pre-indexed bin-edge offsets or ``None``, and ``close()``.

    Replaying a store through this class is bit-identical to loading the
    same packets in memory and running ``PacketTrace``: both cut their bins
    on the same :class:`BinGrid`, and the column dtypes are the same
    (``tests/test_trace_store.py`` pins it across all four operating
    modes).
    """

    def __init__(self, store) -> None:
        self.store = store
        self.name = store.name
        self._layouts: Dict[float, tuple] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.store.num_packets)

    @property
    def duration(self) -> float:
        """Trace duration in seconds (last timestamp minus first)."""
        if len(self) == 0:
            return 0.0
        ts = self.store.column("ts")
        return float(ts[-1] - ts[0])

    def close(self) -> None:
        """Close the store's file descriptors (they reopen on demand).

        For consumers that abandon iteration mid-trace (a daemon rotating
        to a newer segment, an erroring replay).  Idempotent, and the trace
        stays readable.
        """
        self.store.close()

    def __enter__(self) -> "StreamingTrace":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Bin layout
    # ------------------------------------------------------------------
    def _bin_layout(self, time_bin: float) -> tuple:
        """``(grid, bounds)`` for the store's bins at ``time_bin``.

        The store's persisted bin index is used when it matches
        ``time_bin`` and the grid's bin count; otherwise (another
        ``time_bin``, or an index written by an older count) the edges are
        searched on the memory-mapped column, which touches
        O(n_bins · log n) pages, not the whole trace.
        """
        time_bin = float(time_bin)
        layout = self._layouts.get(time_bin)
        if layout is not None:
            return layout
        ts = self.store.column("ts")
        grid, n_bins = BinGrid.spanning(ts, time_bin)
        bounds = self.store.bin_bounds(time_bin)
        if bounds is None or len(bounds) != n_bins + 1:
            bounds = grid.bounds(ts, 0, n_bins + 1)
        layout = (grid, np.asarray(bounds, dtype=np.int64))
        self._layouts[time_bin] = layout
        return layout

    def _rows(self, lo: int, hi: int) -> Batch:
        return Batch(payloads=self.store.payloads_slice(lo, hi),
                     **self.store.read_rows(lo, hi))

    # ------------------------------------------------------------------
    # The PacketTrace consumption protocol
    # ------------------------------------------------------------------
    def num_batches(self, time_bin: float = 0.1) -> int:
        """Number of batches :meth:`batches` will yield."""
        return len(self.batch_list(time_bin))

    def batch_list(self, time_bin: float = 0.1) -> "Sequence[Batch]":
        """The trace's bins as a lazy sequence.

        Unlike :meth:`PacketTrace.batch_list` the returned sequence holds
        no batches: each index access reads its batch from the store, so
        iterating it streams the store instead of materialising it.
        Repeated accesses rebuild equal batches (no memoisation — a memo
        would defeat the bounded-memory point).
        """
        return _StreamingBatchList(self, float(time_bin))

    def batches(self, time_bin: float = 0.1) -> Iterator[Batch]:
        """Yield consecutive ``time_bin`` batches, empty bins included."""
        return iter(self.batch_list(time_bin))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingTrace(name={self.name!r}, packets={len(self)})"


class _StreamingBatchList(Sequence):
    """Lazy bin sequence of a :class:`StreamingTrace` (no batch storage)."""

    def __init__(self, trace: StreamingTrace, time_bin: float) -> None:
        self.trace = trace
        self._grid, self._bounds = None, np.zeros(1, dtype=np.int64)
        if len(trace) > 0:
            self._grid, self._bounds = trace._bin_layout(time_bin)
        self._n_bins = len(self._bounds) - 1

    def __len__(self) -> int:
        return self._n_bins

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n_bins))]
        index = int(index)
        if index < 0:
            index += self._n_bins
        if not 0 <= index < self._n_bins:
            raise IndexError("bin index out of range")
        return self._grid.bin(index, int(self._bounds[index]),
                              int(self._bounds[index + 1]), self.trace._rows,
                              self.trace.store.has_payloads)


def as_trace(source):
    """Coerce a trace-like source to one exposing the batch protocol.

    Accepts a :class:`PacketTrace`, a :class:`StreamingTrace` (returned
    unchanged) or a trace store (anything with a ``streaming()`` factory,
    e.g. :class:`repro.traffic.trace_io.TraceStore`), which is wrapped in
    its default streaming view.
    """
    if hasattr(source, "batches"):
        return source
    if hasattr(source, "streaming"):
        return source.streaming()
    raise TypeError(
        f"expected a PacketTrace, StreamingTrace or trace store, got "
        f"{type(source).__name__}")


def ip(a: int, b: int, c: int, d: int) -> int:
    """Build an integer IPv4 address from dotted-quad components."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError("IPv4 octets must be in [0, 255]")
    return (a << 24) | (b << 16) | (c << 8) | d


def format_ip(addr: int) -> str:
    """Render an integer IPv4 address in dotted-quad notation."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))
