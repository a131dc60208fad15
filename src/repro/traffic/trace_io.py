"""Saving and loading packet traces.

Two on-disk formats are supported:

**v1** — a NumPy ``.npz`` archive holding the column arrays plus optional
payloads.  Self-contained single-file traces; loading materialises every
column in memory.  :func:`save_trace` / :func:`load_trace` read and write
this format exactly as they always have.

**v2** — a *trace store*: a directory with one raw ``.npy`` file per column
plus a JSON manifest carrying a bin index.  Columns are written append-mode
by :class:`TraceWriter` (so multi-GB workloads can be synthesised
chunk-at-a-time without ever holding the trace in memory) and replayed by
:class:`~repro.monitor.packet.StreamingTrace` one bin at a time, each bin
*read* from its row range of the column files, so a store far larger than
RAM replays in the memory of one bin.

:func:`open_trace` dispatches on the path: a store directory opens as a
:class:`TraceStore`, anything else loads as a v1 archive.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..monitor.packet import Batch, BinGrid, PacketTrace, StreamingTrace

_FORMAT_VERSION = 1

#: Version tag of the v2 trace-store format.
STORE_VERSION = 2

#: Manifest file name marking a directory as a v2 trace store.
MANIFEST_NAME = "manifest.json"

#: Canonical column order and on-disk dtypes of a v2 store.  These mirror
#: the dtypes :class:`~repro.monitor.packet.Batch` coerces to, so a stored
#: column round-trips bit for bit.
STORE_COLUMNS = (
    ("ts", np.float64),
    ("src_ip", np.uint32),
    ("dst_ip", np.uint32),
    ("src_port", np.uint16),
    ("dst_port", np.uint16),
    ("proto", np.uint8),
    ("size", np.uint32),
)


# ----------------------------------------------------------------------
# v1: .npz archives
# ----------------------------------------------------------------------
def _written_npz_path(path: Path) -> Path:
    """The path ``np.savez_compressed`` actually writes.

    NumPy appends ``.npz`` unless the file name already ends with it, so a
    path like ``trace.dat`` is written as ``trace.dat.npz`` — the returned
    path must say so or the caller cannot find its own file.
    """
    if str(path).endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def save_trace(trace: PacketTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (an ``.npz`` archive).

    Returns the path of the file actually written (NumPy appends ``.npz``
    when the given name does not already end with it).
    """
    path = Path(path)
    pkts = trace.packets
    payload = {}
    if pkts.payloads is not None:
        lengths = np.array([len(p) for p in pkts.payloads], dtype=np.int64)
        blob = b"".join(pkts.payloads)
        payload = {
            "payload_lengths": lengths,
            "payload_blob": np.frombuffer(blob, dtype=np.uint8),
        }
    meta = json.dumps({"name": trace.name, "version": _FORMAT_VERSION})
    np.savez_compressed(
        path,
        ts=pkts.ts,
        src_ip=pkts.src_ip,
        dst_ip=pkts.dst_ip,
        src_port=pkts.src_port,
        dst_port=pkts.dst_port,
        proto=pkts.proto,
        size=pkts.size,
        meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        **payload,
    )
    return _written_npz_path(path)


def load_trace(path: Union[str, Path]) -> PacketTrace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        payloads: Optional[list] = None
        if "payload_lengths" in data:
            lengths = data["payload_lengths"]
            blob = bytes(data["payload_blob"])
            payloads = []
            offset = 0
            for length in lengths:
                payloads.append(blob[offset:offset + int(length)])
                offset += int(length)
        packets = Batch(
            ts=data["ts"],
            src_ip=data["src_ip"],
            dst_ip=data["dst_ip"],
            src_port=data["src_port"],
            dst_port=data["dst_port"],
            proto=data["proto"],
            size=data["size"],
            payloads=payloads,
        )
    return PacketTrace(packets, name=meta.get("name", path.stem))


# ----------------------------------------------------------------------
# v2: append-mode column files
# ----------------------------------------------------------------------
#: Reserved byte length of the ``.npy`` header block.  The header is
#: written twice — once with a zero shape when the file is opened, and
#: again with the final count on close — so it must occupy a fixed block.
_NPY_HEADER_LEN = 128


def _npy_header(dtype: np.dtype, count: int) -> bytes:
    """A fixed-length version-1.0 ``.npy`` header for a 1-D array."""
    descr = np.lib.format.dtype_to_descr(np.dtype(dtype))
    head = ("{'descr': %r, 'fortran_order': False, 'shape': (%d,), }"
            % (descr, count)).encode("latin1")
    magic = b"\x93NUMPY\x01\x00"
    length = _NPY_HEADER_LEN - len(magic) - 2
    pad = length - len(head) - 1
    if pad < 0:
        raise ValueError("npy header does not fit its reserved block")
    return magic + struct.pack("<H", length) + head + b" " * pad + b"\n"


class _ColumnWriter:
    """Append raw values to one ``.npy`` column file.

    The header is patched with the final element count on :meth:`close`;
    until then the file carries a zero shape, so a crashed write never
    looks like a complete column.
    """

    def __init__(self, path: Path, dtype) -> None:
        self.path = path
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._fh = open(path, "wb")
        self._fh.write(_npy_header(self.dtype, 0))

    def append(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=self.dtype)
        arr.tofile(self._fh)
        self.count += len(arr)

    def flush(self) -> None:
        """Publish the rows appended so far without closing the file.

        The header is patched with the current count (so a reader opening
        the file now sees a complete array of everything flushed) and the
        write position restored, ready for further appends.
        """
        position = self._fh.tell()
        self._fh.seek(0)
        self._fh.write(_npy_header(self.dtype, self.count))
        self._fh.seek(position)
        self._fh.flush()

    def close(self) -> None:
        self._fh.seek(0)
        self._fh.write(_npy_header(self.dtype, self.count))
        self._fh.close()


class TraceWriter:
    """Append-mode writer of v2 trace stores.

    Chunks (``Batch`` objects or whole ``PacketTrace`` segments) are
    appended in chronological order; only the current chunk is ever held in
    memory, so arbitrarily large workloads can be synthesised piecewise
    (see :func:`repro.traffic.generator.generate_trace_store`).  The writer
    maintains the manifest's bin index incrementally — the packet offset of
    every ``time_bin`` boundary — so replay never has to scan the timestamp
    column to find its bins.

    Use as a context manager or call :meth:`close` explicitly; the manifest
    is only written on close, so an interrupted write never yields a
    readable (half) store.
    """

    def __init__(self, path: Union[str, Path], name: Optional[str] = None,
                 with_payloads: bool = False, time_bin: float = 0.1) -> None:
        self.path = Path(path)
        if self.path.exists() and (self.path / MANIFEST_NAME).exists():
            raise FileExistsError(
                f"{self.path} already contains a trace store; writing into "
                "an existing store is not supported")
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name if name is not None else self.path.name
        self.with_payloads = bool(with_payloads)
        self.time_bin = float(time_bin)
        if self.time_bin <= 0:
            raise ValueError("time_bin must be positive")
        self._columns = {
            column: _ColumnWriter(self.path / f"{column}.npy", dtype)
            for column, dtype in STORE_COLUMNS
        }
        self._payload_writers = {}
        if self.with_payloads:
            self._payload_writers = {
                "payload_lengths": _ColumnWriter(
                    self.path / "payload_lengths.npy", np.int64),
                "payload_offsets": _ColumnWriter(
                    self.path / "payload_offsets.npy", np.int64),
                "payload_blob": _ColumnWriter(
                    self.path / "payload_blob.npy", np.uint8),
            }
            self._payload_writers["payload_offsets"].append([0])
        self._payload_bytes = 0
        #: The bins of the store, anchored at its first packet.
        self._grid: Optional[BinGrid] = None
        self._last_ts: Optional[float] = None
        #: Packet offset of every finalised bin edge; extended as chunks
        #: arrive.
        self._bounds: List[int] = []
        self._store: Optional["TraceStore"] = None

    @property
    def num_packets(self) -> int:
        return self._columns["ts"].count

    def append(self, packets: Union[Batch, PacketTrace]) -> None:
        """Append one chronological chunk of packets to the store."""
        if self._store is not None:
            raise RuntimeError("cannot append to a closed TraceWriter")
        if isinstance(packets, PacketTrace):
            packets = packets.packets
        n = len(packets)
        if n == 0:
            return
        if packets.has_payloads != self.with_payloads:
            raise ValueError(
                f"chunk {'carries' if packets.has_payloads else 'lacks'} "
                f"payloads but the store was opened with "
                f"with_payloads={self.with_payloads}")
        ts = np.asarray(packets.ts, dtype=np.float64)
        if n > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps within a chunk must be sorted")
        if self._last_ts is not None and float(ts[0]) < self._last_ts:
            raise ValueError(
                f"chunks must be appended chronologically: chunk starts at "
                f"{float(ts[0]):.6f} but the store already ends at "
                f"{self._last_ts:.6f}")
        base = self.num_packets
        for column, _ in STORE_COLUMNS:
            self._columns[column].append(getattr(packets, column))
        if self.with_payloads:
            lengths = np.array([len(p) for p in packets.payloads],
                               dtype=np.int64)
            offsets = self._payload_bytes + np.cumsum(lengths)
            self._payload_writers["payload_lengths"].append(lengths)
            self._payload_writers["payload_offsets"].append(offsets)
            self._payload_writers["payload_blob"].append(
                np.frombuffer(b"".join(packets.payloads), dtype=np.uint8))
            self._payload_bytes = int(offsets[-1]) if len(offsets) else \
                self._payload_bytes
        if self._grid is None:
            self._grid = BinGrid(ts[0], self.time_bin)
        self._last_ts = float(ts[-1])
        # An edge is final once a packet at or past it has been seen, and
        # chunks arrive chronologically, so the first such packet of every
        # edge the data now covers is in this chunk: one search of the chunk
        # pins it where a search of the whole column would.
        bounds = base + self._grid.bounds(ts, len(self._bounds),
                                          self._grid.count(self._last_ts))
        self._bounds.extend(int(bound) for bound in bounds)

    def _manifest(self, complete: bool) -> dict:
        count = self.num_packets
        bin_index = None
        if count > 0:
            # Every edge at or below the last packet, then the closing one.
            bin_index = {"time_bin": self.time_bin,
                         "bounds": self._bounds + [count]}
        return {
            "format": "repro-trace-store",
            "version": STORE_VERSION,
            "name": self.name,
            "num_packets": count,
            "columns": {column: np.lib.format.dtype_to_descr(np.dtype(dtype))
                        for column, dtype in STORE_COLUMNS},
            "has_payloads": self.with_payloads,
            "payload_bytes": self._payload_bytes,
            "start_ts": self._grid.first_ts if self._grid else None,
            "end_ts": self._last_ts,
            "bin_index": bin_index,
            "complete": bool(complete),
        }

    def _write_manifest(self, manifest: dict) -> None:
        """Atomic manifest publication: readers see old or new, never half."""
        manifest_path = self.path / MANIFEST_NAME
        tmp_path = self.path / (MANIFEST_NAME + ".tmp")
        tmp_path.write_text(json.dumps(manifest, indent=1))
        tmp_path.replace(manifest_path)

    def flush(self) -> None:
        """Publish everything appended so far while keeping the store open.

        Column headers are patched with the current counts and a manifest
        marked ``"complete": false`` is written atomically, so a concurrent
        reader (e.g. :class:`repro.serve.feeds.TailFeed`) can open the
        growing store and replay the bins written so far; appends continue
        afterwards.  :meth:`close` publishes the final manifest with
        ``"complete": true``.
        """
        if self._store is not None:
            raise RuntimeError("cannot flush a closed TraceWriter")
        if self.num_packets == 0:
            return
        for writer in self._columns.values():
            writer.flush()
        for writer in self._payload_writers.values():
            writer.flush()
        self._write_manifest(self._manifest(complete=False))

    def close(self) -> "TraceStore":
        """Finalise headers, write the manifest and open the store."""
        if self._store is not None:
            return self._store
        for writer in self._columns.values():
            writer.close()
        for writer in self._payload_writers.values():
            writer.close()
        self._write_manifest(self._manifest(complete=True))
        self._store = TraceStore(self.path)
        return self._store

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceWriter(path={str(self.path)!r}, "
                f"packets={self.num_packets})")


class TraceStore:
    """A v2 trace store: a columnar trace on disk, read a row range at a time.

    Constructing a store reads the manifest and nothing else.  Replay
    (:meth:`streaming`) *reads* each bin — :meth:`read_rows` for the seven
    header columns, :meth:`payloads_slice` for the payload bytes — with
    positional reads of exactly that bin's byte ranges on descriptors that
    open on first use.  A bin's arrays are ordinary heap memory owned by
    the bin and freed with it, so the resident set of a replay does not
    grow with the store.  :meth:`column` maps a whole column file instead
    (``np.lib.format.open_memmap``, read-only); every page touched through
    a mapping stays in the resident set, so it is for whole-trace access
    only: :meth:`to_trace` (only sensible for stores that fit in RAM), the
    first and last timestamp, and a bin layout the manifest did not index.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        #: Column files opened by a read: ``(file, data offset, dtype)`` by
        #: column name, the offset being where the ``.npy`` header ends.
        self._files: dict = {}
        self._mmaps: dict = {}
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{self.path} is not a trace store (no {MANIFEST_NAME})")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("version") != STORE_VERSION:
            raise ValueError(
                f"unsupported trace store version "
                f"{manifest.get('version')!r} at {self.path}")
        self.manifest = manifest
        self.name = manifest["name"]
        self.num_packets = int(manifest["num_packets"])
        self.has_payloads = bool(manifest["has_payloads"])
        #: ``False`` while the store is still being written (its writer
        #: published an incremental :meth:`TraceWriter.flush` manifest);
        #: manifests predating the flag are final by construction.
        self.complete = bool(manifest.get("complete", True))

    def __getstate__(self) -> dict:
        """The path and the manifest: no descriptor, no mapped data."""
        state = dict(self.__dict__)
        state["_files"] = {}
        state["_mmaps"] = {}
        return state

    def close(self) -> None:
        """Close every column descriptor (each reopens on demand)."""
        files, self._files = self._files, {}
        for fh, _, _ in files.values():
            fh.close()

    def __del__(self) -> None:
        self.close()

    def __len__(self) -> int:
        return self.num_packets

    def column(self, name: str) -> np.ndarray:
        """The full column as a read-only array (memory-mapped, lazy)."""
        arr = self._mmaps.get(name)
        if arr is None:
            path = self.path / f"{name}.npy"
            # A zero-length column is just a header; mmap of an empty data
            # block is not portable, so hand back an empty array instead.
            header_only = path.stat().st_size <= _NPY_HEADER_LEN
            arr = np.load(path) if header_only else \
                np.lib.format.open_memmap(path, mode="r")
            self._mmaps[name] = arr
        return arr

    def _open(self, name: str) -> tuple:
        """``(file, data offset, dtype)`` of a column file, opened once."""
        entry = self._files.get(name)
        if entry is None:
            fh = open(self.path / f"{name}.npy", "rb")
            major, _ = np.lib.format.read_magic(fh)
            read_header = (np.lib.format.read_array_header_1_0 if major == 1
                           else np.lib.format.read_array_header_2_0)
            _, _, dtype = read_header(fh)  # NumPy's parser; data follows it
            entry = self._files[name] = (fh, fh.tell(), dtype)
        return entry

    def _read(self, name: str, lo: int, hi: int) -> bytes:
        """The bytes of rows ``[lo, hi)`` of column ``name``, read from its
        file — the one read every streamed column, offset and payload byte
        goes through.

        ``pread`` takes its own offset, so the one descriptor serves any
        number of threads, forked children and a file that is still being
        appended to.
        """
        if hi <= lo:
            return b""
        fh, data_start, dtype = self._open(name)
        position = data_start + lo * dtype.itemsize
        end = data_start + hi * dtype.itemsize
        pieces = []
        while position < end:  # one read, unless the kernel cuts it short
            piece = os.pread(fh.fileno(), end - position, position)
            if not piece:
                raise EOFError(
                    f"{fh.name} ends {end - position} bytes short of "
                    f"row {hi}")
            pieces.append(piece)
            position += len(piece)
        return b"".join(pieces)  # of one piece: that piece, not a copy

    def _rows(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of one column: a read-only array over the bytes
        just read, which it alone keeps alive."""
        return np.frombuffer(self._read(name, lo, hi),
                             dtype=self._open(name)[2])

    def read_rows(self, lo: int, hi: int) -> Dict[str, np.ndarray]:
        """The header columns of packets ``[lo, hi)``, one positional read
        per column file."""
        return {name: self._rows(name, lo, hi) for name, _ in STORE_COLUMNS}

    def payloads_slice(self, lo: int, hi: int) -> Optional[List[bytes]]:
        """Materialise the payloads of packets ``[lo, hi)`` (payload traces
        only) with one positional read of exactly their byte range."""
        if not self.has_payloads:
            return None
        if hi <= lo:
            return []
        offsets = self._rows("payload_offsets", lo, hi + 1)
        base = int(offsets[0])
        raw = self._read("payload_blob", base, int(offsets[-1]))
        bounds = (offsets - base).tolist()
        return [raw[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def bin_bounds(self, time_bin: float) -> Optional[np.ndarray]:
        """Stored bin-edge packet offsets, if the manifest indexed this
        ``time_bin``; ``None`` sends the caller to a column scan."""
        index = self.manifest.get("bin_index")
        if index and float(index["time_bin"]) == float(time_bin):
            return np.asarray(index["bounds"], dtype=np.int64)
        return None

    def streaming(self) -> StreamingTrace:
        """An out-of-core trace view replaying this store bin by bin."""
        return StreamingTrace(self)

    def to_trace(self) -> PacketTrace:
        """Materialise the whole store as an in-memory trace."""
        columns = {column: np.array(self.column(column))
                   for column, _ in STORE_COLUMNS}
        payloads = self.payloads_slice(0, self.num_packets) \
            if self.has_payloads else None
        return PacketTrace(Batch(payloads=payloads, **columns),
                           name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceStore(path={str(self.path)!r}, "
                f"packets={self.num_packets}, "
                f"payloads={self.has_payloads})")


def save_trace_store(trace: PacketTrace, path: Union[str, Path],
                     time_bin: float = 0.1) -> TraceStore:
    """Write an in-memory trace as a v2 store and return it opened."""
    writer = TraceWriter(path, name=trace.name,
                         with_payloads=trace.packets.payloads is not None,
                         time_bin=time_bin)
    writer.append(trace.packets)
    return writer.close()


def open_trace(path: Union[str, Path]) -> Union[PacketTrace, TraceStore]:
    """Open a trace of either format.

    A directory containing a store manifest opens lazily as a
    :class:`TraceStore`; anything else loads eagerly as a v1 archive.
    """
    path = Path(path)
    if path.is_dir():
        return TraceStore(path)
    return load_trace(path)
