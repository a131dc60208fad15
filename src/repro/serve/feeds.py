"""Async batch sources feeding the monitoring daemon.

The offline pipeline pulls a finished trace through a session; a live
monitor is the other way round — batches arrive over time, from wherever
the packets come from.  A :class:`Feed` is that inversion: an async
iterator of :class:`~repro.monitor.packet.Batch` objects, one per
``time_bin``, empty bins included, so the consuming session observes the
same continuous timeline the offline replay does.  Four sources cover the
spectrum from reproduction to deployment:

:class:`ReplayFeed`
    A recorded trace (in-memory, streaming view, or a v2 store on disk),
    replayed as fast as the session can ingest or paced against the wall
    clock at any multiple of real time.
:class:`TailFeed`
    Follows a v2 trace store *while it is still being written*
    (``TraceWriter.flush`` publishes incremental manifests): yields each
    bin once its boundary is safely in the past of the written data, then
    terminates when the writer closes the store.  ``tail -f`` for traces.
:class:`GeneratorFeed`
    Unbounded synthetic traffic from a
    :class:`~repro.traffic.generator.TrafficProfile`, produced segment by
    segment with the same deterministic per-segment seeding as
    ``generate_trace_store`` — an infinite soak-test source that is still
    exactly reproducible from ``(profile, seed)``.
:class:`SocketFeed`
    Listens on a TCP port for newline-delimited JSON packet records from
    external producers and assembles them into bins at ``time_bin``
    boundaries.

All feeds expose a little live telemetry for the ops API: ``lag_seconds``
(how far batch delivery trails its schedule), ``idle`` (caught up,
waiting for more data) and ``done`` (source exhausted).  ``stop()`` asks
the feed to wind down; the iterator then finishes cleanly.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import AsyncIterator, List, Optional, Union

import numpy as np

from ..monitor.packet import (
    Batch,
    BinGrid,
    COLUMN_DTYPES,
    COLUMN_FIELDS,
    StreamingTrace,
    as_trace,
    ip,
)
from ..traffic.generator import TrafficProfile, trace_segments
from ..traffic.trace_io import TraceStore, open_trace

__all__ = [
    "Feed",
    "GeneratorFeed",
    "ReplayFeed",
    "SocketFeed",
    "TailFeed",
]


class Feed:
    """Base class: an async source of per-bin :class:`Batch` objects.

    Subclasses implement :meth:`batches`; the attributes below are live
    telemetry the daemon surfaces through ``/status`` and ``/metrics``.
    """

    #: Bin duration in seconds; every yielded batch covers one bin.
    time_bin: float = 0.1
    #: Human-readable source name.
    name: str = "feed"
    #: Seconds the latest batch trailed its schedule (paced/live feeds).
    lag_seconds: float = 0.0
    #: True while the feed is caught up and waiting for more data.
    idle: bool = False
    #: True once the source is exhausted and iteration has ended.
    done: bool = False
    #: Packets that arrived for an already-emitted bin and were dropped, and
    #: input lines that were not a packet record; only a feed that takes
    #: records from outside (:class:`SocketFeed`) ever counts either.
    late_packets: int = 0
    malformed_lines: int = 0

    def __init__(self, time_bin: float = 0.1, name: str = "feed") -> None:
        self.time_bin = float(time_bin)
        if self.time_bin <= 0:
            raise ValueError("time_bin must be positive")
        self.name = name
        self.lag_seconds = 0.0
        self.idle = False
        self.done = False
        self._stopping = False

    @property
    def kind(self) -> str:
        """Short feed-type tag (``replay``, ``tail``, ``generate``, ...)."""
        return type(self).__name__.replace("Feed", "").lower()

    def stop(self) -> None:
        """Ask the feed to finish; :meth:`batches` returns soon after."""
        self._stopping = True

    def batches(self) -> AsyncIterator[Batch]:
        """Asynchronously yield one batch per ``time_bin``."""
        raise NotImplementedError

    async def _pace_gate(self, pace: float, wall_start: float,
                         bins_out: int) -> None:
        """Sleep until bin ``bins_out`` is due; maintain ``lag_seconds``.

        With ``pace == 0`` delivery is unpaced (a bare yield to the event
        loop keeps the daemon's ops handlers responsive); ``pace == 1``
        replays in real time, ``pace == 2`` at double speed, and so on.
        """
        if pace <= 0:
            self.lag_seconds = 0.0
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        due = wall_start + (bins_out + 1) * self.time_bin / pace
        now = loop.time()
        self.lag_seconds = max(0.0, now - due)
        if due > now:
            await asyncio.sleep(due - now)


class ReplayFeed(Feed):
    """Replay a recorded trace as a feed, optionally paced to wall time.

    ``source`` is anything :func:`~repro.monitor.packet.as_trace` accepts
    — a :class:`PacketTrace`, a :class:`StreamingTrace`, a
    :class:`~repro.traffic.trace_io.TraceStore` — or a filesystem path to
    a saved trace / v2 store.  The batches delivered are exactly the
    batches ``trace.batches(time_bin)`` yields, so a daemon fed by an
    unpaced ReplayFeed reproduces the offline pipeline bit for bit.
    """

    def __init__(self, source, time_bin: float = 0.1,
                 pace: float = 0.0) -> None:
        if isinstance(source, (str, Path)):
            source = open_trace(source)
        self._trace = as_trace(source)
        super().__init__(time_bin=time_bin,
                         name=getattr(self._trace, "name", "replay"))
        self.pace = float(pace)

    async def batches(self) -> AsyncIterator[Batch]:
        loop = asyncio.get_running_loop()
        bins = self._trace.batch_list(self.time_bin)
        wall_start = loop.time()
        try:
            for index in range(len(bins)):
                if self._stopping:
                    break
                # Building a bin may touch the disk (streaming traces);
                # do it off the event loop so ops requests stay snappy.
                batch = await loop.run_in_executor(None, bins.__getitem__,
                                                   index)
                yield batch
                await self._pace_gate(self.pace, wall_start, index)
        finally:
            if isinstance(self._trace, StreamingTrace):
                self._trace.close()
            self.done = True


class TailFeed(Feed):
    """Follow a v2 trace store that another process is still writing.

    The writer publishes incremental manifests with ``complete: false``
    on every :meth:`~repro.traffic.trace_io.TraceWriter.flush`; this feed
    polls the manifest and yields every bin whose upper edge lies at or
    before the last written timestamp — those bins can never gain another
    packet, because stores are written in timestamp order.  The final
    (possibly partial) bin is withheld until the writer closes the store,
    at which point every remaining bin is delivered and the feed ends.

    Bins lie on the :class:`BinGrid` anchored at the store's first
    timestamp, which is fixed from the writer's first flush onward — so the
    bins this feed emits are identical to what a post-hoc replay of the
    finished store emits, no matter how the flushes and polls interleaved.
    """

    def __init__(self, path: Union[str, Path], time_bin: float = 0.1,
                 poll_interval: float = 0.2) -> None:
        super().__init__(time_bin=time_bin, name=Path(path).name)
        self.path = Path(path)
        self.poll_interval = float(poll_interval)

    def _open_store(self) -> Optional[TraceStore]:
        try:
            return TraceStore(self.path)
        except (FileNotFoundError, json.JSONDecodeError):
            return None  # not created yet, or mid-first-write

    async def batches(self) -> AsyncIterator[Batch]:
        loop = asyncio.get_running_loop()
        yielded = 0
        while not self._stopping:
            store = await loop.run_in_executor(None, self._open_store)
            if store is None or len(store) == 0:
                if store is not None and store.complete:
                    break  # closed empty: nothing to tail
                self.idle = True
                await asyncio.sleep(self.poll_interval)
                continue
            ts = store.column("ts")
            _, n_bins = BinGrid.spanning(ts, self.time_bin)
            # A store still being written may add packets to its last bin.
            available = n_bins if store.complete else max(n_bins - 1, 0)
            if available > yielded:
                self.idle = False
                trace = store.streaming()
                try:
                    bins = trace.batch_list(self.time_bin)
                    for index in range(yielded, available):
                        if self._stopping:
                            return
                        batch = await loop.run_in_executor(
                            None, bins.__getitem__, index)
                        yield batch
                        await asyncio.sleep(0)
                finally:
                    trace.close()
                yielded = available
            if store.complete and yielded >= n_bins:
                break
            self.idle = True
            self.lag_seconds = max(
                0.0, (n_bins - yielded) * self.time_bin)
            await asyncio.sleep(self.poll_interval)
        self.done = True


class GeneratorFeed(Feed):
    """Synthesise live traffic, segment by segment, forever if asked.

    The stream is the one ``generate_trace_store`` writes:
    :func:`~repro.traffic.generator.trace_segments`, ``segment_duration``
    seconds at a time.  The same ``(profile, seed)`` therefore always
    produces the same packet stream, which is what makes a soak-tested
    daemon's results reproducible after the fact.

    ``max_bins`` bounds the stream (handy for tests and demos); with
    ``profile.duration`` as the horizon the feed ends when the profile
    does.  Set ``duration`` to ``float('inf')`` for an endless source.
    """

    def __init__(self, profile: Optional[TrafficProfile] = None,
                 seed: int = 0, time_bin: float = 0.1,
                 segment_duration: float = 10.0, pace: float = 0.0,
                 max_bins: Optional[int] = None) -> None:
        self.profile = profile if profile is not None else TrafficProfile()
        super().__init__(time_bin=time_bin, name=self.profile.name)
        self.seed = int(seed)
        self.segment_duration = float(segment_duration)
        if self.segment_duration <= 0:
            raise ValueError("segment_duration must be positive")
        self.pace = float(pace)
        self.max_bins = max_bins if max_bins is None else int(max_bins)

    def _capped(self, n_bins: int) -> int:
        return n_bins if self.max_bins is None else min(n_bins, self.max_bins)

    async def batches(self) -> AsyncIterator[Batch]:
        loop = asyncio.get_running_loop()
        wall_start = loop.time()
        carry = Batch.empty(time_bin=self.time_bin)
        grid: Optional[BinGrid] = None
        bins_out = 0
        segments = trace_segments(self.profile, self.seed,
                                  self.segment_duration)
        boundary = 0.0
        try:
            while not self._stopping:
                segment = await loop.run_in_executor(None, next, segments,
                                                     None)
                if segment is None:
                    break
                # Later segments only add packets at ts >= their offset, so
                # every bin complete at it is final and safe to emit.
                boundary += self.segment_duration
                # An empty part carries no payload list; concatenating it
                # would drop the payloads of the others.
                carry = Batch.concatenate(
                    [part for part in (carry, segment) if len(part) > 0])
                if len(carry) == 0:
                    continue
                if grid is None:
                    grid = BinGrid(carry.ts[0], self.time_bin)
                n_complete = self._capped(grid.complete(boundary))
                if n_complete > bins_out:
                    # The carry starts at bin bins_out's edge, so the cut
                    # bins hold its first rows.
                    bins = grid.cut(carry, bins_out, n_complete)
                    for batch in bins:
                        if self._stopping:
                            return
                        yield batch
                        bins_out += 1
                        await self._pace_gate(self.pace, wall_start,
                                              bins_out - 1)
                    used = sum(len(batch) for batch in bins)
                    carry = carry.select(np.arange(used, len(carry)))
                if self.max_bins is not None and bins_out >= self.max_bins:
                    return
            # Horizon reached: drain whatever the carry still holds.
            if not self._stopping and len(carry) > 0 and grid is not None:
                n_total = self._capped(grid.count(float(carry.ts[-1])))
                for batch in grid.cut(carry, bins_out, n_total):
                    if self._stopping:
                        return
                    yield batch
                    bins_out += 1
                    await self._pace_gate(self.pace, wall_start, bins_out - 1)
        finally:
            self.done = True


def _parse_addr(value) -> int:
    """An IPv4 address from an int or dotted-quad string."""
    if isinstance(value, str):
        octets = value.split(".")
        if len(octets) != 4:
            raise ValueError(f"bad IPv4 address {value!r}")
        return ip(*(int(o) for o in octets))
    return int(value)


class SocketFeed(Feed):
    """Accept JSONL packet records over TCP and bin them into batches.

    Producers connect to ``(host, port)`` and write one JSON object per
    line; recognised fields are ``ts`` (required, seconds), ``src_ip`` /
    ``dst_ip`` (int or dotted quad), ``src_port`` / ``dst_port``,
    ``proto`` and ``size``.  Bins lie on the :class:`BinGrid` anchored at
    the first packet's timestamp, the one a replay of the same packets
    cuts; a bin is emitted as soon as a packet at or past its upper edge
    arrives (records are expected in roughly timestamp order — stragglers
    landing in an already-emitted bin are counted in ``late_packets`` and
    dropped, exactly what a live capture would do).  A line that is not a
    JSON object with a finite ``ts`` and fields that fit their columns is
    counted in ``malformed_lines`` and skipped; the connection stays open.
    :meth:`stop` flushes the partial last bin and ends the feed.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 time_bin: float = 0.1) -> None:
        super().__init__(time_bin=time_bin, name=f"{host}:{port}")
        self.host = host
        self.port = int(port)
        self.late_packets = 0
        self.malformed_lines = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        #: The loop :meth:`start` ran on: the only thread that may touch
        #: the queue.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: List[tuple] = []
        self._grid: Optional[BinGrid] = None
        self._bins_emitted = 0

    @property
    def bound_port(self) -> int:
        """The port actually bound (useful when constructed with port 0)."""
        if self._server is None:
            return self.port
        return self._server.sockets[0].getsockname()[1]

    @staticmethod
    def _parse_record(record: dict) -> tuple:
        """A record's column values in ``COLUMN_FIELDS`` order; raises on
        a missing or non-finite ``ts`` or a value its column cannot hold."""
        ts = float(record["ts"])
        if not np.isfinite(ts):
            raise ValueError(f"non-finite ts {ts!r}")
        values = {
            "ts": ts,
            "src_ip": _parse_addr(record.get("src_ip", 0)),
            "dst_ip": _parse_addr(record.get("dst_ip", 0)),
            "src_port": int(record.get("src_port", 0)),
            "dst_port": int(record.get("dst_port", 0)),
            "proto": int(record.get("proto", 6)),
            "size": int(record.get("size", 64)),
        }
        return tuple(COLUMN_DTYPES[name].type(values[name])
                     for name in COLUMN_FIELDS)

    @staticmethod
    def _rows_to_batch(rows: List[tuple]) -> Batch:
        return Batch(**{name: np.array(column, dtype=COLUMN_DTYPES[name])
                        for name, column in zip(COLUMN_FIELDS, zip(*rows))})

    def _emit_through(self, n_bins: int) -> None:
        """Emit the bins before bin ``n_bins`` from the pending rows."""
        if n_bins <= self._bins_emitted:
            return
        pending = sorted(self._pending, key=lambda row: row[0])
        bins = self._grid.cut(self._rows_to_batch(pending),
                              self._bins_emitted, n_bins)
        for batch in bins:
            self._queue.put_nowait(batch)
        self._pending = pending[sum(len(batch) for batch in bins):]
        self._bins_emitted = n_bins

    def _add_row(self, row: tuple) -> None:
        ts = float(row[0])
        if self._grid is None:
            self._grid = BinGrid(ts, self.time_bin)
        if ts < self._grid.edge(self._bins_emitted):
            self.late_packets += 1
            return
        self._pending.append(row)
        self._emit_through(self._grid.complete(ts))

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            async for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = self._parse_record(json.loads(line))
                except (ValueError, KeyError, TypeError, OverflowError):
                    self.malformed_lines += 1  # skip, keep the stream alive
                    continue
                self._add_row(row)
        finally:
            writer.close()

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is None:
            self._loop = asyncio.get_running_loop()
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port)
            self.name = f"{self.host}:{self.bound_port}"

    def stop(self) -> None:
        super().stop()
        # Wake the consumer.  An asyncio queue is not thread-safe and
        # stop() may come from any thread, so the put runs on the loop.
        if self._loop is None or self._loop.is_closed():
            self._queue.put_nowait(None)
        else:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, None)

    async def batches(self) -> AsyncIterator[Batch]:
        await self.start()
        try:
            while True:
                self.idle = self._queue.empty()
                batch = await self._queue.get()
                if batch is None or self._stopping:
                    break
                self.idle = False
                yield batch
            # Drain: emit everything still buffered, partial last bin too.
            if self._pending:
                self._emit_through(self._grid.count(
                    max(float(row[0]) for row in self._pending)))
            while not self._queue.empty():
                batch = self._queue.get_nowait()
                if batch is not None:
                    yield batch
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            self.done = True
