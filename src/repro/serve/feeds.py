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

    Bin edges are anchored at the store's first timestamp, which is fixed
    from the writer's first flush onward — so the bins this feed emits are
    identical to what a post-hoc replay of the finished store emits, no
    matter how the flushes and polls interleaved.
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
            start_ts, end_ts = float(ts[0]), float(ts[-1])
            n_bins = int(np.floor((end_ts - start_ts) / self.time_bin)) + 1
            if store.complete:
                available = n_bins
            else:
                # Only bins whose upper edge <= end_ts are immutable.
                available = max(0, n_bins - 1)
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


def _concat_batches(parts: List[Batch], time_bin: float) -> Batch:
    """Concatenate batches into one (columns stacked, payloads chained)."""
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        return Batch.empty(time_bin=time_bin)
    if len(parts) == 1:
        return parts[0]
    columns = {
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in COLUMN_FIELDS
    }
    payloads = None
    if all(p.payloads is not None for p in parts):
        payloads = [pl for p in parts for pl in p.payloads]
    return Batch(payloads=payloads, time_bin=time_bin, **columns)


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

    def _slice_bins(self, carry: Batch, first_ts: float, start_bin: int,
                    stop_bin: int) -> List[Batch]:
        """Bins ``[start_bin, stop_bin)`` of ``carry`` on the global grid."""
        edges = first_ts + self.time_bin * np.arange(start_bin, stop_bin + 1)
        bounds = np.searchsorted(carry.ts, edges)
        out: List[Batch] = []
        for i in range(stop_bin - start_bin):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                batch = carry.select(np.arange(lo, hi))
            else:
                batch = Batch.empty(time_bin=self.time_bin,
                                    with_payloads=carry.payloads is not None)
            batch.time_bin = self.time_bin
            batch.start_ts = float(edges[i])
            out.append(batch)
        return out

    async def batches(self) -> AsyncIterator[Batch]:
        loop = asyncio.get_running_loop()
        wall_start = loop.time()
        carry = Batch.empty(time_bin=self.time_bin)
        first_ts: Optional[float] = None
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
                # every bin ending at or before it is final and safe to emit.
                boundary += self.segment_duration
                carry = _concat_batches([carry, segment], self.time_bin)
                if len(carry) == 0:
                    continue
                if first_ts is None:
                    first_ts = float(carry.ts[0])
                n_complete = int(np.floor((boundary - first_ts)
                                          / self.time_bin))
                if self.max_bins is not None:
                    n_complete = min(n_complete, self.max_bins)
                if n_complete > bins_out:
                    for batch in self._slice_bins(carry, first_ts, bins_out,
                                                  n_complete):
                        if self._stopping:
                            return
                        yield batch
                        bins_out += 1
                        await self._pace_gate(self.pace, wall_start,
                                              bins_out - 1)
                    keep_from = int(np.searchsorted(
                        carry.ts, first_ts + n_complete * self.time_bin))
                    carry = carry.select(np.arange(keep_from, len(carry)))
                if self.max_bins is not None and bins_out >= self.max_bins:
                    return
            # Horizon reached: drain whatever the carry still holds.
            if not self._stopping and len(carry) > 0 and first_ts is not None:
                last_ts = float(carry.ts[-1])
                n_total = int(np.floor((last_ts - first_ts)
                                       / self.time_bin)) + 1
                if self.max_bins is not None:
                    n_total = min(n_total, self.max_bins)
                for batch in self._slice_bins(carry, first_ts, bins_out,
                                              n_total):
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
    ``proto`` and ``size``.  Bins are anchored at the first packet's
    timestamp; a bin is emitted as soon as a packet beyond its upper edge
    arrives (records are expected in roughly timestamp order — stragglers
    landing in an already-emitted bin are counted in ``late_packets`` and
    dropped, exactly what a live capture would do).  A line that is not a
    JSON object with a numeric ``ts`` is counted in ``malformed_lines`` and
    skipped; the connection stays open.  :meth:`stop` flushes the partial
    last bin and ends the feed.
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
        self._pending: List[dict] = []
        self._first_ts: Optional[float] = None
        self._bins_emitted = 0

    @property
    def bound_port(self) -> int:
        """The port actually bound (useful when constructed with port 0)."""
        if self._server is None:
            return self.port
        return self._server.sockets[0].getsockname()[1]

    def _records_to_batch(self, records: List[dict], start_ts: float) -> Batch:
        if not records:
            return Batch.empty(time_bin=self.time_bin, start_ts=start_ts)
        records = sorted(records, key=lambda r: float(r["ts"]))
        columns = {
            name: np.empty(len(records), dtype=COLUMN_DTYPES[name])
            for name in COLUMN_FIELDS
        }
        for row, rec in enumerate(records):
            columns["ts"][row] = float(rec["ts"])
            columns["src_ip"][row] = _parse_addr(rec.get("src_ip", 0))
            columns["dst_ip"][row] = _parse_addr(rec.get("dst_ip", 0))
            columns["src_port"][row] = int(rec.get("src_port", 0))
            columns["dst_port"][row] = int(rec.get("dst_port", 0))
            columns["proto"][row] = int(rec.get("proto", 6))
            columns["size"][row] = int(rec.get("size", 64))
        return Batch(time_bin=self.time_bin, start_ts=start_ts, **columns)

    def _flush_through(self, upto_ts: Optional[float]) -> None:
        """Emit every bin whose upper edge is <= ``upto_ts`` (all if None)."""
        if self._first_ts is None:
            return
        if upto_ts is None:
            if not self._pending:
                return
            last = max(float(r["ts"]) for r in self._pending)
            n_bins = int(np.floor((last - self._first_ts)
                                  / self.time_bin)) + 1
        else:
            n_bins = int(np.floor((upto_ts - self._first_ts)
                                  / self.time_bin))
        while self._bins_emitted < n_bins:
            edge = self._first_ts + self._bins_emitted * self.time_bin
            upper = edge + self.time_bin
            in_bin = [r for r in self._pending if float(r["ts"]) < upper]
            self._pending = [r for r in self._pending
                             if float(r["ts"]) >= upper]
            self._queue.put_nowait(self._records_to_batch(in_bin, edge))
            self._bins_emitted += 1

    def _add_record(self, record: dict) -> None:
        ts = float(record["ts"])
        if self._first_ts is None:
            self._first_ts = ts
        emitted_edge = self._first_ts + self._bins_emitted * self.time_bin
        if ts < emitted_edge:
            self.late_packets += 1
            return
        self._pending.append(record)
        self._flush_through(ts)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            async for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    float(record["ts"])
                except (ValueError, KeyError, TypeError):
                    self.malformed_lines += 1  # skip, keep the stream alive
                    continue
                self._add_record(record)
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
            self._flush_through(None)
            while not self._queue.empty():
                batch = self._queue.get_nowait()
                if batch is not None:
                    yield batch
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            self.done = True
