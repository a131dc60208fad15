"""Persistent worker processes fed through inherited memory descriptors.

:class:`ShardWorkerPool` is the process-parallel session executor: a few
**long-lived worker processes hosting resident sessions**.  (Its serial
twin with the same method set is
:class:`repro.monitor.sharding.InProcessShards`.)  A
:class:`~repro.monitor.sharding.ShardedSession` runs one shard session per
process; a :class:`~repro.fleet.runner.FleetRunner` deals its node
sessions onto fewer processes (session ``i`` lives on process ``i mod n``).
Each session is opened *inside* its worker from its own config — a
:class:`~repro.monitor.session.MonitoringSession`, or a nested in-process
sharded session when the config says ``num_shards > 1`` — runs the whole
predict → allocate → shed → execute pipeline, stays resident across bins,
and is fed one pre-partitioned sub-batch per time bin.

* **Slots** — each session has two buffer slots, anonymous memory files
  (``os.memfd_create``) made before the first fork, so every worker
  inherits them (and keeps its own sessions').  The parent packs a
  sub-batch's columns into its mapping of a slot in the canonical
  :func:`repro.monitor.packet.column_layout` wire format, so no column
  data is pickled; the ingest message names the slot's descriptor and
  size.  The slots alternate (double buffering): the parent packs bin
  ``i + 1`` into one while the worker reads bin ``i`` from the other,
  copying the columns out of its own mapping into its
  :class:`~repro.monitor.packet.Batch`.  A bin larger than its slot grows
  the slot in place, with 25% headroom, once the slot's last bin was
  answered; the worker remaps it when told a new size.
* **Messages** — one duplex socket per worker (``socket.socketpair``); a
  message is its pickle's length in 8 bytes, then the pickle (a bin's
  payloads, when present, ride in its ingest message).  The worker
  *steps* every session it hosts and answers each bin with what the step
  delivered — the bin's record and the mergeable partial of every
  interval it flushed — and its wall seconds; ``close`` answers with the
  last intervals.  The parent queues every delivery per session in
  :attr:`ShardWorkerPool.arrived`, waited for or not, for the owner to
  fold.  Control messages (capacity, query arrivals/departures, metrics,
  checkpoints) travel in FIFO order with the batches, so they apply at
  exactly the bin boundary they would in-process.
* **Lifecycle** — the pool forks each worker itself (``os.fork``), before
  the caller reads its first bin, so the configs and the query factory
  are inherited, not pickled (lambda factories work).  A worker closes
  what the fork copied of every live pool (the registry ``_FORKED``, each
  slot and socket end through the object that owns it) but its own
  socket and slots, and leaves through ``os._exit``, never back into its
  parent's stack.  Only the worker holds its end of its socket, so each
  side reads end-of-file once the other is gone: a worker exits when its
  parent dies, even by SIGKILL, and one that dies mid-stream surfaces as
  a :class:`ShardWorkerError` naming it, its exit code and every session
  it hosted.  :meth:`ShardWorkerPool.stop` reaps the workers
  (``os.waitpid``), killing one not gone within ``_JOIN_TIMEOUT``; a slot
  has no name, so nothing outlives the pool.

Forking from a threaded process (the serve daemon starts its pool on its
session thread) is no worse than any ``fork`` start: only the forking
thread runs on in the worker, and the interpreter and ``logging`` reset
their own locks there.  A host without ``os.fork`` or ``os.memfd_create``
(:func:`fork_start_available`) runs no pool: ``"auto"`` backends resolve
to in-process execution there, and an explicit pool is refused with one
``ValueError`` (:func:`require_pool_host`).  Every flushed partial names
its query class, which is pickled by reference: a query class must be
importable at module level.
"""

from __future__ import annotations

import logging
import mmap
import os
import pickle
import signal
import socket
import struct
import time
import traceback
import weakref
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from .packet import Batch
# Defined beside the backend resolution, which needs them without the pool.
from .sharding import ShardExecutionWarning, effective_workers

__all__ = [
    "ShardExecutionWarning",
    "ShardWorkerError",
    "ShardWorkerPool",
    "effective_workers",
    "fork_start_available",
    "require_pool_host",
]

logger = logging.getLogger("repro.monitor.workers")

#: Size a buffer slot starts at; a grown slot gets 25% headroom so a
#: slowly growing stream does not grow it every bin.
_MIN_SLOT_BYTES = 1 << 16
_GROWTH_FACTOR = 1.25

#: Buffer slots per session (double buffering).
_SLOTS_PER_SESSION = 2
#: Bins a process may have unanswered.  Its socket holds that many
#: records with room to spare, so a worker never blocks writing one and
#: always comes back to read its commands — and the parent can then never
#: block writing a command (a bin's payloads ride along) to a worker that
#: is itself blocked, however many sessions share the process.
_MAX_UNANSWERED = 8

#: Seconds :meth:`ShardWorkerPool.stop` waits for a worker to exit.
_JOIN_TIMEOUT = 5.0
#: A message's length, ahead of its pickle: 8 bytes, so that a
#: checkpoint's pickled session fits whatever its size.
_LENGTH = struct.Struct("<Q")


class ShardWorkerError(RuntimeError):
    """A worker process failed (raised, or died without answering)."""


def fork_start_available() -> bool:
    """Whether the host can run a pool: ``os.fork`` for the workers, and
    ``os.memfd_create`` for the slots they inherit."""
    return hasattr(os, "fork") and hasattr(os, "memfd_create")


def require_pool_host() -> None:
    """Refuse, in one line, a pool this host cannot run."""
    if not fork_start_available():
        raise ValueError(
            "a shard worker pool needs the fork start method and "
            "os.memfd_create, which this host lacks; run the 'inprocess' "
            "backend instead")


# ----------------------------------------------------------------------
# Messages: an 8-byte length, then a pickle
# ----------------------------------------------------------------------
def _send_message(sock: socket.socket, message) -> None:
    data = pickle.dumps(message)
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _read(sock: socket.socket, size: int) -> bytearray:
    """Exactly ``size`` bytes; ``EOFError`` if the other end closes first."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        read = sock.recv_into(view[got:])
        if not read:
            raise EOFError
        got += read
    return data


def _recv_message(sock: socket.socket) -> bytearray:
    """The pickle of the next message on ``sock``."""
    (size,) = _LENGTH.unpack(_read(sock, _LENGTH.size))
    return _read(sock, size)


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------
#: What a resident session answers to each query command; the reply goes
#: back under the command's own name.
_QUERIES = {
    # The session's own JSON-able metrics document (any session type); the
    # owner folds its sessions' documents with ``repro.profile.fold_metrics``.
    "session_metrics": lambda session: session.metrics,
    # Checkpoint capture: pickling the session over the socket *is* the
    # snapshot; the worker's live session streams on.
    "state": lambda session: session,
    # The end of the execution: what the session delivers for it.
    "close": lambda session: (None, session.finish()),
}


def _worker_main(hosted: Sequence[tuple], query_factory, time_bin: float,
                 sock: socket.socket, slots: Sequence["_Slot"]) -> None:
    """In the forked worker: open each hosted ``(session index, config,
    name)`` once, and step them until the parent shuts its end of ``sock``.

    Of what the fork copied of every live pool (``_FORKED``), only
    ``sock`` and the descriptors of the sessions' ``slots`` stay open, so
    every worker holds the same descriptors whatever its index.  A reply
    is ``(kind, seq, answer, session index)``; a bin's answer is what its
    step delivered, ``(record, flushed)``, followed by its wall seconds.
    Messages are handled in FIFO order: a ``set_capacity`` sent before
    bin ``i``'s batch applies when bin ``i`` is stepped, as in-process.
    """
    from .sharding import build_system  # which imports this module
    for held in list(_FORKED):
        if held in slots:  # its descriptor stays; the worker maps it itself
            held.view.close()
        elif held is not sock:
            held.close()
    #: This process's read-only mapping of each slot, by descriptor.
    views = {}

    try:
        sessions = {
            index: build_system(config, query_factory).open_session(
                time_bin=time_bin, name=name)
            for index, config, name in hosted}
        while True:
            message = pickle.loads(_recv_message(sock))
            kind = message[0]
            if kind == "ingest":
                (_, seq, index, fd, size, n, bin_len, start_ts,
                 payloads) = message
                if n:
                    view = views.get(fd)
                    if view is None or len(view) != size:
                        # The slot's first bin here, or the parent grew it.
                        if view is not None:
                            view.close()
                        view = views[fd] = mmap.mmap(
                            fd, size, access=mmap.ACCESS_READ)
                    # Copy the columns out of the slot: the batch then owns
                    # its arrays and the parent may repack the slot as soon
                    # as it sees this bin's record.
                    batch = Batch.from_buffer(
                        view, n, time_bin=bin_len, start_ts=start_ts,
                        payloads=payloads, copy=True)
                else:
                    batch = Batch.empty(time_bin=bin_len, start_ts=start_ts,
                                        with_payloads=payloads is not None)
                started = time.perf_counter()
                delivered = sessions[index].step(batch)
                _send_message(sock, ("record", seq, delivered, index,
                                     time.perf_counter() - started))
            elif kind in _QUERIES:
                _, seq, index = message
                _send_message(sock, (kind, seq,
                                     _QUERIES[kind](sessions[index]), index))
            elif kind == "set_capacity":
                sessions[message[1]].set_capacity(message[2])
            elif kind == "add_query":
                sessions[message[1]].add_query(message[2],
                                               start_time=message[3])
            elif kind == "remove_query":
                sessions[message[1]].remove_query(message[2])
            elif kind == "load_session":
                # Checkpoint restore: adopt the session shipped by the
                # parent (unpickling rebuilt it in this process), replacing
                # the fresh one opened at startup.
                _, seq, index, session = message
                sessions[index] = session
                _send_message(sock, (kind, seq, None, index))
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown worker command {kind!r}")
    except (EOFError, ConnectionError, KeyboardInterrupt):
        pass  # stopped, or the parent went away: just exit
    except BaseException:
        try:
            _send_message(sock, ("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        for view in views.values():
            try:
                view.close()
            except BufferError:  # pragma: no cover - a failed bin's
                pass  # frames may still export the mapping


# ----------------------------------------------------------------------
# Parent-side handles
# ----------------------------------------------------------------------
class _Slot:
    """One buffer slot of a session's double buffer: a memory file and the
    parent's mapping of it."""

    __slots__ = ("fd", "view", "busy_seq", "__weakref__")

    def __init__(self, name: str) -> None:
        self.fd = os.memfd_create(name, os.MFD_CLOEXEC)
        try:
            os.ftruncate(self.fd, _MIN_SLOT_BYTES)
            self.view = mmap.mmap(self.fd, _MIN_SLOT_BYTES)
        except BaseException:
            os.close(self.fd)
            raise
        #: Sequence number of the ingest currently reading from this slot;
        #: the slot may be repacked once that sequence has been acked.
        self.busy_seq: Optional[int] = None
        _FORKED.add(self)

    def close(self) -> None:
        """Close the mapping and the descriptor."""
        try:
            self.view.close()
        except BufferError:  # pragma: no cover - a failed pack's frames
            pass  # may still export the mapping
        _FORKED.discard(self)
        os.close(self.fd)


#: Every open slot and socket end, of every pool: what a fork copies, and
#: what a worker closes but its own.
_FORKED: "weakref.WeakSet" = weakref.WeakSet()


class _Worker:
    """Parent-side handle of one worker process, which it forks."""

    __slots__ = ("index", "hosted", "pid", "sock", "seq", "acked",
                 "exitcode")

    def __init__(self, index: int, hosted: Sequence[tuple], query_factory,
                 time_bin: float, slots: Sequence[_Slot]) -> None:
        self.index = index
        #: Names of the sessions living on this process (failure reports).
        self.hosted = [name for _, _, name in hosted]
        self.seq = self.acked = 0
        #: Once reaped: the exit status, or minus the signal that ended it.
        self.exitcode: Optional[int] = None
        self.sock, theirs = socket.socketpair()  # the parent's end first
        _FORKED.update((self.sock, theirs))
        try:
            self.pid = os.fork()
        except BaseException:
            self.sock.close()
            theirs.close()
            raise
        if self.pid == 0:  # the worker: never back into the caller's stack
            status = 1
            try:
                _worker_main(hosted, query_factory, time_bin, theirs, slots)
                status = 0
            finally:
                os._exit(status)
        theirs.close()  # the worker's alone

    def reap(self, deadline: float) -> int:
        """Reap the process, killed if it is not gone by ``deadline``
        (``time.monotonic()``), and return its exit code.  Only the worker
        holds its end of the socket: the socket reads end-of-file (after
        any unread replies, dropped) once the process has exited."""
        if self.exitcode is None:
            try:
                while True:
                    self.sock.settimeout(max(0.0, deadline - time.monotonic()))
                    if not self.sock.recv(1 << 16):
                        break
            except OSError:  # not gone by the deadline (or reset: gone)
                os.kill(self.pid, signal.SIGKILL)  # still ours to signal
            self.exitcode = os.waitstatus_to_exitcode(
                os.waitpid(self.pid, 0)[1])
        return self.exitcode

    def __str__(self) -> str:
        return (f"shard worker {self.index} "
                f"(hosting {', '.join(self.hosted)})")


class _Session:
    """Parent-side handle of one resident session."""

    __slots__ = ("worker", "slots", "ingests")

    def __init__(self) -> None:
        #: The process hosting the session, once it is started.
        self.worker: Optional[_Worker] = None
        self.slots: List[_Slot] = []
        #: Bins shipped so far; picks the slot, so a session alternates
        #: between its two however many sessions share the process.
        self.ingests = 0


class ShardWorkerPool:
    """Resident sessions on persistent processes, fed through memory files.

    Parameters
    ----------
    configs:
        One :class:`~repro.monitor.config.SystemConfig` per session (the
        per-shard configs :class:`~repro.monitor.sharding.ShardedSystem`
        builds, or a fleet's node configs).
    query_factory:
        Zero-argument callable returning fresh query instances, or ``None``
        for each config's own declarative ``queries``; called *inside* the
        worker, so per-session query state never crosses a process
        boundary.
    time_bin, names:
        Session parameters forwarded to each session's
        ``open_session(time_bin=..., name=names[i])``.
    processes:
        Worker processes to start; session ``i`` lives on process
        ``i mod processes``.  Default: one process per session.
    """

    def __init__(self, configs: Sequence, query_factory: Optional[Callable],
                 time_bin: float, names: Sequence[str],
                 processes: Optional[int] = None) -> None:
        if len(names) != len(configs):
            raise ValueError("need one session name per session config")
        count = len(configs) if processes is None else int(processes)
        if not 1 <= count <= len(configs):
            raise ValueError(
                f"cannot run {len(configs)} sessions on {count} processes")
        require_pool_host()
        #: The process that forked the workers, the only one to stop them.
        self._pid = os.getpid()
        self._closed = False
        self._stopped = False
        self._failed: Optional[str] = None
        #: Per session, the wall seconds of every answered bin, one per
        #: record in :attr:`arrived`, for the owner to pop with it.
        self.ingest_seconds: List[Deque[float]] = [deque() for _ in configs]
        #: Per session, in arrival order, what it delivered: ``(record,
        #: flushed)`` of every answered bin, waited for or not, and
        #: ``(None, flushed)`` of its last intervals, for the owner to pop.
        self.arrived: List[Deque[tuple]] = [deque() for _ in configs]
        #: Bytes of the replies that carried partials.
        self.partial_bytes = 0
        self._workers: List[_Worker] = []
        self._sessions: List[_Session] = []
        try:
            # Every slot exists before the first fork, so each worker
            # inherits the descriptors its sessions' bins arrive through
            # (and closes the others').
            for index in range(len(configs)):
                session = _Session()
                self._sessions.append(session)
                for _ in range(_SLOTS_PER_SESSION):
                    session.slots.append(_Slot(f"repro-slot-{index}"))
            for index in range(count):
                hosted = range(index, len(configs), count)
                worker = _Worker(
                    index, [(i, configs[i], names[i]) for i in hosted],
                    query_factory, float(time_bin),
                    [slot for i in hosted for slot in self._sessions[i].slots])
                self._workers.append(worker)
                for i in hosted:
                    self._sessions[i].worker = worker
        except BaseException:
            self.stop()
            raise

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _fail(self, worker: _Worker,
              what: Optional[str] = None) -> "ShardWorkerError":
        """Stop the pool and build the error to raise — ``worker`` raised
        ``what`` or, without it, died — logged here: this is where the
        failure is known."""
        if what is None:
            what = (f"died mid-stream (exit code "
                    f"{worker.reap(time.monotonic() + _JOIN_TIMEOUT)}); "
                    "the execution cannot continue")
        message = f"{worker} {what}"
        logger.error(message)
        self._failed = message
        self.stop()
        return ShardWorkerError(message)

    def _check_usable(self) -> None:
        if self._failed is not None:
            raise ShardWorkerError(self._failed)
        if self._stopped:
            raise ShardWorkerError("the shard worker pool has been stopped")

    def _send(self, worker: _Worker, message: tuple) -> None:
        try:
            _send_message(worker.sock, message)
            return
        except OSError:  # BrokenPipeError: the worker closed its end
            # Raised below, unchained: the pickle in the OSError's
            # traceback is then freed here, by reference count, not
            # whenever the collector gets to the error's cycle.
            pass
        raise self._fail(worker)

    def _recv(self, worker: _Worker):
        """Next response from ``worker``, acknowledged; raises if it died."""
        try:
            raw = _recv_message(worker.sock)
        except (EOFError, OSError):  # the worker closed its end
            raise self._fail(worker) from None
        # Only this pool's own worker wrote these bytes.
        response = pickle.loads(raw)
        if response[0] == "error":
            raise self._fail(worker, f"raised:\n{response[1]}")
        worker.acked = max(worker.acked, int(response[1]))
        kind, _, answer, index = response[:4]
        if kind == "record":
            self.ingest_seconds[index].append(response[4])
        if kind in ("record", "close"):
            self.arrived[index].append(answer)
            if answer[1]:
                self.partial_bytes += len(raw)
        return response

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_async(self, shard: int, batch: Batch) -> int:
        """Ship one bin's sub-batch to session ``shard``; returns its
        sequence id.

        Does not wait for the bin's record: a caller that needs no record
        before the next bin may run up to two bins ahead
        per session — the slot acquisition below enforces exactly that
        window — and ``_MAX_UNANSWERED`` bins ahead per process.  Pair with
        :meth:`wait_record` for lockstep semantics.
        """
        self._check_usable()
        session = self._sessions[shard]
        worker = session.worker
        while worker.seq - worker.acked >= _MAX_UNANSWERED:
            self._recv(worker)
        worker.seq += 1
        seq = worker.seq
        n = len(batch)
        fd = size = None
        if n:
            position = session.ingests % len(session.slots)
            slot = session.slots[position]
            # Flow control: the slot is free only once the bin that last
            # used it has been answered.
            while slot.busy_seq is not None and worker.acked < slot.busy_seq:
                self._recv(worker)
            needed = batch.buffer_nbytes()
            if needed > len(slot.view):
                # Grow in place: the worker is done with the slot, and
                # remaps it when it sees the new size.
                slot.view.resize(int(needed * _GROWTH_FACTOR))
            batch.pack_into(slot.view)
            slot.busy_seq = seq
            fd, size = slot.fd, len(slot.view)
        session.ingests += 1
        self._send(worker, ("ingest", seq, shard, fd, size, n,
                            batch.time_bin, batch.start_ts, batch.payloads))
        return seq

    def wait_record(self, shard: int, seq: int):
        """Block until session ``shard`` answers sequence ``seq``; return
        its record.

        Responses arrive in FIFO order; records overtaken while waiting
        (possible only when the caller ran ahead with :meth:`ingest_async`)
        are acknowledged and left in :attr:`arrived`, where every record
        goes, waited for or not.
        """
        return self._await(self._sessions[shard].worker, seq, "record")[0]

    def ingest(self, parts: Sequence[Batch]) -> List:
        """Lockstep helper: one bin across all sessions, records returned.

        Sub-batches are shipped before their records are gathered, so the
        workers compute the bin concurrently — a stride of sessions at a
        time, each process's share of which fits its unanswered window (a
        record received to make room could no longer be waited for).
        """
        records: List = []
        stride = _MAX_UNANSWERED * len(self._workers)
        for start in range(0, len(parts), stride):
            seqs = [(shard, self.ingest_async(shard, parts[shard]))
                    for shard in range(start, min(start + stride, len(parts)))]
            records += [self.wait_record(shard, seq) for shard, seq in seqs]
        return records

    # ------------------------------------------------------------------
    # Control messages (FIFO with the batches: bin-boundary semantics)
    # ------------------------------------------------------------------
    def _tell(self, shard: int, kind: str, *payload) -> None:
        self._check_usable()
        self._send(self._sessions[shard].worker, (kind, shard, *payload))

    def set_capacity(self, shard: int, cycles_per_second: float) -> None:
        self._tell(shard, "set_capacity", float(cycles_per_second))

    def add_query(self, shard: int, query, start_time=None) -> None:
        self._tell(shard, "add_query", query, start_time)

    def remove_query(self, shard: int, name: str) -> None:
        self._tell(shard, "remove_query", name)

    # ------------------------------------------------------------------
    # Results and lifecycle
    # ------------------------------------------------------------------
    def _await(self, worker: _Worker, seq: int, kind: str):
        """The payload ``worker`` answers sequence ``seq`` with."""
        self._check_usable()
        while worker.acked < seq:
            response = self._recv(worker)
            if response[0] == kind and response[1] == seq:
                return response[2]
        raise ShardWorkerError(  # pragma: no cover - protocol error
            f"response {seq} of {worker} was already consumed")

    def _ask_all(self, kind: str, payloads: Optional[Sequence] = None) -> List:
        """Every session's answer to ``kind``, in session order.

        FIFO with the batches, so each answer lands at a bin boundary;
        all commands go out before the first answer is awaited.
        """
        self._check_usable()
        seqs = []
        for index, session in enumerate(self._sessions):
            worker = session.worker
            worker.seq += 1
            seqs.append(worker.seq)
            extra = () if payloads is None else (payloads[index],)
            self._send(worker, (kind, worker.seq, index, *extra))
        return [self._await(session.worker, seq, kind)
                for session, seq in zip(self._sessions, seqs)]

    def session_metrics(self) -> List:
        """Every session's own ``metrics`` document."""
        return self._ask_all("session_metrics")

    def session_states(self) -> List:
        """Checkpoint capture: every resident session, copied out; the
        workers keep streaming afterwards."""
        return self._ask_all("state")

    def load_sessions(self, sessions: Sequence) -> None:
        """Checkpoint restore: replace every resident session.

        Each worker adopts the session objects shipped to it (state built
        by a prior execution), discarding the fresh ones it opened at
        startup; the ack keeps the restore synchronous, so the caller may
        ingest immediately after.
        """
        if len(sessions) != len(self._sessions):
            raise ValueError(
                f"need one session per resident session: got "
                f"{len(sessions)} for {len(self._sessions)}")
        self._ask_all("load_session", sessions)

    def close(self) -> None:
        """Finish every session — its last intervals go to :attr:`arrived`
        — and stop the pool (processes reaped, slots closed).
        Idempotent."""
        if not self._closed:
            self._ask_all("close")
            self._closed = True
            self.stop()

    def stop(self) -> None:
        """Stop and reap the workers (killing any not gone within
        ``_JOIN_TIMEOUT``) and close every descriptor and mapping.

        Idempotent and unconditional: safe on a half-constructed, failed or
        closed pool (``__del__`` calls it), and a no-op in a worker's copy.
        """
        if self._stopped or os.getpid() != self._pid:
            return
        self._stopped = True
        for worker in self._workers:
            # The worker reads end-of-file after its last command, and exits.
            worker.sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for worker in self._workers:
            worker.reap(deadline)
            worker.sock.close()
        for session in self._sessions:
            for slot in session.slots:
                slot.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.stop()
        except Exception:  # at interpreter exit anything may be half gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else "running"
        return (f"ShardWorkerPool(sessions={len(self._sessions)}, "
                f"processes={len(self._workers)}, {state}, "
                f"pid={os.getpid()})")
