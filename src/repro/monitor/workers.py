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
and is fed one pre-partitioned sub-batch per time bin.  What is resident:
the sessions in the workers, two buffer slots per session, and in the
parent only the bin being dealt out.

* **Transport** — each session has two buffer slots, anonymous memory
  files (``os.memfd_create``) made before the first worker is forked, so
  every worker inherits their descriptors; it keeps those of the sessions
  it hosts, two a session, and closes the rest.  The parent packs a
  sub-batch's columns into its mapping of a slot in the canonical
  :func:`repro.monitor.packet.column_layout` wire format (the column
  layout the trace store keeps on disk), so no column data is ever
  pickled; the ingest message names the slot's descriptor and size.  The
  slots are used round-robin (double buffering): the parent packs bin
  ``i + 1`` into one while the worker still reads bin ``i`` from the
  other.  The worker copies the columns out of its own mapping into its
  :class:`~repro.monitor.packet.Batch` (one memcpy per column), after
  which the slot is free — zero serialisation, one copy.  A bin larger
  than its slot grows the slot in place, with 25% headroom, once the
  slot's last bin was answered; the worker remaps it when the size it is
  told has changed.  Payloads, when present, ride the command pipe.
* **Result channel** — the worker *steps* every session it hosts
  (:meth:`~repro.monitor.session.MonitoringSession.step`; a sharded node
  steps the same way), and each bin answers on a per-process result pipe
  with what the step delivered — the bin's record and the mergeable
  partial of every interval it flushed — plus the wall seconds it took;
  ``close`` answers with the last intervals.  The parent queues every
  delivery per session in :attr:`ShardWorkerPool.arrived`, waited for or
  not, for the session's owner to fold.  Control messages (capacity
  changes, query arrivals/departures, metrics and checkpoint reads) are
  piggybacked on the command pipe in FIFO order with the batches, so they
  apply at exactly the bin boundary they would in-process.
* **Lifecycle** — :meth:`close` flushes every session and stops the pool;
  :meth:`stop` (idempotent, also run by ``close`` and ``__del__``) joins
  the processes and closes the parent's descriptors and mappings.  A slot
  has no name: its memory goes when the last descriptor of it closes, so
  nothing outlives the pool, even when the parent is killed.  A worker
  dying mid-stream surfaces as a :class:`ShardWorkerError` naming the
  process and every session it hosted, not a hang.

The pool always forks its workers — before the caller reads its first
bin, so they inherit no traffic — and the configs and the query factory
are inherited rather than pickled (lambda factories keep working).  A
host without the ``fork`` start method or ``os.memfd_create``
(:func:`fork_start_available`) runs no pool: ``"auto"`` backends resolve
to in-process execution there, and an explicit pool is refused with one
``ValueError`` (:func:`require_pool_host`).  Every flushed partial names
its query class, which is pickled by reference: a query class must be
importable at module level.
"""

from __future__ import annotations

import logging
import mmap
import multiprocessing
import os
import pickle
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
#: Bins a process may have unanswered.  Its result pipe holds that many
#: records with room to spare, so a worker never blocks writing one and
#: always comes back to read its commands — and the parent can then never
#: block writing a command (a bin's payloads ride along) to a worker that
#: is itself blocked, however many sessions share the process.
_MAX_UNANSWERED = 8

#: Seconds between liveness checks while waiting on a worker response.
_POLL_INTERVAL = 0.05
#: Seconds :meth:`ShardWorkerPool.stop` waits for a worker to exit before
#: terminating it.
_JOIN_TIMEOUT = 5.0


class ShardWorkerError(RuntimeError):
    """A worker process failed (raised, or died without answering)."""


def fork_start_available() -> bool:
    """Whether the host can run a pool: the ``fork`` start method, and
    ``os.memfd_create`` for the slots the workers inherit."""
    return hasattr(os, "memfd_create") and \
        "fork" in multiprocessing.get_all_start_methods()


def require_pool_host() -> None:
    """Refuse, in one line, a pool this host cannot run."""
    if not fork_start_available():
        raise ValueError(
            "a shard worker pool needs the fork start method and "
            "os.memfd_create, which this host lacks; run the 'inprocess' "
            "backend instead")


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------
#: What a resident session answers to each query command; the reply goes
#: back under the command's own name.
_QUERIES = {
    # The session's own JSON-able metrics document (any session type); the
    # owner folds its sessions' documents with ``repro.profile.fold_metrics``.
    "session_metrics": lambda session: session.metrics,
    # Checkpoint capture: ship the whole session back.  Pickling it over
    # the pipe *is* the snapshot — the parent receives a private copy while
    # the worker's live session streams on.
    "state": lambda session: session,
    # The end of the execution: what the session delivers for it.
    "close": lambda session: (None, session.finish()),
}


def _worker_main(worker_index: int, hosted: Sequence[tuple], query_factory,
                 time_bin: float, commands, results, parent_ends,
                 slot_fds: frozenset) -> None:
    """Some sessions, resident: open each once, step them forever.

    ``hosted`` lists ``(session index, config, name)`` for every session
    of this process and ``slot_fds`` the descriptors of their slots;
    ``commands`` / ``results`` are the worker ends of its pipes, and
    ``parent_ends`` the parent's, which the fork copied, with the parent's
    pipes to every live worker of every pool: all closed here, so the
    worker reads end-of-file, and exits, once the parent is gone, however
    it died, and every worker holds the same pipes whatever its index.
    The fork copied every live slot too, of every pool, each with the
    parent's mapping of it: the worker keeps the descriptors in
    ``slot_fds`` and closes the rest.  Every reply is
    ``(kind, seq, answer, session index)``; a bin's answer is what its
    step delivered, ``(record, flushed)``, with the bin's wall seconds on
    the end of the reply.  Every message is handled in FIFO order, which
    is what gives control messages (capacity, query arrivals) their
    bin-boundary semantics: a ``set_capacity`` sent before bin ``i``'s
    batch is queued by the session and applied when bin ``i`` is stepped,
    exactly as in-process.
    """
    from .sharding import build_system  # which imports this module
    for end in parent_ends:
        end.close()
    for worker in list(_LIVE_WORKERS):
        worker.close_copies()
    for slot in list(_LIVE_SLOTS):
        slot.release(keep_fd=slot.fd in slot_fds)
    #: This process's read-only mapping of each slot, by descriptor.
    views = {}

    try:
        sessions = {
            index: build_system(config, query_factory).open_session(
                time_bin=time_bin, name=name)
            for index, config, name in hosted}
        while True:
            message = commands.recv()
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
                results.send(("record", seq, delivered, index,
                              time.perf_counter() - started))
            elif kind in _QUERIES:
                _, seq, index = message
                results.send((kind, seq, _QUERIES[kind](sessions[index]),
                              index))
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
                results.send((kind, seq, None, index))
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown worker command {kind!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away; just exit
        pass
    except BaseException:
        try:
            results.send(("error", worker_index, traceback.format_exc()))
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
        _LIVE_SLOTS.add(self)

    def release(self, keep_fd: bool = False) -> None:
        """Close the mapping and, unless ``keep_fd`` (a worker keeping the
        slot of a session it hosts), the descriptor."""
        try:
            self.view.close()
        except BufferError:  # pragma: no cover - a failed pack's frames
            pass  # may still export the mapping
        if not keep_fd:
            _LIVE_SLOTS.discard(self)
            os.close(self.fd)


#: Every slot whose descriptor is open, of every pool: what a fork copies.
_LIVE_SLOTS: "weakref.WeakSet[_Slot]" = weakref.WeakSet()
#: Every worker handle, of every pool: its pipes are what a fork copies.
_LIVE_WORKERS: "weakref.WeakSet[_Worker]" = weakref.WeakSet()


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("index", "hosted", "process", "commands", "results", "seq",
                 "acked", "__weakref__")

    def __init__(self, index: int, hosted: List[str], process, commands,
                 results) -> None:
        self.index = index
        #: Names of the sessions living on this process (failure reports).
        self.hosted = hosted
        self.process = process
        self.commands = commands
        self.results = results
        self.seq = 0
        self.acked = 0
        _LIVE_WORKERS.add(self)

    def close_copies(self) -> None:
        """In a later fork, close its copies of the parent's pipes to this
        worker: the two ends of the command and result pipes, and the two
        ``multiprocessing`` holds for a fork-started process (the read end
        behind its ``sentinel`` and the write end the child watches for
        the parent's death), which its ``Popen`` closes when collected."""
        self.commands.close()
        self.results.close()
        for fd in self.process._popen.finalizer._args:
            os.close(fd)

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
        context = multiprocessing.get_context("fork")
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
                slot_fds = frozenset(slot.fd for i in hosted
                                     for slot in self._sessions[i].slots)
                command_recv, command_send = multiprocessing.Pipe(duplex=False)
                result_recv, result_send = multiprocessing.Pipe(duplex=False)
                process = context.Process(
                    target=_worker_main,
                    args=(index,
                          [(i, configs[i], names[i]) for i in hosted],
                          query_factory, float(time_bin), command_recv,
                          result_send, (command_send, result_recv),
                          slot_fds),
                    daemon=True,
                    name=f"repro-shard-{index}")
                process.start()
                # The worker owns these ends now; closing the parent's
                # copies keeps fd counts flat across many pools.
                command_recv.close()
                result_send.close()
                worker = _Worker(index, [names[i] for i in hosted], process,
                                 command_send, result_recv)
                self._workers.append(worker)
                for i in hosted:
                    self._sessions[i].worker = worker
        except BaseException:
            self.stop()
            raise

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> "ShardWorkerError":
        """Stop the pool and build the error to raise, logged here: this is
        where the failure is known."""
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
            worker.commands.send(message)
            return
        except OSError:  # BrokenPipeError, or the handle is closed
            # Raised below, unchained: the half-sent pickle buffer in the
            # OSError's traceback is then freed here, by reference count,
            # not whenever the collector gets to the error's cycle.
            pass
        raise self._fail(
            f"{worker} died (its command channel is closed); the "
            "execution cannot continue")

    def _recv(self, worker: _Worker):
        """Next response from ``worker``, acknowledged; raises if it died."""
        while True:
            try:
                if worker.results.poll(_POLL_INTERVAL):
                    raw = worker.results.recv_bytes()
                    break
            except (EOFError, OSError):
                raise self._fail(
                    f"{worker} died mid-stream without reporting a "
                    "result") from None
            if not worker.process.is_alive():
                # One final drain: the worker may have answered (or sent
                # its error report) just before exiting.
                try:
                    if worker.results.poll(0):
                        raw = worker.results.recv_bytes()
                        break
                except (EOFError, OSError):
                    pass
                raise self._fail(
                    f"{worker} died mid-stream (exit code "
                    f"{worker.process.exitcode}) without reporting a result")
        # Only this pool's own worker wrote these bytes.
        response = pickle.loads(raw)
        if response[0] == "error":
            raise self._fail(f"{worker} raised:\n{response[2]}")
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
        — and stop the pool (processes joined, slots closed).
        Idempotent."""
        if not self._closed:
            self._ask_all("close")
            self._closed = True
            self.stop()

    def stop(self) -> None:
        """Terminate the workers and close every descriptor and mapping.

        Idempotent and unconditional: safe to call on a half-constructed,
        failed or already-closed pool (``__del__`` does).
        """
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers:
            try:
                worker.commands.send(("stop",))
            except OSError:  # the worker is gone already
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT)
        for worker in self._workers:
            for conn in (worker.commands, worker.results):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - closed under us
                    pass
        for session in self._sessions:
            for slot in session.slots:
                slot.release()

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
