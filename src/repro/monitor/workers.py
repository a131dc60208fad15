"""Persistent worker processes with shared-memory batch transport.

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

* **Transport** — the parent packs each sub-batch's columns into a
  ``multiprocessing.shared_memory`` segment using the canonical
  :func:`repro.monitor.packet.column_layout` wire format (the same column
  layout the trace store keeps on disk), so no column data is ever
  pickled.  Two segments per session are used round-robin (double
  buffering): the parent packs bin ``i + 1`` into one slot while the
  worker still reads bin ``i`` from the other.  The worker copies the
  columns out of the segment when it builds its
  :class:`~repro.monitor.packet.Batch` (one contiguous memcpy per column),
  after which the slot is free for reuse — zero serialisation, one copy.
  Payloads, when present, are variable-length Python objects and ride the
  command pipe instead.
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
  the processes and closes *and unlinks* every shared-memory segment, so
  no ``/dev/shm`` entries outlive the pool.  A worker dying mid-stream
  surfaces as a :class:`ShardWorkerError` naming the process and every
  session it hosted, not a hang.

Workers are started with the ``fork`` start method when the platform has
it — before the caller reads its first bin, so they inherit no traffic —
and the configs and the query factory are inherited rather than pickled
(lambda factories keep working).  On spawn-only platforms the pool still
runs, but configs and factories must then be picklable.  Every flushed
partial names its query class, which is pickled by reference: a query
class must be importable at module level.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from multiprocessing import shared_memory
from typing import Callable, Deque, List, Optional, Sequence

from .packet import Batch

__all__ = [
    "ShardExecutionWarning",
    "ShardWorkerError",
    "ShardWorkerPool",
    "effective_workers",
    "fork_start_available",
]

logger = logging.getLogger("repro.monitor.workers")

#: Smallest shared-memory segment the pool allocates; grown segments get a
#: 25% headroom so a slowly growing stream does not reallocate every bin.
_MIN_SEGMENT_BYTES = 1 << 16
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


class ShardExecutionWarning(UserWarning):
    """A sharded execution that requested process workers runs in-process.

    Emitted instead of silently degrading, so callers asking for
    ``n_workers > 1`` learn that their session executes serially (the
    backend is, or ``auto`` resolved to, ``"inprocess"``).
    """


def fork_start_available() -> bool:
    """Whether the host supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(n_workers: int, n_jobs: int,
                      respect_cores: bool = True) -> int:
    """Worker processes actually worth starting for ``n_jobs`` sessions.

    The one place a requested parallelism is clamped, for the shard and
    the fleet tiers alike: a pool wider than its sessions idles, and one
    wider than the core count only adds fork and IPC overhead, so the
    request is clamped to the host unless the caller opts out
    (``respect_cores=False``, e.g. to exercise the pool on a single-core
    machine).
    """
    workers = min(int(n_workers), int(n_jobs))
    if respect_cores:
        workers = min(workers, os.cpu_count() or 1)
    return workers


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without tracker interference.

    The attaching process must not register the segment with the
    ``resource_tracker`` — the parent owns it and unlinks it on pool
    shutdown; a duplicate registration confuses the (fork-shared) tracker
    into dropping the parent's registration or double-unlinking at worker
    exit.  Python 3.13 exposes ``track=False`` for exactly this; older
    versions get the registration suppressed during the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


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
                 time_bin: float, commands, results) -> None:
    """Some sessions, resident: open each once, step them forever.

    ``hosted`` lists ``(session index, config, name)`` for every session
    of this process; ``commands`` / ``results`` are the worker ends of its
    pipes.  Every reply is ``(kind, seq, answer, session index)``; a bin's
    answer is what its step delivered, ``(record, flushed)``, with the
    bin's wall seconds on the end of the reply.  Every message is handled
    in FIFO order, which is what gives control messages (capacity, query
    arrivals) their bin-boundary semantics: a ``set_capacity`` sent before
    bin ``i``'s batch is queued by the session and applied when bin ``i``
    is stepped, exactly as in-process.
    """
    from .sharding import build_system  # which imports this module
    segments = {}

    try:
        sessions = {
            index: build_system(config, query_factory).open_session(
                time_bin=time_bin, name=name)
            for index, config, name in hosted}
        while True:
            message = commands.recv()
            kind = message[0]
            if kind == "ingest":
                (_, seq, index, segment_name, n, bin_len, start_ts,
                 payloads) = message
                if n:
                    segment = segments.get(segment_name)
                    if segment is None:
                        segment = _attach_segment(segment_name)
                        segments[segment_name] = segment
                    # Copy the columns out of the slot: the batch then owns
                    # its arrays and the parent may repack the slot as soon
                    # as it sees this bin's record.
                    batch = Batch.from_buffer(
                        segment.buf, n, time_bin=bin_len, start_ts=start_ts,
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
            elif kind == "detach":
                segment = segments.pop(message[1], None)
                if segment is not None:
                    segment.close()
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
        for segment in segments.values():
            try:
                segment.close()
            except (BufferError, OSError):  # pragma: no cover - a failed
                pass  # bin's frames may still export the buffer


# ----------------------------------------------------------------------
# Parent-side handles
# ----------------------------------------------------------------------
class _Slot:
    """One shared-memory buffer slot of a session's double buffer."""

    __slots__ = ("shm", "capacity", "busy_seq")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.capacity = shm.size
        #: Sequence number of the ingest currently reading from this slot;
        #: the slot may be repacked once that sequence has been acked.
        self.busy_seq: Optional[int] = None


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("index", "hosted", "process", "commands", "results", "seq",
                 "acked", "pending_unlinks")

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
        #: Retired (grown-out-of) segments awaiting unlink, as
        #: ``(shm, fence_seq)``: safe to unlink once ``acked >= fence_seq``
        #: (FIFO command handling guarantees the worker processed the
        #: preceding ``detach`` by then).
        self.pending_unlinks: List[tuple] = []

    def __str__(self) -> str:
        return (f"shard worker {self.index} "
                f"(hosting {', '.join(self.hosted)})")


class _Session:
    """Parent-side handle of one resident session."""

    __slots__ = ("worker", "slots", "ingests")

    def __init__(self, worker: _Worker, slots: List[_Slot]) -> None:
        self.worker = worker
        self.slots = slots
        #: Bins shipped so far; picks the slot, so a session alternates
        #: between its two however many sessions share the process.
        self.ingests = 0


class ShardWorkerPool:
    """Resident sessions on persistent processes, fed through shared memory.

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
        method = "fork" if fork_start_available() else None
        context = multiprocessing.get_context(method)
        self._closed = False
        self._stopped = False
        self._failed: Optional[str] = None
        #: Every segment name this pool ever created (leak tests read it).
        self.created_segments: List[str] = []
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
            for index in range(count):
                hosted = range(index, len(configs), count)
                command_recv, command_send = multiprocessing.Pipe(duplex=False)
                result_recv, result_send = multiprocessing.Pipe(duplex=False)
                process = context.Process(
                    target=_worker_main,
                    args=(index,
                          [(i, configs[i], names[i]) for i in hosted],
                          query_factory, float(time_bin), command_recv,
                          result_send),
                    daemon=True,
                    name=f"repro-shard-{index}")
                process.start()
                # The worker owns these ends now; closing the parent's
                # copies keeps fd counts flat across many pools.
                command_recv.close()
                result_send.close()
                self._workers.append(_Worker(
                    index, [names[i] for i in hosted], process, command_send,
                    result_recv))
            for index in range(len(configs)):
                self._sessions.append(_Session(
                    self._workers[index % count],
                    [self._new_slot(_MIN_SEGMENT_BYTES)
                     for _ in range(_SLOTS_PER_SESSION)]))
        except BaseException:
            self.stop()
            raise

    # ------------------------------------------------------------------
    @property
    def stopped(self) -> bool:
        return self._stopped

    def _new_slot(self, nbytes: int) -> _Slot:
        shm = shared_memory.SharedMemory(
            create=True, size=max(int(nbytes), _MIN_SEGMENT_BYTES))
        self.created_segments.append(shm.name)
        return _Slot(shm)

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
        while worker.pending_unlinks and \
                worker.pending_unlinks[0][1] <= worker.acked:
            shm, _ = worker.pending_unlinks.pop(0)
            self._release_segment(shm)
        kind, _, answer, index = response[:4]
        if kind == "record":
            self.ingest_seconds[index].append(response[4])
        if kind in ("record", "close"):
            self.arrived[index].append(answer)
            if answer[1]:
                self.partial_bytes += len(raw)
        return response

    @staticmethod
    def _release_segment(shm: shared_memory.SharedMemory) -> None:
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - a view of the
            pass  # buffer is still alive; the unlink below frees the name
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

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
        segment_name = None
        if n:
            position = session.ingests % len(session.slots)
            slot = session.slots[position]
            # Flow control: the slot is free only once the bin that last
            # used it has been answered.
            while slot.busy_seq is not None and worker.acked < slot.busy_seq:
                self._recv(worker)
            needed = batch.buffer_nbytes()
            if needed > slot.capacity:
                # Grow: retire the old segment (unlink deferred until the
                # worker has provably moved past the detach message).
                self._send(worker, ("detach", slot.shm.name))
                worker.pending_unlinks.append((slot.shm, seq))
                slot = session.slots[position] = self._new_slot(
                    int(needed * _GROWTH_FACTOR))
            batch.pack_into(slot.shm.buf)
            slot.busy_seq = seq
            segment_name = slot.shm.name
        session.ingests += 1
        self._send(worker, ("ingest", seq, shard, segment_name, n,
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
        — and stop the pool (processes joined, segments unlinked).
        Idempotent."""
        if not self._closed:
            self._ask_all("close")
            self._closed = True
            self.stop()

    def stop(self) -> None:
        """Terminate the workers and release every shared resource.

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
            for shm, _ in worker.pending_unlinks:
                self._release_segment(shm)
            worker.pending_unlinks = []
        for session in self._sessions:
            for slot in session.slots:
                self._release_segment(slot.shm)

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
