"""Persistent shard workers with shared-memory batch transport.

:class:`ShardWorkerPool` is the process-parallel shard executor: one
**long-lived worker process per shard**.  (Its serial twin with the same
method set is :class:`repro.monitor.sharding.InProcessShards`; a
:class:`~repro.monitor.sharding.ShardedSession` drives either.)  Each
worker owns its shard's full
:class:`~repro.monitor.session.MonitoringSession` (the whole predict →
allocate → shed → execute pipeline, resident across bins) and is fed one
pre-partitioned sub-batch per time bin:

* **Transport** — the parent packs each sub-batch's columns into a
  ``multiprocessing.shared_memory`` segment using the canonical
  :func:`repro.monitor.packet.column_layout` wire format (the same column
  layout the trace store mmaps), so no column data is ever pickled.  Two
  segments per worker are used round-robin (double buffering): the parent
  packs bin ``i + 1`` into one slot while the worker still reads bin ``i``
  from the other.  The worker copies the columns out of the segment when
  it builds its :class:`~repro.monitor.packet.Batch` (one contiguous
  memcpy per column), after which the slot is free for reuse — zero
  serialisation, one copy.  Payloads, when present, are variable-length
  Python objects and ride the command pipe instead.
* **Result channel** — every ingested bin answers with its
  :class:`~repro.monitor.pipeline.BinRecord` on a per-worker result pipe.
  Control messages (capacity changes — including the per-bin
  capacity-rebalance updates computed by the parent from the previous
  bin's records — query arrivals/departures, partial-result snapshots)
  are piggybacked on the command pipe in FIFO order with the batches, so
  they apply at exactly the bin boundary they would in-process.
* **Lifecycle** — :meth:`close` flushes every worker's session and returns
  the per-shard :class:`~repro.monitor.system.ExecutionResult` list for
  merging; :meth:`stop` (idempotent, also run by ``close`` and ``__del__``)
  joins the processes and closes *and unlinks* every shared-memory
  segment, so no ``/dev/shm`` entries outlive the pool.  A worker dying
  mid-stream surfaces as a :class:`ShardWorkerError` naming the shard, not
  a hang.

Workers are started with the ``fork`` start method when the platform has
it, so the per-shard configs and the query factory are inherited rather
than pickled (lambda factories keep working).  On spawn-only platforms the
pool still runs, but configs and factories must then be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence

from .packet import Batch

__all__ = [
    "ShardExecutionWarning",
    "ShardWorkerError",
    "ShardWorkerPool",
    "fork_start_available",
]

#: Smallest shared-memory segment the pool allocates; grown segments get a
#: 25% headroom so a slowly growing stream does not reallocate every bin.
_MIN_SEGMENT_BYTES = 1 << 16
_GROWTH_FACTOR = 1.25

#: Seconds between liveness checks while waiting on a worker response.
_POLL_INTERVAL = 0.05
#: Seconds :meth:`ShardWorkerPool.stop` waits for a worker to exit before
#: terminating it.
_JOIN_TIMEOUT = 5.0


class ShardWorkerError(RuntimeError):
    """A shard worker process failed (raised, or died without answering)."""


class ShardExecutionWarning(UserWarning):
    """A sharded execution that requested process workers runs in-process.

    Emitted instead of silently degrading, so callers asking for
    ``n_workers > 1`` learn that their session executes serially (the
    backend is, or ``auto`` resolved to, ``"inprocess"``).
    """


def fork_start_available() -> bool:
    """Whether the host supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


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
def _shard_worker_main(shard_index: int, config, query_factory,
                       time_bin: float, name: str, commands,
                       results) -> None:
    """One shard, resident: build the session once, serve bins forever.

    ``commands`` / ``results`` are the worker ends of the per-shard pipes.
    Every message is handled in FIFO order, which is what gives control
    messages (capacity, query arrivals) their bin-boundary semantics: a
    ``set_capacity`` sent before bin ``i``'s batch is queued by the
    session and applied when bin ``i`` is ingested, exactly as in-process.
    """
    segments = {}
    try:
        system = config.build(query_factory())
        session = system.open_session(time_bin=time_bin, name=name)
        while True:
            message = commands.recv()
            kind = message[0]
            if kind == "ingest":
                _, seq, segment_name, n, bin_len, start_ts, payloads = message
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
                record = session.ingest(batch)
                results.send(("record", seq, record))
            elif kind == "set_capacity":
                session.set_capacity(message[1])
            elif kind == "add_query":
                session.add_query(message[1], start_time=message[2])
            elif kind == "remove_query":
                session.remove_query(message[1])
            elif kind == "partial":
                results.send(("partial", message[1], session.partial_result()))
            elif kind == "metrics":
                # Ship the live profiler and sharing stats; the parent folds
                # the per-shard profiles into one summary.
                results.send(("metrics", message[1],
                              (session.system.profiler,
                               session.system.feature_states.stats())))
            elif kind == "state":
                # Checkpoint capture: ship the whole session back.  Pickling
                # it over the pipe *is* the snapshot — the parent receives a
                # private copy while this worker's live session streams on.
                results.send(("state", message[1], session))
            elif kind == "load_session":
                # Checkpoint restore: adopt the session shipped by the
                # parent (unpickling rebuilt it in this process), replacing
                # the fresh one built at startup.
                session = message[2]
                results.send(("loaded", message[1], True))
            elif kind == "close":
                results.send(("result", message[1], session.close()))
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
            results.send(("error", shard_index, traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


# ----------------------------------------------------------------------
# Parent-side handles
# ----------------------------------------------------------------------
class _Slot:
    """One shared-memory buffer slot of a worker's double buffer."""

    __slots__ = ("shm", "capacity", "busy_seq")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.capacity = shm.size
        #: Sequence number of the ingest currently reading from this slot;
        #: the slot may be repacked once that sequence has been acked.
        self.busy_seq: Optional[int] = None


class _Worker:
    """Parent-side handle of one shard worker."""

    __slots__ = ("index", "process", "commands", "results", "slots", "seq",
                 "acked", "pending_unlinks")

    def __init__(self, index: int, process, commands, results,
                 slots: List[_Slot]) -> None:
        self.index = index
        self.process = process
        self.commands = commands
        self.results = results
        self.slots = slots
        self.seq = 0
        self.acked = 0
        #: Retired (grown-out-of) segments awaiting unlink, as
        #: ``(shm, fence_seq)``: safe to unlink once ``acked >= fence_seq``
        #: (FIFO command handling guarantees the worker processed the
        #: preceding ``detach`` by then).
        self.pending_unlinks: List[tuple] = []


class ShardWorkerPool:
    """One persistent process per shard, fed through shared memory.

    Parameters
    ----------
    configs:
        Per-shard :class:`~repro.monitor.config.SystemConfig` objects (as
        built by :class:`~repro.monitor.sharding.ShardedSystem`).
    query_factory:
        Zero-argument callable returning fresh query instances; called
        once *inside* each worker, so per-shard query state never crosses
        a process boundary.
    time_bin, names:
        Session parameters forwarded to each worker's
        ``open_session(time_bin=..., name=names[i])``.
    """

    def __init__(self, configs: Sequence, query_factory: Callable,
                 time_bin: float, names: Sequence[str],
                 buffers_per_worker: int = 2) -> None:
        if len(names) != len(configs):
            raise ValueError("need one session name per shard config")
        method = "fork" if fork_start_available() else None
        context = multiprocessing.get_context(method)
        self._closed_results: Optional[List] = None
        self._stopped = False
        self._failed: Optional[str] = None
        #: Every segment name this pool ever created (leak tests read it).
        self.created_segments: List[str] = []
        self._workers: List[_Worker] = []
        try:
            for index, config in enumerate(configs):
                command_recv, command_send = multiprocessing.Pipe(duplex=False)
                result_recv, result_send = multiprocessing.Pipe(duplex=False)
                slots = [self._new_slot(_MIN_SEGMENT_BYTES)
                         for _ in range(int(buffers_per_worker))]
                process = context.Process(
                    target=_shard_worker_main,
                    args=(index, config, query_factory, float(time_bin),
                          names[index], command_recv, result_send),
                    daemon=True,
                    name=f"repro-shard-{index}")
                process.start()
                # The worker owns these ends now; closing the parent's
                # copies keeps fd counts flat across many pools.
                command_recv.close()
                result_send.close()
                self._workers.append(_Worker(index, process, command_send,
                                             result_recv, slots))
        except BaseException:
            self.stop()
            raise

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._workers)

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
        except (BrokenPipeError, OSError):
            raise self._fail(
                f"shard worker {worker.index} died (its command channel is "
                "closed); the sharded execution cannot continue") from None

    def _recv(self, worker: _Worker):
        """Next response from ``worker``; raises if the worker died."""
        while True:
            try:
                if worker.results.poll(_POLL_INTERVAL):
                    response = worker.results.recv()
                    break
            except (EOFError, OSError):
                raise self._fail(
                    f"shard worker {worker.index} died mid-stream without "
                    "reporting a result") from None
            if not worker.process.is_alive():
                # One final drain: the worker may have answered (or sent
                # its error report) just before exiting.
                try:
                    if worker.results.poll(0):
                        response = worker.results.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise self._fail(
                    f"shard worker {worker.index} died mid-stream "
                    f"(exit code {worker.process.exitcode}) without "
                    "reporting a result")
        if response[0] == "error":
            raise self._fail(
                f"shard worker {response[1]} raised:\n{response[2]}")
        return response

    def _note_ack(self, worker: _Worker, seq: int) -> None:
        worker.acked = max(worker.acked, int(seq))
        while worker.pending_unlinks and \
                worker.pending_unlinks[0][1] <= worker.acked:
            shm, _ = worker.pending_unlinks.pop(0)
            self._release_segment(shm)

    @staticmethod
    def _release_segment(shm: shared_memory.SharedMemory) -> None:
        try:
            shm.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_async(self, shard: int, batch: Batch) -> int:
        """Ship one bin's sub-batch to ``shard``; returns its sequence id.

        Does not wait for the bin's record: with rebalancing off the
        caller may run up to ``buffers_per_worker`` bins ahead per shard
        (the slot acquisition below enforces exactly that window).  Pair
        with :meth:`wait_record` for lockstep semantics.
        """
        self._check_usable()
        worker = self._workers[shard]
        worker.seq += 1
        seq = worker.seq
        n = len(batch)
        segment_name = None
        if n:
            slot = worker.slots[seq % len(worker.slots)]
            # Flow control: the slot is free only once the bin that last
            # used it has been answered.
            while slot.busy_seq is not None and worker.acked < slot.busy_seq:
                response = self._recv(worker)
                self._note_ack(worker, response[1])
            needed = batch.buffer_nbytes()
            if needed > slot.capacity:
                # Grow: retire the old segment (unlink deferred until the
                # worker has provably moved past the detach message).
                self._send(worker, ("detach", slot.shm.name))
                worker.pending_unlinks.append((slot.shm, seq))
                new_slot = self._new_slot(int(needed * _GROWTH_FACTOR))
                worker.slots[seq % len(worker.slots)] = new_slot
                slot = new_slot
            batch.pack_into(slot.shm.buf)
            slot.busy_seq = seq
            segment_name = slot.shm.name
        self._send(worker, ("ingest", seq, segment_name, n, batch.time_bin,
                            batch.start_ts, batch.payloads))
        return seq

    def wait_record(self, shard: int, seq: int):
        """Block until ``shard`` answers sequence ``seq``; return its record.

        Responses arrive in FIFO order; records overtaken while waiting
        (possible only when the caller ran ahead with :meth:`ingest_async`)
        are acknowledged and dropped — their bins are already folded into
        the worker session's own result.
        """
        self._check_usable()
        worker = self._workers[shard]
        while worker.acked < seq:
            response = self._recv(worker)
            self._note_ack(worker, response[1])
            if response[0] == "record" and response[1] == seq:
                return response[2]
        raise ShardWorkerError(  # pragma: no cover - protocol error
            f"record {seq} of shard {shard} was already consumed")

    def ingest(self, parts: Sequence[Batch]) -> List:
        """Lockstep helper: one bin across all shards, records returned.

        All sub-batches are shipped first so the shards compute the bin
        concurrently; the parent then gathers one record per shard.
        """
        seqs = [self.ingest_async(shard, part)
                for shard, part in enumerate(parts)]
        return [self.wait_record(shard, seq)
                for shard, seq in enumerate(seqs)]

    # ------------------------------------------------------------------
    # Control messages (FIFO with the batches: bin-boundary semantics)
    # ------------------------------------------------------------------
    def set_capacity(self, shard: int, cycles_per_second: float) -> None:
        self._check_usable()
        self._send(self._workers[shard],
                   ("set_capacity", float(cycles_per_second)))

    def add_query(self, shard: int, query, start_time=None) -> None:
        self._check_usable()
        self._send(self._workers[shard], ("add_query", query, start_time))

    def remove_query(self, shard: int, name: str) -> None:
        self._check_usable()
        self._send(self._workers[shard], ("remove_query", name))

    # ------------------------------------------------------------------
    # Results and lifecycle
    # ------------------------------------------------------------------
    def partial_results(self) -> List:
        """Accuracy-so-far snapshot of every shard (sessions keep running)."""
        self._check_usable()
        seqs = []
        for worker in self._workers:
            worker.seq += 1
            self._send(worker, ("partial", worker.seq))
            seqs.append(worker.seq)
        return [self._await_payload(worker, seq, "partial")
                for worker, seq in zip(self._workers, seqs)]

    def metrics(self) -> List:
        """Per-shard ``(profiler, sharing_stats)`` pairs (sessions keep
        running).  FIFO with the batches, so each shard's numbers land at a
        bin boundary."""
        self._check_usable()
        seqs = []
        for worker in self._workers:
            worker.seq += 1
            self._send(worker, ("metrics", worker.seq))
            seqs.append(worker.seq)
        return [self._await_payload(worker, seq, "metrics")
                for worker, seq in zip(self._workers, seqs)]

    def session_states(self) -> List:
        """Checkpoint capture: every worker's resident session, copied out.

        FIFO with the batches, so the snapshot lands exactly at a bin
        boundary; the workers keep streaming afterwards.
        """
        self._check_usable()
        seqs = []
        for worker in self._workers:
            worker.seq += 1
            self._send(worker, ("state", worker.seq))
            seqs.append(worker.seq)
        return [self._await_payload(worker, seq, "state")
                for worker, seq in zip(self._workers, seqs)]

    def load_sessions(self, sessions: Sequence) -> None:
        """Checkpoint restore: replace every worker's resident session.

        Each worker adopts the session object shipped to it (state built by
        a prior execution), discarding the fresh one it constructed at
        startup; the ack keeps the restore synchronous, so the caller may
        ingest immediately after.
        """
        self._check_usable()
        if len(sessions) != len(self._workers):
            raise ValueError(
                f"need one session per shard worker: got {len(sessions)} "
                f"for {len(self._workers)} workers")
        seqs = []
        for worker, session in zip(self._workers, sessions):
            worker.seq += 1
            self._send(worker, ("load_session", worker.seq, session))
            seqs.append(worker.seq)
        for worker, seq in zip(self._workers, seqs):
            self._await_payload(worker, seq, "loaded")

    def _await_payload(self, worker: _Worker, seq: int, kind: str):
        while True:
            response = self._recv(worker)
            self._note_ack(worker, response[1])
            if response[0] == kind and response[1] == seq:
                return response[2]

    def close(self) -> List:
        """Flush every worker's session; returns per-shard execution results.

        Idempotent: later calls return the same result objects.  The pool
        is stopped (processes joined, segments unlinked) before returning.
        """
        if self._closed_results is not None:
            return self._closed_results
        self._check_usable()
        seqs = []
        for worker in self._workers:
            worker.seq += 1
            self._send(worker, ("close", worker.seq))
            seqs.append(worker.seq)
        results = [self._await_payload(worker, seq, "result")
                   for worker, seq in zip(self._workers, seqs)]
        self._closed_results = results
        self.stop()
        return results

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
            except Exception:
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
                except Exception:
                    pass
            for slot in worker.slots:
                self._release_segment(slot.shm)
            for shm, _ in worker.pending_unlinks:
                self._release_segment(shm)
            worker.pending_unlinks = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.stop()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else "running"
        return (f"ShardWorkerPool(shards={self.num_shards}, {state}, "
                f"pid={os.getpid()})")
