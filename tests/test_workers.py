"""Persistent shard workers: transport, lifecycle, and bit-identity.

The contracts under test:

* **Buffer transport** — a :class:`Batch` packed into the canonical column
  layout and rebuilt from the buffer is bit-identical to the original.
* **Backend transparency** — a sharded execution on the persistent worker
  pool is bit-identical to the in-process one in *all four* operating
  modes, including live reconfiguration mid-stream.
* **Lifecycle** — close/stop are idempotent, a worker dying mid-stream
  surfaces a :class:`ShardWorkerError` naming the process and every
  session it hosted (not a hang), and nothing outlives a pool however it
  stops — its workers are joined, the parent keeps no descriptor or
  mapping of a slot, and ``/dev/shm`` gains no entry.
* **Slot growth** — a bin larger than its slot grows the slot in place,
  also while the session's other slot is still being read, and the worker
  remaps it; results and checkpoints are unaffected.
* **More sessions than processes** — what the fleet runs: session ``i``
  lives on process ``i mod n``, and deliveries (records and flushed
  partials, in bin order, waited for or not), checkpointed states and
  failure reports still come back per session, in session order.
* **Driver hygiene** — a fleet run that fails mid-stream stops its
  workers, sessions that silently lost their requested parallelism warn
  instead, and a streaming trace replayed twice reads the same bins twice.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import runner, scenarios
from repro.fleet import FleetPartitioner, FleetRunner, FleetTopology
from repro.monitor import workers as workers_module
from repro.monitor.packet import COLUMN_FIELDS, Batch, column_layout
from repro.monitor.sharding import (InProcessShards, ShardedSystem,
                                   build_system)
from repro.monitor.system import ExecutionResult
from repro.monitor.workers import (ShardExecutionWarning, ShardWorkerError,
                                   ShardWorkerPool, effective_workers,
                                   fork_start_available)
from repro.queries import CounterQuery, FlowsQuery, make_query
from repro.serve.checkpoint import capture, restore_session
from repro.testing import assert_results_identical
from repro.traffic.trace_io import save_trace_store
from tests.conftest import (assert_pool_released, dev_shm, make_batch,
                            slot_files)

QUERY_SET = ("counter", "flows", "top-k", "application")

needs_fork = pytest.mark.skipif(
    not fork_start_available(),
    reason="the shard worker pool needs fork and os.memfd_create")


def _factory(names=QUERY_SET):
    return lambda: [make_query(name) for name in names]


@pytest.fixture(scope="module")
def golden_scenario():
    """Shared trace plus calibrated capacity for the golden query set."""
    trace = scenarios.build_workload("cesca", seed=2024, scale=0.15)
    capacity, reference = runner.calibrate_capacity(QUERY_SET, trace)
    return trace, capacity, reference


def _series_fingerprint(result):
    return {
        "query_cycles": result.series("query_cycles"),
        "mean_rate": result.series("mean_rate"),
        "dropped_packets": result.series("dropped_packets"),
        "predicted_cycles": result.series("predicted_cycles"),
        "delay": result.series("delay"),
    }


def _assert_identical(in_process, workers):
    serial = _series_fingerprint(in_process)
    pooled = _series_fingerprint(workers)
    for name in serial:
        assert np.array_equal(serial[name], pooled[name]), name
    assert in_process.total_packets == workers.total_packets
    assert in_process.dropped_packets == workers.dropped_packets
    for qname, log in in_process.query_logs.items():
        assert workers.query_logs[qname].intervals == log.intervals, qname
        assert workers.query_logs[qname].results == log.results, qname


# ----------------------------------------------------------------------
# Column-buffer transport
# ----------------------------------------------------------------------
class TestBatchBufferTransport:
    def test_layout_keeps_every_column_8_byte_aligned(self):
        columns, total = column_layout(1001)
        assert [name for name, _, _ in columns] == list(COLUMN_FIELDS)
        for _, dtype, offset in columns:
            assert offset % 8 == 0
        assert total % 8 == 0

    def test_pack_unpack_roundtrip_is_bit_identical(self):
        batch = make_batch(n=257, seed=11, payloads=True, start_ts=3.4)
        buffer = bytearray(batch.buffer_nbytes())
        used = batch.pack_into(buffer)
        assert used == batch.buffer_nbytes()
        rebuilt = Batch.from_buffer(buffer, len(batch),
                                    time_bin=batch.time_bin,
                                    start_ts=batch.start_ts,
                                    payloads=batch.payloads, copy=True)
        for column in COLUMN_FIELDS:
            original = getattr(batch, column)
            restored = getattr(rebuilt, column)
            assert restored.dtype == original.dtype, column
            assert np.array_equal(restored, original), column
        assert rebuilt.payloads == batch.payloads
        assert rebuilt.start_ts == batch.start_ts
        assert rebuilt.time_bin == batch.time_bin

    def test_copied_views_do_not_alias_the_buffer(self):
        batch = make_batch(n=64, seed=2)
        buffer = bytearray(batch.buffer_nbytes())
        batch.pack_into(buffer)
        rebuilt = Batch.from_buffer(buffer, len(batch), copy=True)
        before = rebuilt.src_ip.copy()
        buffer[:] = b"\x00" * len(buffer)  # worker slot gets repacked
        assert np.array_equal(rebuilt.src_ip, before)

    def test_pack_rejects_undersized_buffers(self):
        batch = make_batch(n=100, seed=5)
        with pytest.raises(ValueError):
            batch.pack_into(bytearray(batch.buffer_nbytes() - 1))


# ----------------------------------------------------------------------
# Backend transparency (bit-identity)
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerBitIdentity:
    @pytest.mark.parametrize("mode", ["predictive", "reactive", "original",
                                      "reference"])
    def test_workers_match_in_process(self, golden_scenario, mode):
        """All four modes run bit-identically on workers."""
        self._check(golden_scenario, mode)

    def test_workers_match_in_process_on_bitmaps(self, golden_scenario):
        """The same with the product-default feature counters (the harness
        default is exact counting); only the predictive mode reads them."""
        self._check(golden_scenario, "predictive", feature_method="bitmap")

    @staticmethod
    def _check(golden_scenario, mode, **overrides):
        trace, capacity, _ = golden_scenario
        config = runner.system_config(
            mode=mode, cycles_per_second=capacity * 0.5, seed=99,
            **overrides)
        in_process = ShardedSystem(_factory(), config=config,
                                   num_shards=2).run(trace)
        workers = ShardedSystem(_factory(), config=config, num_shards=2,
                                backend="workers").run(trace)
        _assert_identical(in_process, workers)

    def test_pipelined_streaming_matches_lockstep(self, golden_scenario):
        """``run`` takes the pipelined (run-ahead) ingest path; results
        must still match the strictly serial in-process replay."""
        trace, capacity, _ = golden_scenario
        config = runner.system_config(cycles_per_second=capacity * 0.5,
                                      seed=7)
        in_process = ShardedSystem(_factory(), config=config,
                                   num_shards=4).run(trace)
        workers = ShardedSystem(_factory(), config=config, num_shards=4,
                                backend="workers").run(trace)
        _assert_identical(in_process, workers)

    def test_streamed_store_matches_in_memory(self, golden_scenario,
                                              tmp_path):
        """Out-of-core replay (store -> streaming trace -> worker shards)
        equals the fully in-memory in-process run."""
        trace, capacity, _ = golden_scenario
        store = save_trace_store(trace, tmp_path / "golden")
        streaming = store.streaming()
        config = runner.system_config(cycles_per_second=capacity * 0.5,
                                      seed=13)
        in_memory = ShardedSystem(_factory(), config=config,
                                  num_shards=2).run(trace)
        streamed = ShardedSystem(_factory(), config=config, num_shards=2,
                                 backend="workers").run(streaming)
        serial = _series_fingerprint(in_memory)
        pooled = _series_fingerprint(streamed)
        for name in serial:
            assert np.array_equal(serial[name], pooled[name]), name

    def test_live_reconfiguration_matches_in_process(self):
        """Query departures/arrivals, capacity changes and partial
        snapshots mid-stream behave identically across backends."""
        config = runner.system_config(cycles_per_second=5e7, seed=3)
        batches = [make_batch(n=80, seed=s, start_ts=0.1 * s)
                   for s in range(24)]

        def drive(backend):
            sharded = ShardedSystem(_factory(("counter", "flows")),
                                    config=config, num_shards=2,
                                    backend=backend)
            session = sharded.open_session(name="reconfig")
            for batch in batches[:12]:
                session.ingest(batch)
            session.remove_query("flows")
            session.add_query(make_query("top-k"))
            session.set_capacity(4e7)
            for batch in batches[12:]:
                session.ingest(batch)
            partial = session.partial_result()
            return partial, session.close()

        partial_in, final_in = drive("inprocess")
        partial_w, final_w = drive("workers")
        _assert_identical(final_in, final_w)
        assert set(partial_w.query_logs) == set(partial_in.query_logs)
        for qname, log in partial_in.query_logs.items():
            assert partial_w.query_logs[qname].results == log.results

    def test_partial_result_mid_stream_is_bit_identical(self):
        """Snapshot-while-streaming: a ``partial_result`` taken from a
        live worker-pool session matches the serial session's snapshot at
        the same bin, and taking it perturbs neither stream."""
        config = runner.system_config(cycles_per_second=4e7, seed=11)
        batches = [make_batch(n=90, seed=s, start_ts=0.1 * s)
                   for s in range(20)]

        def drive(backend):
            sharded = ShardedSystem(_factory(("counter", "flows", "top-k")),
                                    config=config, num_shards=2,
                                    backend=backend)
            session = sharded.open_session(name="snapshot")
            partials = []
            for index, batch in enumerate(batches):
                session.ingest(batch)
                if index in (6, 13):
                    partials.append(session.partial_result())
            return partials, session.close()

        partials_in, final_in = drive("inprocess")
        partials_w, final_w = drive("workers")
        for snap_in, snap_w in zip(partials_in, partials_w):
            _assert_identical(snap_in, snap_w)
        _assert_identical(final_in, final_w)
        # The snapshots are frozen: the stream moved on, they did not.
        assert len(partials_w[0].bins) == 7
        assert len(partials_w[1].bins) == 14

    def test_auto_resolves_to_workers_when_parallelism_requested(self):
        system = ShardedSystem(_factory(("counter",)), num_shards=2,
                               n_workers=2, respect_cores=False,
                               config=runner.system_config())
        assert system.resolve_backend() == "workers"
        serial = ShardedSystem(_factory(("counter",)), num_shards=2,
                               config=runner.system_config())
        assert serial.resolve_backend() == "inprocess"


class TestEffectiveWorkers:
    def test_clamps_to_the_sessions_it_would_host(self):
        assert effective_workers(8, 3, respect_cores=False) == 3
        assert effective_workers(2, 5, respect_cores=False) == 2

    def test_clamps_to_the_host_unless_told_not_to(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert effective_workers(8, 8) == 2
        assert effective_workers(8, 8, respect_cores=False) == 8
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert effective_workers(4, 4) == 1

    @pytest.mark.parametrize("n_workers", [0, -2, -3])
    def test_a_count_below_one_is_refused_on_every_tier(self, n_workers):
        config = runner.system_config(queries="counter")
        for refuse in (
                lambda: effective_workers(n_workers, 3, respect_cores=False),
                lambda: ShardedSystem(config=config, num_shards=2,
                                      n_workers=n_workers),
                lambda: build_system(config, n_workers=n_workers),
                lambda: FleetRunner(FleetTopology.uniform(2), config=config,
                                    n_workers=n_workers)):
            with pytest.raises(ValueError,
                               match="n_workers must be at least 1"):
                refuse()


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def _exited(pid):
    """Whether ``pid`` is gone, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _kill(pid):
    """SIGKILL a pool's worker and wait until it is dead, leaving it for
    the pool to reap."""
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not _exited(pid) and time.monotonic() < deadline:
        time.sleep(0.01)


@needs_fork
class TestPoolLifecycle:
    def _open_worker_session(self, num_shards=2):
        sharded = ShardedSystem(_factory(("counter",)), num_shards=num_shards,
                                backend="workers",
                                config=runner.system_config(
                                    cycles_per_second=1e9))
        return sharded.open_session(name="lifecycle")

    def test_close_is_idempotent_and_closes_every_slot(self):
        shm = dev_shm()
        session = self._open_worker_session()
        for s in range(6):
            session.ingest(make_batch(n=120, seed=s, start_ts=0.1 * s))
        pool = session._executor
        # Two slots a session, each a descriptor and a mapping of it.
        assert len([entry for entry in slot_files()
                    if entry.startswith("fd ")]) >= 4
        first = session.close()
        assert session.close() is first
        assert_pool_released(pool, shm)

    def test_workers_exit_when_their_parent_is_killed(self):
        """SIGKILL the process that owns a pool: nothing stops the pool,
        but every worker reads end-of-file on its command pipe and exits,
        closing the last descriptors of the slots."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import time\n"
            "from repro.experiments import runner\n"
            "from repro.monitor.workers import ShardWorkerPool\n"
            "from tests.conftest import make_batch\n"
            "pool = ShardWorkerPool([runner.system_config(queries='counter')]"
            " * 3, None, 0.1, ['a', 'b', 'c'], processes=2)\n"
            "pool.ingest([make_batch(n=500, seed=s) for s in range(3)])\n"
            "print(*[w.pid for w in pool._workers], flush=True)\n"
            "time.sleep(60)\n")
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                str(root)])})
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2

        deadline = time.monotonic() + 10.0
        while not all(map(_exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if not _exited(pid)]
        for pid in survivors:  # leave no process behind, whatever happens
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    @pytest.mark.parametrize("processes", (4, 8))
    def test_every_worker_holds_the_same_pipes(self, processes):
        """The fork copies the parent's end of every earlier worker's socket
        and every slot; a worker closes them, so whatever its index it holds
        of the pool exactly its own socket, no pipe, and the two slots of
        the session it hosts.  (Descriptors this process held before the
        pool started, the test runner's, are not the pool's.)"""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/<pid>/fd")

        def files_of(pid):
            files = {}
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    path = f"/proc/{pid}/fd/{fd}"
                    stat = os.stat(path)
                    files[stat.st_dev, stat.st_ino] = os.readlink(path)
                except OSError:  # the listing's own descriptor, closed
                    continue
            return files

        before = files_of("self")
        shm = dev_shm()
        pool = ShardWorkerPool(
            [runner.system_config(queries="counter")] * processes, None, 0.1,
            [f"p{index}" for index in range(processes)])
        try:
            pool.session_metrics()  # every worker is past its start-up
            held = [sorted(target for key, target in
                           files_of(worker.pid).items() if key not in before)
                    for worker in pool._workers]
        finally:
            pool.close()
        for index, targets in enumerate(held):
            assert [target.partition("[")[0] for target in targets
                    if not target.startswith("/")] == ["socket:"], targets
            assert [target for target in targets if target.startswith("/")] \
                == [f"/memfd:repro-slot-{index} (deleted)"] * 2, targets
        assert_pool_released(pool, shm)

    def test_the_last_worker_exits_within_a_second_of_its_parent(self):
        """SIGKILL the owner of a 4-process pool: every worker, the last
        forked included, exits within a second, because no other worker
        holds a copy of its command pipe."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import time\n"
            "from repro.experiments import runner\n"
            "from repro.monitor.workers import ShardWorkerPool\n"
            "pool = ShardWorkerPool([runner.system_config(queries='counter')]"
            " * 4, None, 0.1, ['a', 'b', 'c', 'd'])\n"
            "pool.session_metrics()\n"
            "print(*[w.pid for w in pool._workers], flush=True)\n"
            "time.sleep(60)\n")
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                str(root)])})
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        killed = time.monotonic()
        assert len(pids) == 4
        deadline = killed + 1.0
        while not all(map(_exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        survivors = [pid for pid in pids if not _exited(pid)]
        for pid in survivors:  # leave no process behind, whatever happens
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    def test_stop_terminates_a_worker_that_does_not_answer(self,
                                                           monkeypatch):
        """A worker that never reads its ``stop`` (here: SIGSTOPped) is
        killed after the join timeout and reaped, and :meth:`stop` returns
        within twice that timeout: the worker's socket, which the parent
        waits on, stays open while the worker lives."""
        timeout = 0.5
        monkeypatch.setattr(workers_module, "_JOIN_TIMEOUT", timeout)
        shm = dev_shm()
        pool = ShardWorkerPool([runner.system_config(queries="counter")] * 2,
                               None, 0.1, ["a", "b"])
        pool.session_metrics()
        stuck = pool._workers[1].pid
        os.kill(stuck, signal.SIGSTOP)
        stopper = threading.Thread(target=pool.stop, daemon=True)
        began = time.monotonic()
        stopper.start()
        stopper.join(timeout=10.0)
        took = time.monotonic() - began
        hung = stopper.is_alive()
        if hung:  # end it, so that the stopper can reap it
            os.kill(stuck, signal.SIGKILL)
            stopper.join()
        assert not hung
        assert took < 2 * timeout + 1.0
        assert_pool_released(pool, shm)

    def test_stop_is_idempotent_and_safe_after_close(self):
        session = self._open_worker_session()
        session.ingest(make_batch(n=50, seed=1))
        session.close()
        pool = session._executor
        pool.stop()
        pool.stop()
        assert pool._stopped

    def test_worker_death_mid_stream_surfaces_clear_error(self):
        shm = dev_shm()
        session = self._open_worker_session()
        session.ingest(make_batch(n=50, seed=1))
        pool = session._executor
        _kill(pool._workers[1].pid)
        with pytest.raises(ShardWorkerError, match="shard worker 1 .*"
                           "exit code -9"):
            for s in range(2, 12):
                session.ingest(make_batch(n=50, seed=s, start_ts=0.1 * s))
        # The failure stops the pool and releases every slot...
        assert_pool_released(pool, shm)
        # ...and later use reports the failure instead of hanging.
        with pytest.raises(ShardWorkerError):
            session.ingest(make_batch(n=50, seed=99))

    def test_closed_worker_session_rejects_use(self):
        session = self._open_worker_session()
        session.ingest(make_batch(n=40, seed=2))
        session.close()
        with pytest.raises(RuntimeError):
            session.ingest(make_batch(n=40, seed=3))
        with pytest.raises(RuntimeError):
            session.set_capacity(1e6)

    def test_worker_session_validates_queries_in_the_parent(self):
        session = self._open_worker_session()
        with pytest.raises(ValueError):
            session.add_query(make_query("counter"))  # duplicate
        with pytest.raises(KeyError):
            session.remove_query("no-such-query")
        session.close()

    def test_context_manager_stops_pool_on_error(self):
        shm = dev_shm()
        session = self._open_worker_session()
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        assert_pool_released(session._executor, shm)

    def test_a_failed_start_stops_what_it_started(self, monkeypatch):
        """The second worker fails to start: the first is joined and every
        slot, all made before the first fork, is closed."""
        shm = dev_shm()
        pools = []

        class RecordedPool(ShardWorkerPool):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        fork = os.fork
        forks = []

        def failing_fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError("no more processes")
            return fork()

        monkeypatch.setattr(workers_module.os, "fork", failing_fork)
        with pytest.raises(OSError, match="no more processes"):
            RecordedPool([runner.system_config(queries="counter")] * 3,
                         None, 0.1, ["a", "b", "c"])
        pool, = pools
        assert len(pool._workers) == 1
        assert [len(session.slots) for session in pool._sessions] == [2] * 3
        assert_pool_released(pool, shm)


# ----------------------------------------------------------------------
# Slot growth
# ----------------------------------------------------------------------
class _Bins:
    """A trace of the given bins, for ``ingest_trace`` to pipeline."""

    def __init__(self, bins):
        self.bins = bins

    def batches(self, time_bin):
        return iter(self.bins)


@needs_fork
class TestSlotGrowth:
    #: Packets in a bin: a shard's part holds about half, so both slots of
    #: a session go 64 KiB -> ~150 KiB -> ~1.2 MiB over the first six bins.
    SIZES = (100, 100, 10_000, 10_000, 80_000, 80_000,
             100, 80_000, 10_000, 100, 80_000, 100)
    #: Bins before the checkpoint.
    CUT = 6

    def test_growing_slots_twice_mid_stream_changes_no_result(
            self, monkeypatch):
        """Both slots of each shard grow twice in the first six bins,
        pipelined, so a slot grows while the other one still holds the
        previous bin; the worker remaps it.  The run equals the in-process
        one, and a checkpoint taken after the growth continues on a fresh
        pool bit-identically."""
        config = runner.system_config(queries="counter,flows", seed=4,
                                      cycles_per_second=2e8)
        bins = [make_batch(n=n, seed=index, start_ts=0.1 * index,
                           n_hosts=500)
                for index, n in enumerate(self.SIZES)]
        growths = []  # (shard, needed / capacity, other slot still busy)
        ingest_async = ShardWorkerPool.ingest_async

        def watched(pool, shard, batch):
            session = pool._sessions[shard]
            slot, other = (session.slots[(session.ingests + k) % 2]
                           for k in (0, 1))
            capacity = len(slot.view)
            seq = ingest_async(pool, shard, batch)
            if len(slot.view) != capacity:
                # Acks only move forward: busy now, busy at the growth.
                growths.append((shard,
                                batch.buffer_nbytes() / capacity,
                                session.worker.acked < other.busy_seq))
            return seq

        monkeypatch.setattr(ShardWorkerPool, "ingest_async", watched)

        def node(backend):
            return ShardedSystem(config=config, num_shards=2,
                                 backend=backend).open_session(name="grow")

        expected = node("inprocess").ingest_trace(_Bins(bins)).close()
        session = node("workers").ingest_trace(_Bins(bins[:self.CUT]))
        blob = capture(session)
        assert sorted(shard for shard, _, _ in growths) == [0] * 4 + [1] * 4
        assert all(ratio > 1.25 for _, ratio, _ in growths)
        assert any(busy for _, _, busy in growths)
        session.close()
        assert_results_identical(
            expected, node("workers").ingest_trace(_Bins(bins)).close(),
            "grown")

        restored = restore_session(blob, n_workers=2, backend="workers",
                                   respect_cores=False)
        assert restored.backend == "workers"
        del growths[:]
        restored.ingest_trace(_Bins(bins[self.CUT:]))
        assert_results_identical(expected, restored.close(), "restored")
        assert growths  # the fresh pool grew its slots too


# ----------------------------------------------------------------------
# A host that cannot run a pool
# ----------------------------------------------------------------------
class TestHostWithoutPool:
    """No ``fork`` start method or no ``os.memfd_create``: ``auto`` runs
    in-process, and an explicit pool is refused in one error."""

    REFUSAL = "needs the fork start method and os.memfd_create"

    @pytest.fixture(autouse=True)
    def host_without_pool(self, monkeypatch):
        monkeypatch.setattr(workers_module, "fork_start_available",
                            lambda: False)

    @staticmethod
    def _config():
        return runner.system_config(queries="counter",
                                    cycles_per_second=1e9)

    def test_auto_runs_in_process_and_warns(self):
        system = ShardedSystem(config=self._config(), num_shards=2,
                               n_workers=2, respect_cores=False)
        assert system.resolve_backend() == "inprocess"
        with pytest.warns(ShardExecutionWarning, match="in-process"):
            session = system.open_session(name="no-pool")
        session.ingest(make_batch(n=30, seed=1))
        assert session.close().total_packets == 30
        assert FleetRunner(FleetTopology.uniform(2), config=self._config(),
                           n_workers=2, respect_cores=False
                           ).resolve_backend() == "inprocess"

    def test_an_explicit_pool_is_refused_in_one_error(self, monkeypatch):
        forks = []

        def no_fork():
            forks.append(None)
            raise OSError("forked")

        monkeypatch.setattr(workers_module.os, "fork", no_fork)
        shm = dev_shm()
        system = ShardedSystem(config=self._config(), num_shards=2,
                               n_workers=2, respect_cores=False,
                               backend="workers")
        with pytest.raises(ValueError, match=self.REFUSAL):
            system.open_session(name="refused")
        fleet = FleetRunner(FleetTopology.uniform(2), config=self._config(),
                            n_workers=2, respect_cores=False, backend="fork")
        with pytest.raises(ValueError, match=self.REFUSAL):
            fleet.run(scenarios.build_workload("cesca", seed=1, scale=0.05))
        # Refused before anything was started.
        assert not forks
        assert dev_shm() <= shm


# ----------------------------------------------------------------------
# More sessions than processes (what a fleet runs)
# ----------------------------------------------------------------------
@needs_fork
class TestSessionsSharingProcesses:
    NAMES = [f"stream[s{index}]" for index in range(5)]

    @staticmethod
    def _configs():
        """Five sessions that differ, so a mix-up between them shows."""
        return [runner.system_config(queries="counter,flows", seed=index,
                                     cycles_per_second=(2 + index) * 1e5)
                for index in range(5)]

    def _pool(self):
        return ShardWorkerPool(self._configs(), None, 0.1, self.NAMES,
                               processes=2)

    def _serial(self):
        return InProcessShards([config.build() for config in self._configs()],
                               0.1, self.NAMES)

    @staticmethod
    def _bins(count, start=0):
        """Per bin, five parts of different sizes (one of them empty)."""
        return [[make_batch(n=40 * ((bin_ + session) % 5),
                            seed=10 * bin_ + session, start_ts=0.1 * bin_)
                 for session in range(5)]
                for bin_ in range(start, start + count)]

    def _results(self, executor):
        """Every session's deliveries folded, and each bin's wall seconds
        popped with its record, as their owner would."""
        results = []
        for queue, seconds, config, name in zip(
                executor.arrived, executor.ingest_seconds, self._configs(),
                self.NAMES):
            result = ExecutionResult(config.mode, config.strategy, name,
                                     config.make_budget(0.1))
            while queue:
                record, flushed = queue.popleft()
                if record is not None:
                    assert seconds.popleft() > 0.0
                result.fold(record, flushed, ["counter", "flows"])
            assert not seconds
            results.append(result)
        return results

    def test_records_and_results_come_back_in_session_order(self):
        shm = dev_shm()
        pool, serial = self._pool(), self._serial()
        assert [worker.hosted for worker in pool._workers] == [
            ["stream[s0]", "stream[s2]", "stream[s4]"],
            ["stream[s1]", "stream[s3]"]]
        for parts in self._bins(8):
            got, want = pool.ingest(parts), serial.ingest(parts)
            assert [r.incoming_packets for r in got] == \
                [len(part) for part in parts]
            assert got == want
        # Run ahead for a while: records nobody waits for are delivered
        # all the same, and their seconds counted.
        for parts in self._bins(6, start=8):
            for session, part in enumerate(parts):
                pool.ingest_async(session, part)
            serial.ingest(parts)
        metrics = pool.session_metrics()
        assert [m["profile"]["bins"] for m in metrics] == [14] * 5
        assert pool.close() is None and pool.close() is None
        serial.close()
        for mine, theirs in zip(self._results(pool), self._results(serial)):
            assert_results_identical(theirs, mine, mine.trace_name)
            assert len(mine.bins) == 14
        assert_pool_released(pool, shm)

    def test_a_worker_keeps_only_its_own_sessions_slots(self):
        """The fork copies every live slot, of this pool and of any other,
        each with the parent's mapping of it; a worker keeps the two
        descriptors of each session it hosts, and maps them itself."""
        def slots_of(worker):
            pid = worker.pid
            return sorted(
                target for target in (os.readlink(f"/proc/{pid}/fd/{fd}")
                                      for fd in os.listdir(f"/proc/{pid}/fd"))
                if target.startswith("/memfd:repro-slot"))

        shm = dev_shm()
        other = self._pool()  # alive when the second pool forks
        pool = ShardWorkerPool(self._configs()[:4], None, 0.1,
                               self.NAMES[:4], processes=2)
        pool.session_metrics()  # both workers are past their start-up
        for index, worker in enumerate(pool._workers):
            assert slots_of(worker) == sorted(
                f"/memfd:repro-slot-{session} (deleted)"
                for session in (index, index + 2) for _ in range(2))
        # Two bins with no empty part: each session's bins went through
        # both its slots.
        for parts in self._bins(1, start=1) + self._bins(1, start=6):
            pool.ingest(parts[:4])
        for worker in pool._workers:  # a descriptor and a mapping a slot
            assert len(slots_of(worker)) == 2 * 2 * 2
        pool.close()
        other.close()
        for stopped in (pool, other):
            assert_pool_released(stopped, shm)

    def test_sessions_deliver_records_and_partials_in_order(self):
        """A resident session keeps nothing: every record, waited for or
        not, and the partial of every flushed interval is queued per
        session in bin order, the last intervals' behind a ``None`` record
        when ``close`` flushed them."""
        shm = dev_shm()
        pool, serial = self._pool(), self._serial()
        for parts in self._bins(8):
            assert pool.ingest(parts) == serial.ingest(parts)
        for parts in self._bins(6, start=8):  # nobody waits for these
            for session, part in enumerate(parts):
                pool.ingest_async(session, part)
            serial.ingest(parts)
        assert pool.close() is None and serial.close() is None
        assert pool.partial_bytes > 0 == serial.partial_bytes
        for mine, theirs in zip(pool.arrived, serial.arrived):
            assert list(mine) == list(theirs)
            assert [None if record is None else record.index
                    for record, _ in mine] == list(range(14)) + [None]
            flushed = [entry[:3] for _, shipped in mine for entry in shipped]
            assert flushed == [("counter", 0.0, CounterQuery),
                               ("flows", 0.0, FlowsQuery),
                               ("counter", 1.0, CounterQuery),
                               ("flows", 1.0, FlowsQuery)]
        assert_pool_released(pool, shm)

    def test_session_states_round_trip_through_another_pool(self):
        shm = dev_shm()
        bins = self._bins(12)
        first, serial = self._pool(), self._serial()
        for parts in bins[:6]:
            first.ingest(parts)
            serial.ingest(parts)
        states = pickle.loads(pickle.dumps(first.session_states()))
        first.stop()
        assert [state.name for state in states] == self.NAMES
        second = self._pool()
        with pytest.raises(ValueError, match="one session per"):
            second.load_sessions(states[:4])
        second.load_sessions(states)
        for queue in serial.arrived:  # what the first pool delivered
            queue.clear()
        for parts in bins[6:]:
            assert second.ingest(parts) == serial.ingest(parts)
        second.close()
        serial.close()
        assert [list(queue) for queue in second.arrived] == \
            [list(queue) for queue in serial.arrived]
        for pool in (first, second):
            assert_pool_released(pool, shm)

    def test_dead_worker_names_every_session_it_hosted(self, caplog):
        shm = dev_shm()
        pool = self._pool()
        bins = self._bins(6)
        pool.ingest(bins[0])
        _kill(pool._workers[0].pid)
        with pytest.raises(ShardWorkerError) as failure:
            for parts in bins[1:]:
                pool.ingest(parts)
        message = str(failure.value)
        assert "shard worker 0" in message
        for name in ("stream[s0]", "stream[s2]", "stream[s4]"):
            assert name in message
        assert "stream[s1]" not in message
        assert_pool_released(pool, shm)
        with pytest.raises(ShardWorkerError, match="stream\\[s4\\]"):
            pool.close()
        # Logged once, where it was raised; a later refusal is not news.
        assert [(record.name, record.levelname, record.getMessage())
                for record in caplog.records] == \
            [("repro.monitor.workers", "ERROR", message)]

    def test_raising_session_names_its_process_mates(self, caplog):
        pool = self._pool()
        pool.add_query(3, make_query("counter"))  # a duplicate name
        with pytest.raises(ShardWorkerError) as failure:
            pool.ingest(self._bins(1)[0])
        message = str(failure.value)
        assert "shard worker 1 (hosting stream[s1], stream[s3]) raised" \
            in message
        assert "already registered" in message  # the worker's traceback
        assert pool._stopped
        assert [record.getMessage() for record in caplog.records
                if record.name == "repro.monitor.workers"] == [message]

    def test_running_ahead_of_a_crowded_process_cannot_wedge_its_pipes(self):
        """Empty parts take no buffer slot, so only the per-process window
        bounds how far a reader runs ahead: without it 4,000 unanswered
        bins fill the worker's result pipe, then its command pipe, and
        parent and worker wait on each other for ever."""
        configs = [runner.system_config(queries="counter", seed=index,
                                        cycles_per_second=1e9)
                   for index in range(40)]
        pool = ShardWorkerPool(configs, None, 0.1,
                               [f"s{index}" for index in range(40)],
                               processes=1)
        #: Per session, the bin index of every record popped, in order.
        delivered = [[] for _ in range(40)]

        def drain():
            for queue, seconds, indices in zip(pool.arrived,
                                               pool.ingest_seconds, delivered):
                while queue:
                    record, _ = queue.popleft()
                    if record is not None:
                        seconds.popleft()
                    indices.append(None if record is None else record.index)

        def run_ahead():
            for bin_ in range(100):
                empty = Batch.empty(time_bin=0.1, start_ts=0.1 * bin_)
                for session in range(40):
                    pool.ingest_async(session, empty)
                drain()
            pool.close()
            drain()

        reader = threading.Thread(target=run_ahead, daemon=True)
        reader.start()
        reader.join(timeout=60.0)
        try:
            assert not reader.is_alive(), "parent and worker are deadlocked"
        finally:
            if reader.is_alive():  # frees a wedged reader too
                for worker in pool._workers:
                    os.kill(worker.pid, signal.SIGKILL)
        assert delivered == [list(range(100)) + [None]] * 40
        assert not any(pool.ingest_seconds)

    def test_lockstep_bin_wider_than_the_window_keeps_every_record(self):
        """Ten sessions a process, eight unanswered bins allowed: the
        lockstep helper gathers a stride's records before it ships on."""
        configs = [runner.system_config(queries="counter", seed=index,
                                        cycles_per_second=1e9)
                   for index in range(20)]
        pool = ShardWorkerPool(configs, None, 0.1,
                               [f"s{index}" for index in range(20)],
                               processes=2)
        try:
            for bin_ in range(3):
                parts = [make_batch(n=5 * session, seed=session,
                                    start_ts=0.1 * bin_)
                         for session in range(20)]
                records = pool.ingest(parts)
                assert [record.incoming_packets for record in records] == \
                    [5 * session for session in range(20)]
        finally:
            pool.stop()

    def test_more_processes_than_sessions_is_refused(self):
        with pytest.raises(ValueError, match="5 sessions on 6 processes"):
            ShardWorkerPool(self._configs(), None, 0.1, self.NAMES,
                            processes=6)


# ----------------------------------------------------------------------
# Driver hygiene
# ----------------------------------------------------------------------
@needs_fork
class TestFleetOnThePool:
    def test_failed_run_stops_its_workers_and_closes_every_slot(
            self, monkeypatch):
        """A crash in the middle of a fleet run must leave neither worker
        processes nor slot descriptors and mappings behind."""
        shm = dev_shm()
        pools = []

        class RecordedPool(ShardWorkerPool):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        # The runner imports the pool when it starts one.
        monkeypatch.setattr(workers_module, "ShardWorkerPool",
                            RecordedPool)
        split = FleetPartitioner.split
        calls = []

        def exploding_split(partitioner, batch):
            calls.append(batch)
            if len(calls) == 4:
                raise RuntimeError("reader crashed")
            return split(partitioner, batch)

        monkeypatch.setattr(FleetPartitioner, "split", exploding_split)
        fleet = FleetRunner(
            FleetTopology.uniform(4), n_workers=2, backend="fork",
            respect_cores=False,
            config=runner.system_config(queries="counter",
                                        cycles_per_second=1e9))
        trace = scenarios.build_workload("cesca", seed=1, scale=0.05)
        with pytest.raises(RuntimeError, match="reader crashed"):
            fleet.run(trace)
        pool, = pools
        assert len(pool._workers) == 2
        assert [len(session.slots) for session in pool._sessions] == [2] * 4
        assert_pool_released(pool, shm)


class TestExecutionWarnings:
    def test_session_warns_when_requested_workers_run_in_process(self):
        system = ShardedSystem(_factory(("counter",)), num_shards=2,
                               n_workers=4, backend="inprocess",
                               config=runner.system_config(
                                   cycles_per_second=1e9))
        with pytest.warns(ShardExecutionWarning, match="in-process"):
            session = system.open_session(name="degraded")
        session.ingest(make_batch(n=30, seed=1))
        session.close()

    def test_no_warning_when_serial_execution_was_asked_for(self,
                                                            recwarn):
        system = ShardedSystem(_factory(("counter",)), num_shards=2,
                               config=runner.system_config(
                                   cycles_per_second=1e9))
        session = system.open_session(name="serial")
        session.close()
        assert not [w for w in recwarn
                    if issubclass(w.category, ShardExecutionWarning)]


class TestStreamingReplay:
    """One streaming view, replayed more than once: there is no cache to
    warm and no counter to reset, so every pass reads the same bins."""

    @pytest.fixture()
    def store(self, tmp_path):
        trace = scenarios.build_workload("cesca", seed=5, scale=0.05)
        return save_trace_store(trace, tmp_path / "replayed")

    def test_back_to_back_replays_over_one_view_are_identical(self, store):
        streaming = store.streaming()
        config = runner.system_config(cycles_per_second=1e9)
        in_memory = config.build([make_query("counter")]).run(
            store.to_trace())
        first = config.build([make_query("counter")]).run(streaming)
        second = config.build([make_query("counter")]).run(streaming)
        _assert_identical(in_memory, first)
        _assert_identical(first, second)

    def test_every_view_and_every_pass_reads_equal_bins(self, store):
        one, other = store.streaming(), store.streaming()
        bins = one.batch_list(0.1)
        for index, theirs in enumerate(other.batches(0.1)):
            mine, again = bins[index], bins[index]
            assert mine is not again  # rebuilt, not remembered
            for column in COLUMN_FIELDS:
                assert np.array_equal(getattr(mine, column),
                                      getattr(theirs, column))
                assert np.array_equal(getattr(mine, column),
                                      getattr(again, column))
        assert index + 1 == len(bins) == one.num_batches(0.1)
