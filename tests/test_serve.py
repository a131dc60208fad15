"""The serve subsystem: feeds, daemon, ops API, end-to-end bit-identity.

The contracts under test:

* **Feeds** — every feed delivers exactly the bins an offline replay of
  the same source would: ReplayFeed mirrors ``batch_list``, TailFeed
  follows a store another writer is still flushing and converges on the
  finished store's bins, GeneratorFeed reproduces the
  ``generate_trace_store`` segment recipe, SocketFeed bins JSONL records
  at ``time_bin`` boundaries.
* **Daemon end to end** — a daemon fed live traffic, reconfigured over
  HTTP mid-stream and checkpointed, produces (a) the same final result as
  an uninterrupted in-process run with the same reconfiguration, and (b)
  a checkpoint whose restore finishes to that same result.
* **Ops API** — /status, /queries, /capacity, /config, /result behave;
  /metrics emits parseable Prometheus text exposition format; errors map
  to 400/404/409 with JSON bodies.
"""

import asyncio
import json
import pickle
import re
import shutil
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.experiments import runner
from repro.serve import (GeneratorFeed, MonitorDaemon, ReplayFeed,
                         SocketFeed, TailFeed, describe_checkpoint,
                         restore_session)
from repro.serve.api import render_metrics
from repro.monitor.packet import Batch, PacketTrace
from repro.testing import assert_results_identical
from repro.traffic.generator import TrafficProfile, generate_trace_store
from repro.traffic.trace_io import TraceStore, TraceWriter
from tests.conftest import assert_bins_identical

CAPACITY = 2.0e7
TIME_BIN = 0.1


def _collect(feed):
    """Drain a feed's async iterator into a list of batches."""
    async def gather():
        return [batch async for batch in feed.batches()]
    return asyncio.run(gather())


# ----------------------------------------------------------------------
# Feeds
# ----------------------------------------------------------------------
def test_replay_feed_matches_batch_list(small_trace):
    feed = ReplayFeed(small_trace, time_bin=TIME_BIN)
    batches = _collect(feed)
    assert_bins_identical(batches, small_trace.batch_list(TIME_BIN),
                          "replay")
    assert feed.done


def test_replay_feed_from_store_path(tmp_path, small_trace):
    from repro.traffic.trace_io import save_trace_store
    store = save_trace_store(small_trace, tmp_path / "store")
    feed = ReplayFeed(str(tmp_path / "store"), time_bin=TIME_BIN)
    batches = _collect(feed)
    assert_bins_identical(batches,
                          store.streaming().batch_list(TIME_BIN),
                          "replay-store")


def test_replay_feed_stop_ends_early(small_trace):
    feed = ReplayFeed(small_trace, time_bin=TIME_BIN)

    async def gather():
        got = []
        async for batch in feed.batches():
            got.append(batch)
            if len(got) == 3:
                feed.stop()
        return got

    got = asyncio.run(gather())
    assert len(got) == 3
    assert feed.done


def test_generator_feed_matches_trace_store(tmp_path):
    """The live generator reproduces the store generator's exact stream."""
    profile = TrafficProfile(duration=3.0, flow_arrival_rate=120.0,
                             name="genfeed")
    store = generate_trace_store(tmp_path / "gen", profile, seed=11,
                                 segment_duration=1.0, time_bin=TIME_BIN)
    expected = store.streaming().batch_list(TIME_BIN)
    feed = GeneratorFeed(profile, seed=11, time_bin=TIME_BIN,
                         segment_duration=1.0)
    assert_bins_identical(_collect(feed), list(expected), "generator")


def test_generator_feed_max_bins():
    profile = TrafficProfile(duration=5.0, flow_arrival_rate=120.0)
    feed = GeneratorFeed(profile, seed=2, time_bin=TIME_BIN,
                         segment_duration=1.0, max_bins=7)
    assert len(_collect(feed)) == 7


def test_tail_feed_follows_growing_store(tmp_path, small_trace):
    """Bins stream out while the writer is mid-flight; total = full store."""
    pkts = small_trace.packets
    split = int(np.searchsorted(pkts.ts, float(pkts.ts[0]) + 2.0))
    path = tmp_path / "tail"
    writer = TraceWriter(path, name="tail", time_bin=TIME_BIN)
    writer.append(pkts.select(np.arange(split)))
    writer.flush()
    assert TraceStore(path).complete is False

    feed = TailFeed(path, time_bin=TIME_BIN, poll_interval=0.05)
    progressed = threading.Event()

    def finish_writing():
        progressed.wait(timeout=10.0)
        writer.append(pkts.select(np.arange(split, len(pkts))))
        writer.close()

    finisher = threading.Thread(target=finish_writing)
    finisher.start()

    async def gather():
        got = []
        async for batch in feed.batches():
            got.append(batch)
            progressed.set()  # first bins arrived from the partial store
        return got

    batches = asyncio.run(gather())
    finisher.join()
    store = TraceStore(path)
    assert store.complete is True
    assert_bins_identical(batches, store.streaming().batch_list(TIME_BIN),
                          "tail")


def _socket_bins(records, time_bin):
    """Send ``records`` (a ``bytes`` entry goes out verbatim) to a fresh
    SocketFeed over TCP; return the bins it emits once stopped, and the
    feed."""
    async def scenario():
        feed = SocketFeed(time_bin=time_bin)
        await feed.start()
        got = []

        async def consume():
            async for batch in feed.batches():
                got.append(batch)

        consumer = asyncio.ensure_future(consume())
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       feed.bound_port)
        for record in records:
            writer.write(record if isinstance(record, bytes)
                         else (json.dumps(record) + "\n").encode())
        await writer.drain()
        writer.close()
        await asyncio.sleep(0.2)
        feed.stop()
        await asyncio.wait_for(consumer, timeout=5.0)
        return got, feed

    return asyncio.run(scenario())


def _record(i, ts):
    return {"ts": ts, "src_ip": "10.0.0.%d" % (i % 4), "dst_ip": 167772161,
            "src_port": 1024 + i, "dst_port": 80, "proto": 6,
            "size": 100 + i}


def _replayed(records, time_bin):
    """The bins a replay of ``records``, in timestamp order, cuts."""
    records = sorted(records, key=lambda rec: rec["ts"])
    columns = {name: [rec[name] for rec in records]
               for name in ("ts", "dst_ip", "src_port", "dst_port", "proto",
                            "size")}
    columns["src_ip"] = [0x0A000000 + int(rec["src_ip"].split(".")[-1])
                         for rec in records]
    return PacketTrace(Batch(**columns)).batch_list(time_bin)


def test_socket_feed_bins_jsonl_records():
    # Records span [0, 1.5] s; 1.5 s is the edge of the seventh bin of
    # 250 ms, so the last bin holds only the final record.
    records = [_record(i, i / 16) for i in range(25)]
    batches, _ = _socket_bins(
        records + [b"this is not json\n"], 0.25)  # ignored, stream lives
    total = sum(len(batch) for batch in batches)
    assert total == len(records)
    assert [len(batch) for batch in batches] == [4, 4, 4, 4, 4, 4, 1]
    assert batches[0].src_port[0] == 1024
    assert_bins_identical(batches, _replayed(records, 0.25), "socket")


def test_socket_feed_bins_the_way_a_replay_does():
    """0.6 s lies below edge 6 (``0.1 * 6``) but on ``edge 5 + 0.1``, and
    1.3 s on edge 13 but below ``edge 12 + 0.1``: a feed that closed bin k
    at ``edge + time_bin`` put the first a bin late, the second one early."""
    records = [_record(i, ts) for i, ts in enumerate(
        (0.0, 0.55, 0.6, 0.65, 1.25, 1.3, 1.35, 2.0))]
    batches, feed = _socket_bins(records, 0.1)
    assert_bins_identical(batches, _replayed(records, 0.1), "socket")
    assert feed.late_packets == 0
    for batch in batches:
        assert np.all(batch.ts >= batch.start_ts)

    # 0.35 closes bins 0-2; a record on the edge of bin 3 is not late, one
    # below it is.
    edge = 0.1 * 3
    sent = [_record(0, 0.0), _record(1, 0.35), _record(2, edge),
            _record(3, edge - 1e-9)]
    batches, feed = _socket_bins(sent, 0.1)
    assert feed.late_packets == 1
    assert batches[3].ts[0] == edge == batches[3].start_ts
    assert_bins_identical(batches, _replayed(sent[:3], 0.1), "on the edge")


def test_a_malformed_record_costs_only_its_own_line():
    """A record whose ``ts`` parses but whose other fields do not fit
    their columns is counted and skipped where it arrives; the bins around
    it still come out, the same as a replay of the good records."""
    good = [_record(i, ts) for i, ts in enumerate((0.0, 0.04, 0.12, 0.25,
                                                   0.31, 0.47))]
    bad = [b'{"ts": 0.05, "src_ip": "1.2.3"}\n',
           b'{"ts": 0.13, "size": "big"}\n',
           b'{"ts": 0.26, "src_port": 70000}\n',
           b'{"ts": 0.3, "proto": -1}\n',
           b'{"ts": NaN}\n',
           b'{"ts": Infinity}\n']
    sent = good[:2] + bad[:1] + good[2:3] + bad[1:2] + good[3:4] + bad[2:] \
        + good[4:]
    batches, feed = _socket_bins(sent, 0.1)
    assert feed.malformed_lines == len(bad)
    assert feed.late_packets == 0
    assert sum(len(batch) for batch in batches) == len(good)
    assert_bins_identical(batches, _replayed(good, 0.1), "malformed")


# ----------------------------------------------------------------------
# Daemon + ops API (driven over real HTTP)
# ----------------------------------------------------------------------
class DaemonHarness:
    """Run a MonitorDaemon on a background thread; talk HTTP to it."""

    def __init__(self, daemon):
        self.daemon = daemon
        self.result = None
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            self.result = asyncio.run(self.daemon.run())
        except BaseException as exc:  # surfaced by join()
            self.error = exc

    def __enter__(self):
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while self.daemon.bound_port == 0:
            if self.error is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon failed to start: {self.error}")
            time.sleep(0.01)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.daemon.stop()
        self.join(timeout=30.0)

    def join(self, timeout=30.0):
        self._thread.join(timeout=timeout)
        if self.error is not None:
            raise self.error
        return self.result

    # -- HTTP helpers --------------------------------------------------
    def _url(self, path):
        return f"http://127.0.0.1:{self.daemon.bound_port}{path}"

    def get(self, path):
        with urllib.request.urlopen(self._url(path), timeout=10) as resp:
            body = resp.read()
        if path == "/metrics":
            return body.decode()
        return json.loads(body)

    def request(self, method, path, document=None):
        data = (json.dumps(document).encode()
                if document is not None else b"")
        req = urllib.request.Request(self._url(path), data=data,
                                     method=method)
        req.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def wait_status(self, predicate, timeout=20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.get("/status")
            if predicate(status):
                return status
            time.sleep(0.05)
        raise AssertionError(f"status never satisfied predicate; "
                             f"last: {self.get('/status')}")


def _daemon_config(**overrides):
    return runner.system_config(mode="predictive", seed=5,
                                queries="counter,flows",
                                cycles_per_second=CAPACITY, **overrides)


@pytest.fixture(scope="module")
def serve_trace():
    from repro.traffic import generate_trace
    profile = TrafficProfile(duration=4.0, flow_arrival_rate=150.0,
                             name="serve-e2e")
    return generate_trace(profile, seed=3)


def test_daemon_end_to_end_checkpoint_restore(tmp_path, serve_trace):
    """The acceptance path: tail a growing store, live-add a query over
    HTTP, checkpoint mid-stream, restore — all three results identical."""
    pkts = serve_trace.packets
    first_ts = float(pkts.ts[0])
    split = int(np.searchsorted(pkts.ts, first_ts + 2.0))
    path = tmp_path / "live"
    writer = TraceWriter(path, name="live", time_bin=TIME_BIN)
    writer.append(pkts.select(np.arange(split)))
    writer.flush()
    # Bins the tail feed will deliver from the partial store: every bin
    # whose upper edge is at or before the last written timestamp.
    part1_end = float(pkts.ts[split - 1])
    k1 = int(np.floor((part1_end - first_ts) / TIME_BIN))
    assert k1 >= 5

    spec = {"kind": "top-k", "kwargs": {"k": 5, "name": "live-topk"}}
    config = _daemon_config()
    feed = TailFeed(path, time_bin=TIME_BIN, poll_interval=0.05)
    daemon = MonitorDaemon(config, feed, checkpoint_dir=tmp_path / "ckpt",
                           name="e2e")
    with DaemonHarness(daemon) as harness:
        harness.wait_status(lambda s: s["bins_ingested"] == k1)
        # The store can grow no further until we append below, so the add
        # lands deterministically at the bin-k1 boundary.
        added = harness.request("POST", "/queries", {"spec": spec})
        assert added["added"] == "live-topk"
        # Registered from now on, though it first runs at the next bin.
        registered = ["counter", "flows", "live-topk"]
        assert harness.get("/queries")["queries"] == registered
        ckpt = harness.request("POST", "/checkpoint")
        assert ckpt["bins_ingested"] == k1
        assert describe_checkpoint(ckpt["checkpoint"])["query_names"] == \
            registered
        frozen = tmp_path / "frozen.pkl"  # shutdown overwrites the live one
        shutil.copy(ckpt["checkpoint"], frozen)

        writer.append(pkts.select(np.arange(split, len(pkts))))
        writer.close()
        result_daemon = harness.join(timeout=60.0)
    assert result_daemon is not None
    assert "live-topk" in result_daemon.query_logs

    store = TraceStore(path)
    bins = store.streaming().batch_list(TIME_BIN)
    assert len(result_daemon.bins) == len(bins)

    # Reference: uninterrupted in-process run, same add at the same bin.
    reference = config.build().open_session(time_bin=TIME_BIN, name="ref")
    for batch in bins[:k1]:
        reference.ingest(batch)
    from repro.queries import QuerySpec
    reference.add_query(QuerySpec.from_dict(spec).build())
    for batch in bins[k1:]:
        reference.ingest(batch)
    expected = reference.close()
    assert_results_identical(expected, result_daemon, label="daemon-vs-ref")

    # Restore the mid-stream checkpoint (captured with the add still
    # pending) and finish it by hand: same result again.
    restored = restore_session(frozen)
    assert restored.bins_ingested == k1
    for batch in bins[k1:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label="restore-vs-ref")


def test_socket_feed_counts_what_it_drops():
    """Garbage, a record without ``ts`` and a straggler over a real socket:
    each is dropped, counted, and visible in ``/status`` and ``/metrics``."""
    feed = SocketFeed(time_bin=0.25)
    daemon = MonitorDaemon(_daemon_config(), feed, name="socket")
    lines = [b"this is not json",
             json.dumps({"src_ip": "10.0.0.1", "size": 80}).encode(),
             b"[1, 2]"]
    # 0.625 closes the bins [0, 0.25) and [0.25, 0.5); 0.0625 then arrives
    # for a bin that is already out, and 0.75 closes [0.5, 0.75).
    lines += [json.dumps({"ts": ts, "src_ip": "10.0.0.1", "dst_port": 80})
              .encode() for ts in (0.0, 0.125, 0.625, 0.0625, 0.75)]
    with DaemonHarness(daemon) as harness:
        deadline = time.monotonic() + 10.0
        while feed.bound_port == 0:
            assert time.monotonic() < deadline, "socket feed never bound"
            time.sleep(0.01)
        with socket.create_connection(("127.0.0.1", feed.bound_port),
                                      timeout=10) as conn:
            conn.sendall(b"\n".join(lines) + b"\n")
        status = harness.wait_status(
            lambda s: s["bins_ingested"] >= 3)
        assert status["feed"]["kind"] == "socket"
        assert status["feed"]["late_packets"] == 1
        assert status["feed"]["malformed_lines"] == 3
        assert status["packets"] == 3  # 0.75 waits for its bin to close
        samples = harness.get("/metrics").splitlines()
        assert "repro_feed_late_packets_total 1" in samples
        assert "repro_feed_malformed_lines_total 3" in samples
        daemon.stop()  # from this thread, not the loop's
        result = harness.join(timeout=30.0)
    assert result is not None and len(result.bins) == 3


def test_stop_from_a_plain_thread_wakes_an_idle_socket_feed():
    """``MonitorDaemon.stop()`` called off the event loop ends ``run()``
    even when the feed's consumer is parked on an empty queue: the feed
    hands the wake-up to its loop instead of touching the queue itself."""
    feed = SocketFeed(time_bin=0.25)
    daemon = MonitorDaemon(_daemon_config(), feed, name="idle-socket")
    harness = DaemonHarness(daemon)
    with harness:
        harness.wait_status(lambda s: s["feed"]["idle"])
        stopper = threading.Thread(target=daemon.stop)
        stopper.start()
        stopper.join(timeout=5.0)
        harness.join(timeout=5.0)
        assert not harness._thread.is_alive(), "run() never returned"
    assert feed.done and harness.result is not None
    assert len(harness.result.bins) == 0
    feed.stop()  # after the loop is gone: still harmless


def test_daemon_status_metrics_and_ops(tmp_path, serve_trace):
    config = _daemon_config()
    feed = ReplayFeed(serve_trace, time_bin=TIME_BIN, pace=1.0)
    daemon = MonitorDaemon(config, feed, checkpoint_dir=tmp_path / "ck",
                           rotate_dir=tmp_path / "rot",
                           rotate_every_bins=10, name="ops")
    with DaemonHarness(daemon) as harness:
        status = harness.wait_status(lambda s: s["bins_ingested"] >= 5)
        assert status["mode"] == "predictive"
        assert status["feed"]["kind"] == "replay"
        # A feed that parses nothing has nothing to drop: zeros, not gaps.
        assert status["feed"]["late_packets"] == 0
        assert status["feed"]["malformed_lines"] == 0
        assert set(status["queries"]) == {"counter", "flows"}
        assert status["uptime_seconds"] > 0

        assert harness.get("/queries")["queries"] == ["counter", "flows"]
        capacity = harness.request("POST", "/capacity",
                                   {"cycles_per_second": CAPACITY / 2})
        assert capacity["cycles_per_second"] == CAPACITY / 2

        applied = harness.request("POST", "/config",
                                  {"cycles_per_second": CAPACITY})
        assert applied["applied"] == {"cycles_per_second": CAPACITY}

        # Hot-reload rejections: dead fields and typos, as HTTP 400s.
        def refused(code, method, path, document=None):
            with pytest.raises(urllib.error.HTTPError) as err:
                harness.request(method, path, document)
            with err.value:  # the error holds the connection: close it
                assert err.value.code == code
                return err.value.read()

        body = refused(400, "POST", "/config", {"mode": "reactive"})
        assert "cannot change while" in json.loads(body)["error"]
        body = refused(400, "POST", "/config", {"cycles_per_secnod": 1.0})
        assert "did you mean" in json.loads(body)["error"]
        body = refused(400, "POST", "/config", {"shard_rebalance": False})
        assert "'shard_rebalance'" in json.loads(body)["error"]
        body = refused(400, "POST", "/config", {"buffer_seconds": 0.2})
        assert "'buffer_seconds'" in json.loads(body)["error"]
        refused(404, "DELETE", "/queries/nope")
        refused(404, "GET", "/bogus")

        text = harness.get("/metrics")
        names = _assert_prometheus_text(text)
        for expected in ("repro_bins_ingested_total", "repro_packets_total",
                         "repro_dropped_packets_total",
                         "repro_feed_lag_seconds", "repro_uptime_seconds",
                         "repro_feed_late_packets_total",
                         "repro_feed_malformed_lines_total",
                         "repro_mean_prediction_error",
                         "repro_cycles_total",
                         "repro_checkpoints_total"):
            assert expected in names, f"missing metric {expected}"
        doc = harness.request("POST", "/shutdown")
        assert doc["stopping"] is True
        result = harness.join(timeout=30.0)
    assert result is not None
    # Rotation wrote (at least) one finished v2 segment of the traffic.
    segments = sorted((tmp_path / "rot").glob("segment-*"))
    assert segments
    rotated = TraceStore(segments[0])
    assert rotated.complete and len(rotated) > 0
    # The shutdown checkpoint is loadable and self-describing.
    meta = describe_checkpoint(tmp_path / "ck" / "checkpoint.pkl")
    assert meta["kind"] == "monitoring"


_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\")*\})? -?[0-9.eE+\-]+$")


def _assert_prometheus_text(text):
    """A tiny exposition-format parser: HELP/TYPE pairs + sample lines."""
    lines = text.strip().splitlines()
    assert lines, "empty /metrics"
    documented = set()
    for line in lines:
        if line.startswith("# HELP "):
            documented.add(line.split()[2])
        elif line.startswith("# TYPE "):
            parts = line.split()
            assert parts[2] in documented, f"TYPE before HELP: {line}"
            assert parts[3] in ("counter", "gauge"), line
        else:
            assert _METRIC_LINE.match(line), f"unparseable sample: {line}"
            name = line.split("{")[0].split()[0]
            assert name in documented, f"undocumented sample: {line}"
    samples = [line for line in lines if not line.startswith("#")]
    return {line.split("{")[0].split()[0] for line in samples}


def test_render_metrics_labels_and_escaping():
    text = render_metrics([
        {"name": "m_total", "type": "counter", "help": "a\nb",
         "samples": [({}, 3)]},
        {"name": "g", "type": "gauge", "help": "per query",
         "samples": [({"query": 'with"quote'}, 1.5),
                     ({"query": "plain"}, 2.0)]},
    ])
    assert "# HELP m_total a\\nb" in text
    assert "m_total 3" in text.splitlines()
    assert 'g{query="with\\"quote"} 1.5' in text
    assert 'g{query="plain"} 2' in text
    _assert_prometheus_text(text)


def test_daemon_requires_declarative_queries(serve_trace):
    config = runner.system_config(cycles_per_second=CAPACITY)  # no queries
    with pytest.raises(ValueError, match="declarative 'queries'"):
        MonitorDaemon(config, ReplayFeed(serve_trace, time_bin=TIME_BIN))


def test_the_cli_refuses_a_config_without_a_query_mix_in_one_line(
        tmp_path, small_trace, capsys):
    """``--queries`` has no default in serve: with neither it nor a
    ``--config`` that names a mix, the CLI refuses in one line and exits 2
    before it builds a daemon."""
    from repro.serve.__main__ import main
    from repro.traffic.trace_io import save_trace_store
    store = save_trace_store(small_trace, tmp_path / "store")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"mode": "predictive"}))
    for flags in ([], ["--config", str(bare)]):
        assert main([str(store.path), "--port", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no query mix: pass --queries")
        assert captured.err.count("\n") == 1
        assert "--config" in captured.err and "Traceback" not in captured.err


def test_daemon_max_bins_stops_ingest(serve_trace):
    config = _daemon_config()
    daemon = MonitorDaemon(config,
                           ReplayFeed(serve_trace, time_bin=TIME_BIN),
                           max_bins=5)
    result = asyncio.run(daemon.run())
    assert len(result.bins) == 5


def test_sharded_daemon_serves_and_reports_shards(serve_trace):
    config = _daemon_config(num_shards=4)
    daemon = MonitorDaemon(config,
                           ReplayFeed(serve_trace, time_bin=TIME_BIN,
                                      pace=1.0),
                           name="sharded")
    with DaemonHarness(daemon) as harness:
        status = harness.wait_status(lambda s: s["bins_ingested"] >= 3)
        assert status["num_shards"] == 4
        text = harness.get("/metrics")
        assert "repro_shard_cycles" in text
        for counter in ("intervals_merged", "partial_bytes",
                        "merge_seconds", "divergences"):
            assert f"repro_shard_{counter}_total" in text
        harness.request("POST", "/shutdown")
        result = harness.join(timeout=30.0)
    assert result is not None

    # And the daemon's execution matches the plain offline sharded run.
    from repro.monitor.sharding import build_system
    expected = build_system(config).run(serve_trace, time_bin=TIME_BIN)
    prefix = len(result.bins)
    assert np.array_equal(
        result.series("query_cycles"),
        expected.series("query_cycles")[:prefix])


def test_every_way_in_builds_through_build_system(serve_trace):
    """A daemon and a checkpoint restore of the same sharded config open
    the execution ``build_system`` builds: it decides serial versus
    sharded for all of them."""
    from repro.monitor.sharding import (ShardedSession, ShardedSystem,
                                        build_system)
    from repro.monitor.system import MonitoringSystem
    from repro.serve.checkpoint import capture, load_checkpoint
    config = _daemon_config(num_shards=2)
    assert isinstance(build_system(config), ShardedSystem)
    assert isinstance(build_system(config.replace(num_shards=1)),
                      MonitoringSystem)
    expected = build_system(config).run(serve_trace, time_bin=TIME_BIN)

    daemon = MonitorDaemon(config, ReplayFeed(serve_trace, time_bin=TIME_BIN))
    assert isinstance(daemon.session, ShardedSession)
    assert_results_identical(expected, asyncio.run(daemon.run()), "daemon")

    bins = serve_trace.batch_list(TIME_BIN)
    session = build_system(config).open_session(time_bin=TIME_BIN)
    for batch in bins[:17]:
        session.ingest(batch)
    restored = ShardedSession.from_state(
        pickle.loads(load_checkpoint(capture(session)).state_blob))
    for batch in bins[17:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(), "from_state")


# ----------------------------------------------------------------------
# A restored daemon: its totals are read from the result it resumes
# ----------------------------------------------------------------------
_STATUS_TOTALS = ("packets", "bytes", "dropped_packets", "shed_fraction",
                  "shed_bins", "mean_prediction_error")


def _served(daemon):
    """The traffic totals ``/status`` reports and the ``repro_*_total``
    samples of ``/metrics`` (less the stage wall seconds: timings)."""
    status = daemon.status()
    samples = {(family["name"], tuple(sorted(labels.items()))): value
               for family in daemon.metric_families()
               if family["name"].endswith("_total")
               and family["name"] != "repro_stage_seconds_total"
               for labels, value in family["samples"]}
    return {key: status[key] for key in _STATUS_TOTALS}, samples


def test_a_restored_daemon_serves_what_an_uninterrupted_one_does(
        tmp_path, serve_trace):
    """Checkpoint at bin k: a daemon on the restored session serves the
    same totals as the daemon that never stopped, at bin k and at the end
    — they are read from the result, which the checkpoint carries.  The
    cycles by component are the sums of the result's columns."""
    from repro.serve.checkpoint import save_checkpoint
    config = _daemon_config().replace(cycles_per_second=CAPACITY / 20)
    bins = serve_trace.batch_list(TIME_BIN)
    k = 25  # it sheds from bin 21 on
    uninterrupted = MonitorDaemon(config, ReplayFeed(serve_trace,
                                                     time_bin=TIME_BIN))
    for batch in bins[:k]:
        uninterrupted._ingest_one(batch)
    save_checkpoint(uninterrupted.session, tmp_path / "k.pkl")
    restored = MonitorDaemon(None, ReplayFeed(serve_trace, time_bin=TIME_BIN),
                             session=restore_session(tmp_path / "k.pkl"))
    assert restored.bins_ingested == k

    at_k = _served(uninterrupted)
    status, samples = at_k
    assert status["packets"] == sum(len(batch) for batch in bins[:k])
    assert samples[("repro_packets_total", ())] == status["packets"]
    result = uninterrupted.partial_result()
    for component, column in (("queries", "query_cycles"),
                              ("prediction", "prediction_overhead"),
                              ("shedding", "shedding_overhead"),
                              ("system", "system_overhead")):
        served = samples[("repro_cycles_total",
                          (("component", component),))]
        assert served == result.series(column).sum()
    assert not any(name == "repro_stage_cycles_total"
                   for name, _ in samples)
    assert status["shed_bins"] > 0 and status["mean_prediction_error"] > 0
    assert _served(restored) == at_k
    for batch in bins[k:]:
        uninterrupted._ingest_one(batch)
        restored._ingest_one(batch)
    assert _served(restored) == _served(uninterrupted)
    assert restored.status()["packets"] == len(serve_trace)


def test_the_prediction_error_compares_the_cost_after_shedding(serve_trace):
    """At half the capacity the queries need, most bins shed.  A bin's
    prediction error compares the cycles it measured with what the
    prediction said the rates applied would cost — not with the full-rate
    demand, which would mostly measure how much was shed.  One seed's mean
    error is one draw of a statistic with a standard deviation of about
    0.05, so the bound holds the median over ten system seeds."""
    capacity, _ = runner.calibrate_capacity(("counter", "flows"),
                                            serve_trace)
    means = []
    for seed in range(1, 11):
        config = _daemon_config().replace(seed=seed,
                                          cycles_per_second=capacity * 0.5)
        daemon = MonitorDaemon(config,
                               ReplayFeed(serve_trace, time_bin=TIME_BIN))
        for batch in serve_trace.batch_list(TIME_BIN):
            daemon._ingest_one(batch)
        status = daemon.status()
        bins = [record for record in daemon.partial_result().bins
                if record.predicted_cycles > 0]
        assert status["shed_bins"] > len(bins) / 2
        errors = [abs(record.expected_cycles - record.query_cycles)
                  / max(record.query_cycles, 1.0) for record in bins]
        assert status["mean_prediction_error"] == \
            pytest.approx(np.mean(errors))
        means.append(status["mean_prediction_error"])
    assert np.median(means) < 0.3


def test_status_polled_from_another_thread_while_bins_are_ingested():
    """The ops API reads ``/status``, ``/metrics`` and ``/result`` on the
    loop's executor, outside the daemon's lock, while the session thread
    keeps folding bins.  The snapshot they read holds columns of its own:
    polling never disturbs ingestion, and every document is whole."""
    from repro.traffic import generate_trace
    trace = generate_trace(TrafficProfile(duration=150.0,
                                          flow_arrival_rate=4.0,
                                          name="polled"), seed=11)
    daemon = MonitorDaemon(_daemon_config(),
                           ReplayFeed(trace, time_bin=TIME_BIN))
    done, errors, polls = threading.Event(), [], []

    def poll():
        while not done.is_set():
            try:
                status = daemon.status()
                daemon.metric_families()
                daemon.result_document()
            except BaseException as exc:  # reported below
                errors.append(exc)
                return
            polls.append(status["packets"])

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        for batch in trace.batch_list(TIME_BIN):
            daemon._ingest_one(batch)
    finally:
        done.set()
        poller.join(timeout=30.0)
    assert not errors, errors
    assert polls and polls == sorted(polls)
    result = daemon.partial_result()
    assert daemon.status()["packets"] == len(trace) == result.total_packets
    assert len(result.series("query_cycles")) == len(result.bins)


@pytest.mark.parametrize("shards", (1, 2))
def test_a_resumed_replay_ingests_every_bin_once(tmp_path, serve_trace,
                                                 caplog, shards):
    """``python -m repro.serve STORE --restore CKPT`` replays STORE from
    its first bin into a session that holds bins 0..k-1: the daemon skips
    those (logged once) and finishes to the uninterrupted run's result —
    a sharded node restored onto the worker pool included."""
    import logging
    from repro.monitor.sharding import build_system
    from repro.monitor.workers import fork_start_available
    from repro.traffic.trace_io import save_trace_store
    store = tmp_path / "store"
    save_trace_store(serve_trace, store)
    config = _daemon_config(num_shards=shards)
    expected = build_system(config).run(serve_trace, time_bin=TIME_BIN)
    k = 15
    asyncio.run(MonitorDaemon(config, ReplayFeed(store, time_bin=TIME_BIN),
                              checkpoint_dir=tmp_path / "ckpt",
                              max_bins=k).run())
    backend = "workers" if shards > 1 and fork_start_available() \
        else "inprocess"
    session = restore_session(tmp_path / "ckpt" / "checkpoint.pkl",
                              backend=backend)
    assert session.bins_ingested == k
    caplog.set_level(logging.INFO, logger="repro.serve.daemon")
    resumed = asyncio.run(MonitorDaemon(
        None, ReplayFeed(store, time_bin=TIME_BIN), session=session).run())
    assert_results_identical(expected, resumed, "resumed")
    skips = [record.getMessage() for record in caplog.records
             if record.name == "repro.serve.daemon"
             and "skipping" in record.getMessage()]
    assert len(skips) == 1 and f"ends at bin {k}" in skips[0]


def test_daemon_survives_its_sessions_failure_cleanly(tmp_path, serve_trace,
                                                      caplog):
    """SIGKILL one shard worker under a rotating, checkpointing daemon: the
    daemon still releases what it owns — the rotated segment is closed and
    readable, no worker or slot descriptor is left — does not try to
    checkpoint the broken session, and ``run()`` raises the worker pool's
    own error, logged where it was raised."""
    import logging
    import os
    import signal
    from repro.monitor.workers import ShardWorkerError, fork_start_available
    from tests.conftest import assert_pool_released, dev_shm
    if not fork_start_available():
        pytest.skip("needs fork and os.memfd_create")
    shm = dev_shm()
    config = _daemon_config(num_shards=2)
    daemon = MonitorDaemon(
        config, ReplayFeed(serve_trace, time_bin=TIME_BIN, pace=1.0),
        backend="workers", name="doomed", checkpoint_dir=tmp_path / "ckpt",
        rotate_dir=tmp_path / "rotated", rotate_every_bins=10_000)
    pool = daemon.session._executor
    pids = [worker.pid for worker in pool._workers]
    caplog.set_level(logging.INFO)
    harness = DaemonHarness(daemon)
    with harness:
        seen = harness.wait_status(
            lambda s: s["bins_ingested"] >= 3)["bins_ingested"]
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(ShardWorkerError) as failure:
            harness.join(timeout=30.0)
        harness.error = None  # surfaced: nothing more for __exit__ to raise

    # The original error, naming the process and the session it hosted.
    message = str(failure.value)
    assert "shard worker 1 (hosting doomed[shard1])" in message
    assert "died" in message
    workers_log = [record for record in caplog.records
                   if record.name == "repro.monitor.workers"]
    assert [(record.levelname, record.getMessage())
            for record in workers_log] == [("ERROR", message)]
    daemon_log = [record.getMessage() for record in caplog.records
                  if record.name == "repro.serve.daemon"]
    assert daemon_log == [f"daemon 'doomed' is shutting down: session "
                          f"failed: ShardWorkerError: {message}"]

    # Everything the daemon owns is released; the broken session was not
    # checkpointed.
    assert daemon._writer is None and daemon.result is None
    assert not (tmp_path / "ckpt").exists()
    assert_pool_released(pool, shm)

    # The segment holds every packet of the bins ingested before the kill.
    kept = daemon._writer_bins
    assert kept >= seen - 1 and kept == len(daemon.session._result.bins)
    expected = serve_trace.batch_list(TIME_BIN)[:kept]
    segment = TraceStore(tmp_path / "rotated" / "segment-000000")
    try:
        assert len(segment) == sum(len(batch) for batch in expected) > 0
        for column in ("ts", "src_ip", "size"):
            assert np.array_equal(
                segment.column(column),
                np.concatenate([getattr(batch, column)
                                for batch in expected]))
    finally:
        segment.close()


def test_why_the_daemon_shuts_down_is_logged(serve_trace, caplog):
    import logging
    caplog.set_level(logging.INFO, logger="repro.serve.daemon")

    def reasons():
        found = [record.getMessage().split(": ", 1)[1]
                 for record in caplog.records
                 if record.name == "repro.serve.daemon"]
        caplog.clear()
        return found

    feed = ReplayFeed(serve_trace, time_bin=TIME_BIN)
    asyncio.run(MonitorDaemon(_daemon_config(), feed).run())
    assert reasons() == ["feed ended"]
    feed = ReplayFeed(serve_trace, time_bin=TIME_BIN)
    asyncio.run(MonitorDaemon(_daemon_config(), feed, max_bins=3).run())
    assert reasons() == ["max_bins reached"]
    daemon = MonitorDaemon(_daemon_config(),
                           ReplayFeed(serve_trace, time_bin=TIME_BIN,
                                      pace=1.0))
    with DaemonHarness(daemon) as harness:
        harness.wait_status(lambda s: s["bins_ingested"] >= 2)
    assert reasons() == ["stop requested"]


def test_a_failing_ops_request_is_logged_with_its_traceback(serve_trace,
                                                            caplog):
    daemon = MonitorDaemon(_daemon_config(),
                           ReplayFeed(serve_trace, time_bin=TIME_BIN,
                                      pace=1.0))

    def broken():
        raise TypeError("status is broken")

    daemon.status = broken
    with DaemonHarness(daemon) as harness:
        with pytest.raises(urllib.error.HTTPError) as refused:
            harness.get("/status")
        assert refused.value.code == 500
        refused.value.close()
        assert harness.get("/result")["mode"] == "predictive"  # still up
    (record,) = [record for record in caplog.records
                 if record.name == "repro.serve.api"]
    assert record.levelname == "ERROR"
    assert record.exc_info[0] is TypeError
    assert "status is broken" in caplog.text


def test_the_session_lives_on_one_thread_the_daemon_owns(tmp_path,
                                                          serve_trace):
    """Every bin, and every checkpoint the daemon writes itself — the final
    one included — runs on one thread of the daemon's own, named after it,
    while ops requests come and go on the loop's executor; the thread is
    gone once ``run()`` returns."""
    daemon = MonitorDaemon(_daemon_config(),
                           ReplayFeed(serve_trace, time_bin=TIME_BIN,
                                      pace=2.0),
                           checkpoint_dir=tmp_path / "ckpt",
                           checkpoint_every_bins=10, name="confined")
    threads = {"_ingest_one": [], "_checkpoint_locked": []}

    def recorded(method):
        def call(*args):
            threads[method.__name__].append(threading.current_thread())
            return method(*args)
        return call

    for name in threads:
        setattr(daemon, name, recorded(getattr(daemon, name)))
    with DaemonHarness(daemon) as harness:
        harness.wait_status(lambda s: s["bins_ingested"] >= 3)
        assert "repro_bins_ingested_total" in harness.get("/metrics")
        harness.request("POST", "/capacity",
                        {"cycles_per_second": CAPACITY / 2})
        result = harness.join(timeout=60.0)

    bins = len(serve_trace.batch_list(TIME_BIN))
    assert len(result.bins) == len(threads["_ingest_one"]) == bins
    (session_thread,) = set(threads["_ingest_one"])
    assert session_thread.name.startswith("confined-session")
    assert threads["_checkpoint_locked"] == \
        [session_thread] * (bins // 10 + 1)
    assert not session_thread.is_alive()
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("confined-session")]


# ----------------------------------------------------------------------
# TraceWriter.flush / incremental manifests (the TailFeed substrate)
# ----------------------------------------------------------------------
def test_trace_writer_flush_publishes_readable_prefix(tmp_path, small_trace):
    pkts = small_trace.packets
    split = len(pkts) // 3
    writer = TraceWriter(tmp_path / "prefix", name="p", time_bin=TIME_BIN)
    writer.append(pkts.select(np.arange(split)))
    writer.flush()
    partial = TraceStore(tmp_path / "prefix")
    assert partial.complete is False
    assert len(partial) == split
    assert np.array_equal(partial.column("ts"), pkts.ts[:split])
    writer.append(pkts.select(np.arange(split, len(pkts))))
    final = writer.close()
    assert final.complete is True
    assert len(final) == len(pkts)
    reread = TraceStore(tmp_path / "prefix")
    assert reread.complete is True


def test_trace_writer_flush_empty_and_closed(tmp_path, small_trace):
    writer = TraceWriter(tmp_path / "empty", time_bin=TIME_BIN)
    writer.flush()  # no packets yet: quietly a no-op
    writer.append(small_trace.packets)
    writer.close()
    with pytest.raises(RuntimeError, match="closed"):
        writer.flush()
