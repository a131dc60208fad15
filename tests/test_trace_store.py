"""The v2 trace store and the out-of-core streaming replay path.

The contract under test: a trace persisted as a memory-mapped columnar
store and replayed chunk-by-chunk through :class:`StreamingTrace` /
``ingest_trace`` must be indistinguishable — bit for bit, across all four
operating modes, serial and sharded — from loading the same packets in
memory and running them the classic way, while the chunk cache never holds
more than its K chunks.
"""

import json

import numpy as np
import pytest

from repro.experiments import runner
from repro.monitor.packet import COLUMN_FIELDS, StreamingTrace, as_trace
from repro.monitor.sharding import ShardedSystem
from repro.queries import make_query
from repro.traffic import generate_trace, generate_trace_store
from repro.traffic.generator import TrafficProfile
from repro.traffic.trace_io import (MANIFEST_NAME, TraceStore, TraceWriter,
                                    open_trace, save_trace, save_trace_store)
from repro import replay
from repro.testing import assert_results_identical as _assert_results_identical

QUERY_SET = ("counter", "flows", "top-k")


def _assert_batches_identical(mem_batches, streamed_batches):
    mem_batches = list(mem_batches)
    streamed_batches = list(streamed_batches)
    assert len(mem_batches) == len(streamed_batches)
    for index, (mem, streamed) in enumerate(zip(mem_batches,
                                                streamed_batches)):
        assert mem.start_ts == streamed.start_ts, index
        assert mem.time_bin == streamed.time_bin, index
        for column in COLUMN_FIELDS:
            original = getattr(mem, column)
            restored = getattr(streamed, column)
            assert restored.dtype == original.dtype, (index, column)
            assert np.array_equal(restored, original), (index, column)
        assert mem.payloads == streamed.payloads, index


@pytest.fixture(scope="module")
def store_and_trace(tmp_path_factory, request):
    trace = request.getfixturevalue("small_trace")
    path = tmp_path_factory.mktemp("stores") / "header"
    return save_trace_store(trace, path), trace


# ----------------------------------------------------------------------
# Store round trip and format
# ----------------------------------------------------------------------
def test_store_roundtrip_is_bit_identical(store_and_trace):
    store, trace = store_and_trace
    assert store.num_packets == len(trace)
    assert store.name == trace.name
    restored = store.to_trace()
    for column in COLUMN_FIELDS:
        original = getattr(trace.packets, column)
        back = getattr(restored.packets, column)
        assert back.dtype == original.dtype, column
        assert np.array_equal(back, original), column
    assert restored.packets.payloads is None


def test_payload_store_roundtrip(tmp_path, payload_trace_small):
    store = save_trace_store(payload_trace_small, tmp_path / "payload")
    assert store.has_payloads
    restored = store.to_trace()
    assert restored.packets.payloads == payload_trace_small.packets.payloads


def test_columns_are_memory_mapped(store_and_trace):
    store, _ = store_and_trace
    assert isinstance(store.column("ts"), np.memmap)
    assert not store.column("ts").flags.writeable


def test_manifest_contents(store_and_trace):
    store, trace = store_and_trace
    manifest = json.loads((store.path / MANIFEST_NAME).read_text())
    assert manifest["version"] == 2
    assert manifest["num_packets"] == len(trace)
    assert manifest["has_payloads"] is False
    assert set(manifest["columns"]) == set(COLUMN_FIELDS)
    bounds = manifest["bin_index"]["bounds"]
    assert bounds[0] == 0 and bounds[-1] == len(trace)
    assert bounds == sorted(bounds)


def test_stored_bin_index_matches_column_scan(store_and_trace):
    store, _ = store_and_trace
    stored = store.bin_bounds(0.1)
    assert stored is not None
    ts = np.asarray(store.column("ts"))
    n_bins = int(np.floor((ts[-1] - ts[0]) / 0.1)) + 1
    edges = float(ts[0]) + 0.1 * np.arange(n_bins + 1)
    assert np.array_equal(stored, np.searchsorted(ts, edges))
    # An unindexed time_bin sends the caller to the column scan...
    assert store.bin_bounds(0.25) is None
    # ...and the streaming layout agrees with in-memory slicing anyway.
    streaming = store.streaming(chunk_packets=913)
    mem = store.to_trace()
    _assert_batches_identical(mem.batch_list(0.25),
                              streaming.batch_list(0.25))


def test_open_trace_dispatches_on_format(tmp_path, small_trace):
    npz = save_trace(small_trace, tmp_path / "v1.npz")
    loaded = open_trace(npz)
    assert loaded.name == small_trace.name
    assert not isinstance(loaded, TraceStore)
    store = save_trace_store(small_trace, tmp_path / "v2")
    assert isinstance(open_trace(store.path), TraceStore)
    with pytest.raises(FileNotFoundError):
        open_trace(tmp_path)  # a directory without a manifest


# ----------------------------------------------------------------------
# The append-mode writer
# ----------------------------------------------------------------------
def test_writer_chunked_appends_equal_one_shot(tmp_path, small_trace):
    one_shot = save_trace_store(small_trace, tmp_path / "oneshot")
    writer = TraceWriter(tmp_path / "chunked", name=small_trace.name)
    pkts = small_trace.packets
    for lo in range(0, len(pkts), 769):
        writer.append(pkts.select(np.arange(lo, min(lo + 769, len(pkts)))))
    chunked = writer.close()
    assert chunked.num_packets == one_shot.num_packets
    for column in COLUMN_FIELDS:
        assert np.array_equal(np.asarray(chunked.column(column)),
                              np.asarray(one_shot.column(column))), column
    # The incrementally maintained bin index must equal the one-shot one.
    assert np.array_equal(chunked.bin_bounds(0.1), one_shot.bin_bounds(0.1))


def test_writer_rejects_unordered_and_mismatched_chunks(tmp_path,
                                                        small_trace):
    pkts = small_trace.packets
    writer = TraceWriter(tmp_path / "bad", name="bad")
    writer.append(pkts.select(np.arange(100, 200)))
    with pytest.raises(ValueError, match="chronologically"):
        writer.append(pkts.select(np.arange(0, 50)))
    with pytest.raises(ValueError, match="payloads"):
        writer.append(_payload_batch())
    writer.close()
    with pytest.raises(RuntimeError):
        writer.append(pkts.select(np.arange(300, 310)))


def _payload_batch():
    return generate_trace(
        TrafficProfile(duration=0.5, flow_arrival_rate=50.0,
                       with_payloads=True), seed=9).packets


def test_writer_refuses_to_overwrite_a_store(tmp_path, small_trace):
    save_trace_store(small_trace, tmp_path / "once")
    with pytest.raises(FileExistsError):
        TraceWriter(tmp_path / "once")


def test_empty_store(tmp_path):
    store = TraceWriter(tmp_path / "empty", name="empty").close()
    assert store.num_packets == 0
    streaming = store.streaming()
    assert streaming.num_batches() == 0
    assert list(streaming.batches()) == []
    assert len(store.to_trace()) == 0


def test_generate_trace_store_is_deterministic_and_bounded(tmp_path):
    profile = TrafficProfile(duration=3.0, flow_arrival_rate=120.0,
                             name="gen")
    first = generate_trace_store(tmp_path / "a", profile, seed=4,
                                 segment_duration=1.0)
    second = generate_trace_store(tmp_path / "b", profile, seed=4,
                                  segment_duration=1.0)
    assert first.num_packets == second.num_packets > 0
    for column in COLUMN_FIELDS:
        assert np.array_equal(np.asarray(first.column(column)),
                              np.asarray(second.column(column))), column
    ts = np.asarray(first.column("ts"))
    assert np.all(np.diff(ts) >= 0)
    assert float(ts[-1]) <= profile.duration + 1e-9


# ----------------------------------------------------------------------
# Streaming: chunking, residency, batch equality
# ----------------------------------------------------------------------
def test_streaming_batches_equal_in_memory_batches(store_and_trace):
    store, trace = store_and_trace
    # A chunk size that never divides the bin boundaries: most bins
    # straddle chunks, the case the piecewise assembly must get right.
    streaming = store.streaming(chunk_packets=601, max_resident_chunks=3)
    _assert_batches_identical(trace.batch_list(0.1),
                              streaming.batch_list(0.1))
    assert streaming.num_batches(0.1) == trace.num_batches(0.1)
    assert streaming.duration == trace.duration


def test_streaming_payload_batches(tmp_path, payload_trace_small):
    store = save_trace_store(payload_trace_small, tmp_path / "p")
    streaming = store.streaming(chunk_packets=347, max_resident_chunks=2)
    _assert_batches_identical(payload_trace_small.batch_list(0.1),
                              streaming.batch_list(0.1))


def test_single_chunk_bins_are_zero_copy_views(store_and_trace):
    store, _ = store_and_trace
    streaming = store.streaming(chunk_packets=len(store) or 1)
    batch = next(b for b in streaming.batches(0.1) if len(b) > 0)
    assert batch.ts.base is not None  # a view into the chunk, not a copy


def test_lru_never_exceeds_budget(store_and_trace):
    store, _ = store_and_trace
    k = 2
    streaming = store.streaming(chunk_packets=max(1, len(store) // 16),
                                max_resident_chunks=k)
    assert streaming.num_chunks >= 4 * k  # the out-of-core regime
    for _ in streaming.batches(0.1):
        assert streaming.resident_chunks <= k
    assert streaming.max_resident <= k
    assert streaming.cache_misses >= streaming.num_chunks


def test_close_leaves_no_dangling_prefetch_threads(store_and_trace):
    """Abandoning a prefetching iteration mid-trace and closing the
    streaming trace must join every loader thread — a daemon rotating to
    a newer segment cannot leak one thread per abandoned trace."""
    import threading
    store, _ = store_and_trace

    def prefetch_threads():
        return [t for t in threading.enumerate()
                if t.name.startswith("repro-prefetch-")]

    streaming = store.streaming(chunk_packets=max(1, len(store) // 16),
                                max_resident_chunks=2, prefetch=True)
    for index, _batch in enumerate(streaming.batches(0.1)):
        if index == 3:  # abandon mid-iteration, prefetch in flight
            break
    streaming.close()
    streaming.close()  # idempotent
    assert prefetch_threads() == []
    # The cache stays readable after close; only prefetching stops.
    assert len(streaming.batch_list(0.1)) > 0
    assert prefetch_threads() == []


def test_as_trace_coercion(store_and_trace):
    store, trace = store_and_trace
    assert as_trace(trace) is trace
    streaming = store.streaming()
    assert as_trace(streaming) is streaming
    assert isinstance(as_trace(store), StreamingTrace)
    with pytest.raises(TypeError):
        as_trace(42)


# ----------------------------------------------------------------------
# Out-of-core replay: the golden pin
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shed_setup(store_and_trace):
    store, trace = store_and_trace
    capacity, _ = runner.calibrate_capacity(QUERY_SET, trace)
    return store, trace, capacity * 0.5


@pytest.mark.parametrize("mode", ["predictive", "reactive", "original",
                                  "reference"])
def test_streaming_replay_bit_identical_all_modes(shed_setup, mode):
    """The golden pin: v1 in-memory vs v2 mmap replay, all four modes."""
    store, trace, capacity = shed_setup
    config = runner.system_config(mode=mode, seed=7)
    in_memory = runner.run_system(QUERY_SET, trace, capacity, config=config)
    streaming = store.streaming(chunk_packets=max(1, len(store) // 8),
                                max_resident_chunks=2)
    streamed = runner.run_system(QUERY_SET, streaming, capacity,
                                 config=config)
    _assert_results_identical(in_memory, streamed, mode)
    assert streaming.max_resident <= 2


PAYLOAD_QUERY_SET = ("counter", "pattern-search", "p2p-detector", "trace")


@pytest.fixture(scope="module")
def payload_shed_setup(tmp_path_factory, payload_trace_small):
    store = save_trace_store(payload_trace_small,
                             tmp_path_factory.mktemp("stores") / "payload")
    capacity, _ = runner.calibrate_capacity(PAYLOAD_QUERY_SET,
                                            payload_trace_small)
    return store, payload_trace_small, capacity * 0.5


@pytest.mark.parametrize("mode", ["predictive", "reactive", "original",
                                  "reference"])
def test_streaming_payload_replay_bit_identical_all_modes(
        payload_shed_setup, mode):
    """The same pin on a payload store: header columns come from chunk
    views, each bin's payloads from one read of the blob file."""
    store, trace, capacity = payload_shed_setup
    config = runner.system_config(mode=mode, seed=7)
    in_memory = runner.run_system(PAYLOAD_QUERY_SET, trace, capacity,
                                  config=config)
    streaming = store.streaming(chunk_packets=max(1, len(store) // 8),
                                max_resident_chunks=2)
    streamed = runner.run_system(PAYLOAD_QUERY_SET, streaming, capacity,
                                 config=config)
    _assert_results_identical(in_memory, streamed, f"payload/{mode}")
    assert streaming.max_resident <= 2


def test_sharded_streaming_replay_bit_identical(shed_setup):
    """num_shards=4 over a store >= 4x the chunk budget == in-memory."""
    store, trace, capacity = shed_setup
    config = runner.system_config(cycles_per_second=capacity, num_shards=4,
                                  seed=3)

    def factory():
        return [make_query(name) for name in QUERY_SET]

    in_memory = ShardedSystem(factory, config=config).run(trace)
    k = 2
    streaming = store.streaming(chunk_packets=max(1, len(store) // (4 * k)),
                                max_resident_chunks=k)
    assert streaming.num_chunks >= 4 * k
    session = ShardedSystem(factory, config=config).open_session(
        name=streaming.name)
    streamed = runner.ingest_trace(session, streaming)
    _assert_results_identical(in_memory, streamed, "sharded")
    assert streaming.max_resident <= k


def test_session_ingest_trace_accepts_store_directly(shed_setup):
    store, trace, capacity = shed_setup
    config = runner.system_config(cycles_per_second=capacity, seed=7)
    in_memory = config.build(
        [make_query(name) for name in QUERY_SET]).run(trace)
    session = config.build(
        [make_query(name) for name in QUERY_SET]).open_session(
        name=store.name)
    streamed = session.ingest_trace(store).close()
    _assert_results_identical(in_memory, streamed, "store-direct")


# ----------------------------------------------------------------------
# The replay CLI
# ----------------------------------------------------------------------
def test_replay_cli_on_a_store(tmp_path, capsys, small_trace):
    store = save_trace_store(small_trace, tmp_path / "cli")
    code = replay.main([str(store.path), "--queries", "counter,flows",
                        "--cycles-per-second", "2e8", "--chunk-packets",
                        "500", "--max-chunks", "2", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trace"]["packets"] == len(small_trace)
    assert summary["trace"]["streaming"] is True
    assert summary["streaming"]["max_resident"] <= 2
    assert summary["outcome"]["intervals_by_query"].keys() == {"counter",
                                                               "flows"}


def test_replay_cli_on_a_v1_archive(tmp_path, capsys, small_trace):
    path = save_trace(small_trace, tmp_path / "v1.npz")
    code = replay.main([str(path), "--queries", "counter",
                        "--overload", "0.3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome" in out and "streamed out-of-core" not in out
