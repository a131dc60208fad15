"""The v2 trace store and the out-of-core streaming replay path.

The contract under test: a trace persisted as a columnar store and replayed
bin by bin through :class:`StreamingTrace` / ``ingest_trace`` must be
indistinguishable — bit for bit — from loading the same packets in memory
and running them the classic way, while the process's resident set does
not grow with the store.  The header store's runs in every mode, serial
and sharded, are the ``store`` and ``workers`` rows of
``tests/test_conformance.py``; the bins themselves and the payload runs
are pinned here.
"""

import json
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.experiments import runner
from repro.monitor.packet import (COLUMN_FIELDS, Batch, BinGrid,
                                  PacketTrace, StreamingTrace, as_trace)
from repro.traffic import generate_trace, generate_trace_store
from repro.traffic.generator import TrafficProfile
from repro.traffic.trace_io import (MANIFEST_NAME, TraceStore, TraceWriter,
                                    open_trace, save_trace, save_trace_store)
from repro import replay
from repro.testing import assert_results_identical as _assert_results_identical
from tests.conftest import (assert_bins_identical, probe_rss_mb,
                            write_header_store)



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
    assert store.streaming().duration == trace.duration
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
    # Built by hand, not by the grid: every edge at or below the last
    # packet, then the one above it.
    edges = float(ts[0]) + 0.1 * np.arange(int((ts[-1] - ts[0]) / 0.1) + 3)
    n_bins = int(np.count_nonzero(edges <= ts[-1]))
    assert np.array_equal(stored, np.searchsorted(ts, edges[:n_bins + 1]))
    # An unindexed time_bin sends the caller to the column scan...
    assert store.bin_bounds(0.25) is None
    # ...and the streaming layout agrees with in-memory slicing anyway.
    streaming = store.streaming()
    mem = store.to_trace()
    assert_bins_identical(mem.batch_list(0.25),
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
# Streaming: batch equality, ownership, edges of the store, residency
# ----------------------------------------------------------------------
def test_streamed_bins_own_read_only_arrays(store_and_trace):
    store, _ = store_and_trace
    batch = next(b for b in store.streaming().batches(0.1) if len(b) > 0)
    for column in COLUMN_FIELDS:
        array = getattr(batch, column)
        assert array.flags.writeable is False, column
        # Read into memory of its own: not a window on a mapped file.
        assert not isinstance(array, np.memmap), column
        assert isinstance(array.base, bytes), column


def _gapped_packets():
    """0.25 s of traffic, 0.35 s of silence, then three last packets."""
    burst = generate_trace(TrafficProfile(duration=0.25,
                                          flow_arrival_rate=400.0),
                           seed=3).packets
    tail = burst.select(np.arange(3))
    tail = Batch(ts=np.array([0.61, 0.61, 0.6999]) + float(burst.ts[0]),
                 **{name: getattr(tail, name) for name in COLUMN_FIELDS[1:]})
    return Batch.concatenate([burst, tail])


def test_empty_bins_and_the_last_row(tmp_path):
    pkts = _gapped_packets()
    store = save_trace_store(PacketTrace(pkts, name="gap"), tmp_path / "gap")
    bins = store.streaming().batch_list(0.1)
    sizes = [len(batch) for batch in bins]
    assert sizes[3:6] == [0, 0, 0] and sizes[6] == 3 and len(sizes) == 7
    assert sum(sizes) == len(store) == len(pkts)
    assert bins[4].start_ts == BinGrid(pkts.ts[0], 0.1).edge(4)
    assert bins[-1].ts[-1] == pkts.ts[-1]  # the store's last row
    assert bins[-1].size[-1] == pkts.size[-1]
    assert_bins_identical(PacketTrace(pkts).batch_list(0.1), bins)


def _header_batch(ts):
    n = len(ts)
    return Batch(ts=np.asarray(ts, dtype=np.float64),
                 src_ip=np.arange(n), dst_ip=np.zeros(n),
                 src_port=np.zeros(n), dst_port=np.zeros(n),
                 proto=np.full(n, 6), size=np.arange(n) + 40)


@st.composite
def _timestamps_on_and_off_edges(draw):
    """Sorted timestamps mixing random values with exact bin edges, the
    bin width, and the sorted positions the store's chunks split at."""
    time_bin = draw(st.sampled_from([0.05, 0.1, 0.25, 0.3]))
    first = draw(st.floats(0.0, 1000.0))
    n_edges = draw(st.integers(0, 400))
    on_edges = [first + time_bin * k
                for k in draw(st.lists(st.integers(0, n_edges), max_size=12))]
    off_edges = draw(st.lists(
        st.floats(first, first + time_bin * n_edges), max_size=12))
    ts = sorted([first] + on_edges + off_edges)
    splits = sorted(draw(st.lists(st.integers(0, len(ts)), max_size=4)))
    return ts, time_bin, splits


@given(_timestamps_on_and_off_edges())
@example(([93.2, 100.0, 129.2], 0.3, []))
@example(([26.206, 57.906], 0.1, [1]))
def test_every_packet_lands_in_the_bin_the_grid_gives_it(case):
    ts, time_bin, splits = case
    packets = _header_batch(ts)
    trace = PacketTrace(packets)
    bins = trace.batch_list(time_bin)
    assert trace.num_batches(time_bin) == len(bins)
    assert sum(len(b) for b in bins) == len(ts)
    assert np.array_equal(np.concatenate([b.ts for b in bins]), ts)
    edges = [ts[0] + time_bin * i for i in range(len(bins) + 1)]
    for i, batch in enumerate(bins):
        assert batch.start_ts == edges[i], i
        assert batch.time_bin == time_bin
        assert np.all(edges[i] <= batch.ts) and np.all(batch.ts < edges[i + 1])
    assert len(bins[-1]) > 0 and bins[-1].ts[-1] == ts[-1]

    with tempfile.TemporaryDirectory() as tmp:
        writer = TraceWriter(Path(tmp) / "store", time_bin=time_bin)
        for lo, hi in zip([0] + splits, splits + [len(ts)]):
            writer.append(packets.select(np.arange(lo, hi)))
        store = writer.close()
        assert np.array_equal(store.bin_bounds(time_bin),
                              np.searchsorted(ts, edges))
        streaming = store.streaming()
        assert streaming.num_batches(time_bin) == len(bins)
        assert_bins_identical(bins, streaming.batch_list(time_bin))
        streaming.close()


def test_a_last_packet_on_an_edge_is_counted_by_a_reference_run(tmp_path):
    trace = PacketTrace(_header_batch([93.2, 100.0, 129.2]), name="edge")
    store = save_trace_store(trace, tmp_path / "edge", time_bin=0.3)
    for source in (trace, store):
        _, reference = runner.calibrate_capacity(("counter",), source,
                                                 time_bin=0.3)
        assert reference.total_packets == 3


def test_flushed_store_streams_the_rows_its_manifest_lists(
        tmp_path, payload_trace_small):
    """A reader that opens a store its writer has only ``flush()``ed sees
    the flushed rows and no others, however much was appended since."""
    pkts = payload_trace_small.packets
    split = len(pkts) // 2
    writer = TraceWriter(tmp_path / "growing", with_payloads=True)
    writer.append(pkts.select(np.arange(split)))
    writer.flush()
    writer.append(pkts.select(np.arange(split, len(pkts))))
    partial = TraceStore(tmp_path / "growing")
    assert partial.complete is False and len(partial) == split
    streamed = Batch.concatenate(list(partial.streaming().batches(0.1)))
    assert len(streamed) == split
    for column in COLUMN_FIELDS:
        assert np.array_equal(getattr(streamed, column),
                              getattr(pkts, column)[:split]), column
    assert streamed.payloads == pkts.payloads[:split]
    final = writer.close()
    assert final.complete and len(final) == len(pkts)
    assert_bins_identical(payload_trace_small.batch_list(0.1),
                          final.streaming().batches(0.1))


@pytest.mark.parametrize("column", ["size", "payload_blob"])
def test_truncated_column_file_raises_eof(tmp_path, payload_trace_small,
                                          column):
    store = save_trace_store(payload_trace_small, tmp_path / "cut")
    victim = store.path / f"{column}.npy"
    with open(victim, "r+b") as handle:
        handle.truncate(victim.stat().st_size // 2)
    with pytest.raises(EOFError, match=f"{column}.npy"):
        list(TraceStore(store.path).streaming().batches(0.1))


def test_streaming_starts_no_thread_and_close_releases_descriptors(
        store_and_trace):
    """Abandoning an iteration mid-trace and closing the streaming trace
    leaves nothing behind — a daemon rotating to a newer segment cannot
    leak a descriptor (or, as it once could, a thread) per trace."""
    store, _ = store_and_trace
    threads = threading.active_count()
    with TraceStore(store.path).streaming() as streaming:
        for index, _batch in enumerate(streaming.batches(0.1)):
            if index == 3:  # abandon mid-iteration
                break
        assert threading.active_count() == threads
        files = [entry[0] for entry in streaming.store._files.values()]
        assert len(files) == len(COLUMN_FIELDS)
    assert all(fh.closed for fh in files) and not streaming.store._files
    streaming.close()  # idempotent
    # The trace stays readable after close: descriptors reopen on demand.
    assert len(streaming.batch_list(0.1)[2]) > 0


# One replay per process, so the peak is that replay's own.  Prints the
# resident-set high-water mark before and after streaming every bin.
_RSS_PROBE = """
import re, sys
from repro.traffic.trace_io import TraceStore

def hwm_kb():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))

store = TraceStore(sys.argv[1])
before = hwm_kb()
rows = checksum = 0
for batch in store.streaming().batches(0.1):
    rows += len(batch)
    checksum += int(batch.size.sum()) + int(batch.src_ip[-1])
assert rows == len(store)
print(before, hwm_kb(), checksum)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_replay_resident_set_does_not_grow_with_the_store(tmp_path):
    """What the chunk LRU promised and a view of a mapping cannot give:
    streaming a store leaves the resident set where it was, whatever the
    store's length (mapped columns cost the whole store: tens of MB here).
    """
    short = write_header_store(tmp_path / "short", seconds=14)
    assert sum(f.stat().st_size for f in short.path.iterdir()) >= 32 * 2 ** 20
    before, short_peak = probe_rss_mb(_RSS_PROBE, short)
    assert short_peak - before < 8.0
    shutil.rmtree(short.path)
    long = write_header_store(tmp_path / "long", seconds=56)
    assert len(long) == 4 * len(short)
    _, long_peak = probe_rss_mb(_RSS_PROBE, long)
    assert abs(long_peak - short_peak) < 3.0


def test_as_trace_coercion(store_and_trace):
    store, trace = store_and_trace
    assert as_trace(trace) is trace
    streaming = store.streaming()
    assert as_trace(streaming) is streaming
    assert isinstance(as_trace(store), StreamingTrace)
    with pytest.raises(TypeError):
        as_trace(42)


# ----------------------------------------------------------------------
# Out-of-core replay of payloads
# ----------------------------------------------------------------------
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
    """Header columns, payload offsets and payload bytes all come from
    per-bin reads of their files."""
    store, trace, capacity = payload_shed_setup
    config = runner.system_config(queries=PAYLOAD_QUERY_SET, mode=mode,
                                  seed=7, cycles_per_second=capacity)
    in_memory = config.build().run(trace)
    streamed = config.build().run(store.streaming())
    _assert_results_identical(in_memory, streamed, f"payload/{mode}")


# ----------------------------------------------------------------------
# The replay CLI
# ----------------------------------------------------------------------
def test_replay_cli_on_a_store(tmp_path, capsys, small_trace):
    store = save_trace_store(small_trace, tmp_path / "cli")
    code = replay.main([str(store.path), "--queries", "counter,flows",
                        "--cycles-per-second", "2e8", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trace"]["packets"] == len(small_trace)
    assert summary["trace"]["streaming"] is True
    on_disk = sum(f.stat().st_size for f in store.path.iterdir())
    assert summary["streaming"].keys() == {"store_mb", "peak_rss_mb"}
    assert summary["streaming"]["store_mb"] == pytest.approx(
        on_disk / 2.0 ** 20)
    assert summary["streaming"]["peak_rss_mb"] > summary["streaming"][
        "store_mb"]
    assert summary["outcome"]["intervals_by_query"].keys() == {"counter",
                                                               "flows"}


def test_replay_cli_reports_memory_and_has_no_residency_flags(
        tmp_path, capsys, small_trace):
    store = save_trace_store(small_trace, tmp_path / "cli")
    assert replay.main([str(store.path), "--queries", "counter",
                        "--cycles-per-second", "2e8"]) == 0
    out = capsys.readouterr().out
    assert "store_mb" in out and "peak_rss_mb" in out
    assert "streamed out-of-core" in out
    usage = replay.build_parser().format_help()
    for flag in ("--chunk-packets", "--max-chunks", "--prefetch"):
        assert flag not in usage


@pytest.mark.parametrize("capacity", ["-5", "0"])
def test_replay_cli_refuses_a_capacity_that_is_not_positive_in_one_line(
        tmp_path, capsys, small_trace, capacity):
    store = save_trace_store(small_trace, tmp_path / "cli")
    assert replay.main([str(store.path), "--queries", "counter",
                        "--cycles-per-second", capacity]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cycles-per-second must be positive")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_replay_cli_on_a_v1_archive(tmp_path, capsys, small_trace):
    path = save_trace(small_trace, tmp_path / "v1.npz")
    code = replay.main([str(path), "--queries", "counter",
                        "--overload", "0.3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome" in out and "streamed out-of-core" not in out
