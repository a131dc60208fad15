"""What a finished bin leaves behind: nothing.

The ingest path touches each 100 ms batch once and lets it go.  These
tests pin that down by *reference counting alone* (the cyclic collector is
off): once the caller drops a bin's batch, the batch, its filter results,
its sampled sub-batches and everything memoised on them are freed — no
reference cycle runs through a :class:`Batch`, and nothing in a session
holds one past its bin.  The other half is the streaming reader, which
reads the columns and payloads of the bin being built and of nothing else,
on descriptors that are not part of a store's pickled state.  The fleet is
the third: it deals a stream out bin by bin, so neither the bins nor the
parts it splits them into outlive the run, and its resident set does not
grow with the store.  The shards of a node are the fourth: they ship every
flushed interval's partial and every bin's record to the node, so what a
shard session holds does not grow with the intervals it has seen, and the
node's own resident set does not grow with the store either.  A result
keeps a bin's values in its columns, not the record that delivered them.
Last, what a coordinating parent never holds at all: a query of its own.
"""

import gc
import pickle
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.features import TRAFFIC_AGGREGATES, FeatureExtractor
from repro.core.sampling import PacketSampler
from repro.experiments import runner
from repro.fleet import FleetPartitioner, FleetRunner, FleetTopology
from repro.monitor import sharding
from repro.monitor.filters import Filter
from repro.monitor.packet import COLUMN_FIELDS, Batch
from repro.monitor.system import ExecutionResult
from repro.monitor.sharding import ShardedSystem
from repro.queries import QuerySpec
from repro.testing import assert_results_identical
from repro.traffic.trace_io import TraceStore, save_trace_store
from tests.conftest import (drop_memos, make_batch, needs_fork, probe,
                            probe_rss_mb, write_header_store)

TIME_BIN = 0.1
FLOW_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")


@pytest.fixture
def no_gc():
    """Reference counting only: a cycle would survive the whole test."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def header_store(tmp_path_factory, small_trace):
    return save_trace_store(small_trace,
                            tmp_path_factory.mktemp("memory") / "header")


def _ingest_and_drop(session, bins):
    """Every bin through ``session``; each must die with its last reference.

    ``bins`` builds a fresh batch per index (a streaming bin list), so the
    only owner of a bin is this loop.
    """
    records = []
    for index in range(len(bins)):
        batch = bins[index]
        ref = weakref.ref(batch)
        records.append(session.ingest(batch))
        del batch
        assert ref() is None, f"bin {index} outlived its ingest"
    return records


# ----------------------------------------------------------------------
# Mechanism 1: no cycle through a batch, no owner past the bin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queries", [
    pytest.param("counter,flows", id="all-matching-filter"),
    pytest.param((QuerySpec("counter"), QuerySpec("flows", filter="tcp"),
                  QuerySpec("top-k", filter="port:80")),
                 id="selecting-keyed-filters"),
])
def test_a_bin_dies_with_its_last_reference(no_gc, header_store, queries):
    config = runner.system_config(queries=queries, seed=5)
    session = config.build().open_session(time_bin=TIME_BIN)
    records = _ingest_and_drop(session, header_store.streaming()
                               .batch_list(TIME_BIN))
    assert sum(record.incoming_packets for record in records) == \
        len(header_store)
    session.close()


def test_a_bin_that_sheds_dies_with_its_last_reference(no_gc, header_store,
                                                       small_trace):
    """Sampled sub-batches point at the bin weakly; the bin still goes."""
    names = ("counter", "flows", "top-k")
    capacity, _ = runner.calibrate_capacity(names, small_trace)
    config = runner.system_config(queries=",".join(names), seed=5,
                                  cycles_per_second=0.3 * capacity)
    session = config.build().open_session(time_bin=TIME_BIN)
    records = _ingest_and_drop(session, header_store.streaming()
                               .batch_list(TIME_BIN))
    assert any(record.rates and record.mean_rate < 1.0
               for record in records), "the scenario never shed"
    session.close()


def test_a_sharded_bin_dies_with_its_last_reference(no_gc, header_store):
    """The partition memo holds the shards' sub-batches, each pointing
    back at the bin: the other place a strong link would close a cycle."""
    config = runner.system_config(queries="counter,flows", seed=5)
    session = ShardedSystem(config=config, num_shards=2,
                            backend="inprocess").open_session(
        time_bin=TIME_BIN)
    _ingest_and_drop(session, header_store.streaming().batch_list(TIME_BIN))
    session.close()


def test_predictive_bins_leave_nothing_for_the_cyclic_collector(
        header_store):
    """``DEBUG_SAVEALL`` keeps whatever only the collector could free."""
    config = runner.system_config(
        queries=(QuerySpec("counter"), QuerySpec("flows", filter="tcp")),
        seed=5)
    session = config.build().open_session(time_bin=TIME_BIN)
    bins = header_store.streaming().batch_list(TIME_BIN)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for index in range(20):
            session.ingest(bins[index])
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Batch)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
    session.close()


def test_trace_held_batches_still_share_filter_results(small_trace,
                                                       monkeypatch):
    """A trace memoises its bins, so what one run computed on them (filter
    results, hashes) serves the next run, in whatever mode."""
    calls = []
    apply = Filter.apply
    monkeypatch.setattr(Filter, "apply",
                        lambda self, batch: calls.append(self.cache_key)
                        or apply(self, batch))
    queries = (QuerySpec("counter"), QuerySpec("flows", filter="tcp"))
    bins = small_trace.batch_list(TIME_BIN)
    for batch in bins:
        drop_memos(batch)
    for mode in ("predictive", "reactive"):
        session = runner.system_config(queries=queries, mode=mode,
                                       seed=5).build().open_session(
            time_bin=TIME_BIN)
        for batch in bins:
            session.ingest(batch)
        session.close()
        # One evaluation per distinct filter per bin, in the first run only.
        assert len(calls) == 2 * len(bins), mode
    everything = bins[0].cached_filter("all")
    assert everything is bins[0]  # stored as a marker, handed back as itself
    assert bins[0].cached_filter("proto:6") is bins[0].cached_filter(
        "proto:6")


def test_a_bin_memoises_bit_addresses_not_bank_only_hashes(header_store,
                                                          small_trace,
                                                          monkeypatch):
    """A bitmap bank is filled from one ``uint16`` address matrix per bin:
    the bin keeps no 64-bit hash of an aggregate only the bank reads, and
    a sampled batch gathers its rows of the bin's matrix, keeping none —
    the one a query runs on and the one accounting reads its features
    from, rebuilt from the rows the query kept."""
    sampled = []
    sample = PacketSampler.sample
    extract = FeatureExtractor.extract

    def read_sample(self, batch, update_state=True):
        if update_state:
            sampled.append(batch)
        return extract(self, batch, update_state)

    monkeypatch.setattr(PacketSampler, "sample",
                        lambda self, batch, rate: sampled.append(
                            sample(self, batch, rate)) or sampled[-1])
    monkeypatch.setattr(FeatureExtractor, "extract", read_sample)
    names = ("counter", "flows", "top-k")
    capacity, _ = runner.calibrate_capacity(names, small_trace)
    config = runner.system_config(queries=",".join(names), seed=5,
                                  feature_method="bitmap",
                                  cycles_per_second=0.3 * capacity)
    session = config.build().open_session(time_bin=TIME_BIN)
    bins = header_store.streaming().batch_list(TIME_BIN)
    bank_only = {("hash", columns) for _, columns in TRAFFIC_AGGREGATES
                 if columns != FLOW_COLUMNS}
    read = 0
    for index in range(len(bins)):
        batch = bins[index]
        session.ingest(batch)
        if not len(batch):
            continue
        assert not bank_only & set(batch._agg_cache), index
        addresses = batch._agg_cache[("addresses", 8, 4096)]
        assert addresses.dtype == np.uint16
        assert addresses.shape == (len(TRAFFIC_AGGREGATES), len(batch))
        for sub in sampled:
            assert not any(key[0] == "addresses" or key in bank_only
                           for key in sub._agg_cache or ()), index
            read += ("counters", "bitmap") in (sub._agg_cache or ())
        sampled.clear()
    session.close()
    assert read, "no sampled batch was read"


# ----------------------------------------------------------------------
# A sub-batch on its own
# ----------------------------------------------------------------------
def test_sub_batch_outliving_its_parent_recomputes_the_same_values(no_gc):
    parent = make_batch(n=300, seed=7, payloads=True)
    index = np.arange(0, 300, 3)
    hashes = parent.aggregate_hashes(FLOW_COLUMNS)[index]
    lengths = parent.payload_lengths()[index]
    sliced = parent.select(index)       # reads while the parent is alive
    orphan = parent.select(index)       # reads after it is gone
    assert np.array_equal(sliced.aggregate_hashes(FLOW_COLUMNS), hashes)
    assert np.array_equal(sliced.payload_lengths(), lengths)
    ref = weakref.ref(parent)
    del parent
    assert ref() is None
    assert np.array_equal(orphan.aggregate_hashes(FLOW_COLUMNS), hashes)
    assert np.array_equal(orphan.payload_lengths(), lengths)
    assert orphan.aggregate_hashes(FLOW_COLUMNS).dtype == hashes.dtype


def test_pickled_sub_batch_does_not_carry_its_parent():
    def pickled(parent_packets):
        parent = make_batch(n=parent_packets, seed=7)
        parent.aggregate_hashes(FLOW_COLUMNS)
        sub = parent.select(np.arange(50))
        return pickle.dumps(sub, pickle.HIGHEST_PROTOCOL), sub

    small, _ = pickled(100)
    large, sub = pickled(20_000)
    assert len(large) == len(small)
    restored = pickle.loads(large)
    assert np.array_equal(restored.ts, sub.ts)
    assert np.array_equal(restored.aggregate_hashes(FLOW_COLUMNS),
                          sub.aggregate_hashes(FLOW_COLUMNS))


# ----------------------------------------------------------------------
# Mechanisms 2 and 3: payloads per bin, read not mapped
# ----------------------------------------------------------------------
class _TrackedList(list):
    """A payload list a test can hold a weak reference to."""


def test_streaming_keeps_one_bin_of_payloads_alive(no_gc, tmp_path,
                                                   payload_trace_small):
    """The only payload objects alive are those of the bin being ingested,
    and the same goes for the header columns: a bin owns what was read for
    it."""
    names = ("counter", "pattern-search", "p2p-detector", "trace")
    capacity, _ = runner.calibrate_capacity(names, payload_trace_small)
    config = runner.system_config(queries=",".join(names), seed=5,
                                  cycles_per_second=0.5 * capacity)
    expected = config.build().run(payload_trace_small, time_bin=TIME_BIN)

    store = save_trace_store(payload_trace_small, tmp_path / "payload")
    slices, reads = [], []
    read = store.payloads_slice

    def tracked(lo, hi):
        payloads = _TrackedList(read(lo, hi))
        slices.append(weakref.ref(payloads))
        reads.append(hi - lo)
        return payloads

    store.payloads_slice = tracked
    streaming = store.streaming()
    session = config.build().open_session(time_bin=TIME_BIN,
                                          name=payload_trace_small.name)
    bins = streaming.batch_list(TIME_BIN)
    sizes = []
    for index in range(len(bins)):
        batch = bins[index]
        sizes.append(len(batch))
        assert sum(ref() is not None for ref in slices) <= 1
        # The bytes read for a column belong to the bin's array alone.
        read_for_ts = weakref.ref(batch.ts)
        assert not isinstance(batch.ts, np.memmap)
        session.ingest(batch)
        del batch
        assert not any(ref() is not None for ref in slices)
        assert read_for_ts() is None
    # Exactly one read per non-empty bin, of exactly that bin's rows.
    assert reads == [size for size in sizes if size]
    assert max(reads) < len(store) / 4
    assert store._mmaps.keys() <= {"ts"}  # first and last timestamp only
    assert_results_identical(expected, session.close(), "payload-streaming")


def test_streamed_reads_do_not_go_through_the_map(tmp_path,
                                                  payload_trace_small):
    store = save_trace_store(payload_trace_small, tmp_path / "payload")
    want = payload_trace_small.packets.payloads
    assert store.payloads_slice(0, len(store)) == want
    assert store.payloads_slice(17, 90) == want[17:90]
    assert store.payloads_slice(5, 5) == []
    rows = store.read_rows(17, 90)
    for name in COLUMN_FIELDS:
        assert np.array_equal(rows[name],
                              getattr(payload_trace_small.packets,
                                      name)[17:90]), name
    # Every column was read from its file and none was mapped; one
    # descriptor per column file, opened by the first read of it.
    assert store._mmaps == {}
    opened = set(COLUMN_FIELDS) | {"payload_offsets", "payload_blob"}
    assert store._files.keys() == opened
    files = [entry[0] for entry in store._files.values()]
    # Neither descriptors nor data are pickled state.
    store.column("size")
    copy = pickle.loads(pickle.dumps(store))
    assert copy._files == {} and copy._mmaps == {}
    assert copy.payloads_slice(17, 90) == want[17:90]
    assert np.array_equal(copy.read_rows(17, 90)["ts"], rows["ts"])
    store.close()
    assert store._files == {}
    assert all(fh.closed for fh in files)
    store.close()  # idempotent
    # Reopened on demand, column by column.
    assert store.payloads_slice(0, 3) == want[:3]
    assert store._files.keys() == {"payload_offsets", "payload_blob"}
    assert np.array_equal(store.read_rows(0, 3)["ts"],
                          payload_trace_small.packets.ts[:3])
    assert store._files.keys() == opened


def test_pickled_store_carries_no_data(header_store):
    """A store that has streamed (and mapped) its columns pickles to the
    size of one that has not: the path and the manifest."""
    fresh = len(pickle.dumps(TraceStore(header_store.path)))
    used = TraceStore(header_store.path)
    want = list(used.streaming().batches(TIME_BIN))
    used.to_trace()  # maps every column
    assert len(used._mmaps) == len(COLUMN_FIELDS) and used._files
    blob = pickle.dumps(used)
    assert abs(len(blob) - fresh) < 300
    assert len(blob) < used.column("ts").nbytes / 4
    got = list(pickle.loads(blob).streaming().batches(TIME_BIN))
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.start_ts == theirs.start_ts
        for name in COLUMN_FIELDS:
            assert np.array_equal(getattr(mine, name),
                                  getattr(theirs, name)), name


# ----------------------------------------------------------------------
# The fleet: a stream dealt out bin by bin
# ----------------------------------------------------------------------


class _WatchedStore:
    """The trace protocol over a store, with a weak reference to every
    bin it hands out."""

    def __init__(self, store):
        self.name = store.name
        self.store = store
        self.bins = []

    def batches(self, time_bin):
        for batch in self.store.streaming().batches(time_bin):
            self.bins.append(weakref.ref(batch))
            yield batch


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("fork", marks=needs_fork)])
def test_fleet_run_does_not_hold_the_stream(no_gc, header_store, monkeypatch,
                                            backend):
    """Every bin ``run`` read and every part it split is gone when ``run``
    returns: the result carries records and logs, never packets."""
    parts = []
    split = FleetPartitioner.split

    def watched_split(partitioner, batch):
        made = split(partitioner, batch)
        parts.extend(weakref.ref(part) for part in made)
        return made

    monkeypatch.setattr(FleetPartitioner, "split", watched_split)
    source = _WatchedStore(header_store)
    fleet = FleetRunner(
        FleetTopology.uniform(4), n_workers=2, backend=backend,
        respect_cores=False,
        config=runner.system_config(queries="counter,flows", seed=5,
                                    cycles_per_second=1e8))
    result = fleet.run(source, time_bin=TIME_BIN)
    assert result.backend == backend
    assert result.federated.total_packets == len(header_store)
    assert len(source.bins) == len(result.federated.bins) > 0
    assert len(parts) == 4 * len(source.bins)
    assert not any(ref() is not None for ref in source.bins + parts)


# One fleet run per process, so the peak is that run's own.  Prints the
# parent's resident-set high-water mark before and after the run.
_FLEET_RSS_PROBE = """
import re, sys
from repro.experiments import runner
from repro.fleet import FleetRunner, FleetTopology
from repro.traffic.trace_io import TraceStore

def hwm_kb():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))

store = TraceStore(sys.argv[1])
fleet = FleetRunner(FleetTopology.uniform(4), n_workers=2, backend="fork",
                    respect_cores=False,
                    config=runner.system_config(queries="counter",
                                                cycles_per_second=1e9))
before = hwm_kb()
result = fleet.run(store)
assert result.backend == "fork"
assert result.federated.total_packets == len(store)
print(before, hwm_kb())
"""


@needs_fork
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_fleet_parent_resident_set_does_not_grow_with_the_store(tmp_path):
    """The parent of a fleet on resident workers holds one bin and its
    parts, whatever the store's length (the whole stream split four ways
    would be twice the store: 30 MB more for the long one here)."""
    short = write_header_store(tmp_path / "short", seconds=2)
    long = write_header_store(tmp_path / "long", seconds=8)
    assert len(long) == 4 * len(short)
    assert sum(f.stat().st_size for f in long.path.iterdir()) >= 19 * 2 ** 20
    before, short_peak = probe_rss_mb(_FLEET_RSS_PROBE, short)
    assert short_peak - before < 8.0
    _, long_peak = probe_rss_mb(_FLEET_RSS_PROBE, long)
    assert abs(long_peak - short_peak) < 3.0


# ----------------------------------------------------------------------
# The shards of a node: nothing kept per interval
# ----------------------------------------------------------------------
LOSSY_KINDS = "counter,top-k,autofocus,high-watermark,super-sources"


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("workers", marks=needs_fork)])
def test_a_shard_session_does_not_grow_with_the_intervals(tmp_path, backend):
    """After nine intervals a shard session holds what it held after
    three: no record, no result, the open interval's tables and nothing
    else (on the worker pool the sessions are copied out of the forked
    workers, which is where they would grow)."""
    store = write_header_store(tmp_path / "store", seconds=10,
                               packets_per_bin=1500)
    config = runner.system_config(mode="reference", queries=LOSSY_KINDS,
                                  seed=5)
    session = ShardedSystem(config=config, num_shards=2,
                            backend=backend).open_session(time_bin=TIME_BIN)
    sizes = {}
    with session:
        for index, batch in enumerate(store.streaming().batches(TIME_BIN)):
            session.ingest(batch)
            if index in (30, 90):  # the same phase of an interval
                shards = session._executor.session_states()
                sizes[index] = [len(pickle.dumps(shard)) for shard in shards]
                for shard in shards:
                    assert shard.bins_ingested == index + 1
                    kept = shard.partial_result()
                    assert kept.bins == [] and shard.system._flushed == []
                    assert not any(len(log)
                                   for log in kept.query_logs.values())
        result = session.close()
    for early, late in zip(sizes[30], sizes[90]):
        assert abs(late - early) < 0.05 * early
    # The node kept them instead: ten intervals of five queries, 100 bins.
    assert [len(log) for log in result.query_logs.values()] == [10] * 5
    assert len(result.bins) == 100


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("workers", marks=needs_fork)])
def test_a_node_keeps_only_its_recent_bin_seconds(monkeypatch, small_trace,
                                                  backend):
    """A node's slowest-shard series is bounded as a session's is, to
    ``RECENT_BINS``, and its shard executor keeps no bin's wall seconds
    once the node has folded the bin."""
    monkeypatch.setattr(sharding, "RECENT_BINS", 4)
    config = runner.system_config(queries="counter,flows", seed=5)
    bins = small_trace.batch_list(TIME_BIN)
    assert len(bins) > 4
    session = ShardedSystem(config=config, num_shards=2,
                            backend=backend).open_session(time_bin=TIME_BIN)
    with session:
        for batch in bins:
            session.ingest(batch)
            assert not any(session._executor.ingest_seconds)
        assert session.metrics["profile"]["bin_seconds"]["n"] == 4
    assert session.metrics["profile"]["bin_seconds"]["n"] == 4


# ----------------------------------------------------------------------
# What a result keeps of a bin: its values, not its record
# ----------------------------------------------------------------------
def test_a_result_keeps_a_bin_in_a_few_hundred_bytes():
    """A result folds each bin's record into its columns and lets the
    record go: a bin of a three-query mix costs it its values (about 290
    bytes, the rate decision's columns included), not the 1.3 KB a kept
    record with its three dicts did.  The
    records are unpickled, as a worker delivers them, so each brings name
    strings of its own."""
    config = runner.system_config(mode="predictive", seed=5,
                                  queries="counter,flows,top-k",
                                  cycles_per_second=5e6)
    session = config.build().open_session(time_bin=TIME_BIN)
    for index in range(3):
        record, _ = session.step(make_batch(n=300, seed=index,
                                            start_ts=TIME_BIN * index))
    assert len(record.rates) == len(record.query_cycles_by_query) == 3
    delivered = pickle.dumps(record)
    result = ExecutionResult(config.mode, config.strategy, "t",
                             session.budget)
    bins = 1000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(bins):
            record = pickle.loads(delivered)
            record.index = index
            result.fold(record, [], session.query_names)
        del record
        gc.collect()
        per_bin = (tracemalloc.get_traced_memory()[0] - before) / bins
    finally:
        tracemalloc.stop()
    assert len(result.bins) == bins
    assert per_bin < 400, f"{per_bin:.0f} bytes retained per bin"


# One sharded run per process, as for the fleet above.
_SHARDED_RSS_PROBE = """
import re, sys
from repro.experiments import runner
from repro.monitor.sharding import ShardedSystem
from repro.traffic.trace_io import TraceStore

def hwm_kb():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))

store = TraceStore(sys.argv[1])
config = runner.system_config(
    mode="reference",
    queries="counter,top-k,autofocus,high-watermark,super-sources")
sharded = ShardedSystem(config=config, num_shards=2, backend="workers")
before = hwm_kb()
result = sharded.run(store)
assert result.total_packets == len(store)
assert len(result.query_logs["top-k"]) == len(result.bins) // 10
print(before, hwm_kb())
"""


@needs_fork
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_sharded_parent_resident_set_does_not_grow_with_the_store(tmp_path):
    """The parent of a node on shard workers merges an interval's partials
    and lets them go: a four times longer store costs it the finished
    results and bin records of the extra seconds, within the allowance the
    fleet's parent has."""
    short = write_header_store(tmp_path / "short", seconds=2,
                               packets_per_bin=2_000)
    long = write_header_store(tmp_path / "long", seconds=8,
                              packets_per_bin=2_000)
    assert len(long) == 4 * len(short)
    _, short_peak = probe_rss_mb(_SHARDED_RSS_PROBE, short)
    _, long_peak = probe_rss_mb(_SHARDED_RSS_PROBE, long)
    assert abs(long_peak - short_peak) < 3.0


# ----------------------------------------------------------------------
# A coordinating parent builds no query
# ----------------------------------------------------------------------
# A node on shard workers, then a fleet on forked workers, in one process
# whose Query.__init__ counts; prints how many queries the parent built and
# whether it imported numpy.random (the meters' generators would).  The one
# query it does build is the caller's, added live to the node.
_PARENT_QUERIES_PROBE = """
import sys
from repro.experiments import runner
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.query import Query
from repro.monitor.sharding import ShardedSystem
from repro.queries import QuerySpec
from repro.traffic.trace_io import TraceStore

built = []
init = Query.__init__

def counted(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)

Query.__init__ = counted
store = TraceStore(sys.argv[1])
config = runner.system_config(queries="counter,flows,top-k", seed=5)
session = ShardedSystem(config=config, num_shards=2, backend="workers"
                        ).open_session(time_bin=0.1, name=store.name)
assert session.backend == "workers"
session.add_query(QuerySpec("top-k", {"name": "late"}).build())
node = session.ingest_trace(store).close()
assert node.total_packets == len(store)
assert sorted(node.query_logs) == ["counter", "flows", "late", "top-k"]
fleet = FleetRunner(FleetTopology.uniform(4), n_workers=2, backend="fork",
                    respect_cores=False, config=config)
result = fleet.run(store)
assert result.backend == "fork"
assert result.federated.total_packets == len(store)
assert sorted(result.federated.query_logs) == ["counter", "flows", "top-k"]
print(len(built), "numpy.random" in sys.modules)
"""


@needs_fork
def test_a_coordinating_parent_builds_no_query(tmp_path):
    """Only sessions build queries: the parent of a node on shard workers
    and of a fleet on forked workers reads its mix's names and classes from
    the specs, so it constructs none of its own, and a query a caller
    builds there draws no generator, so numpy.random is never imported."""
    store = write_header_store(tmp_path / "store", seconds=1,
                               packets_per_bin=500)
    assert probe(_PARENT_QUERIES_PROBE, store) == ["1", "False"]


# ----------------------------------------------------------------------
# What a process imports of repro, multiprocessing and the OpenSSL-backed
# `secrets` / `hashlib`: `import repro`, then an in-process session over
# a store (the modules it loaded, after a "|"), then, when asked to, a
# sharded node on the worker pool (the modules that added, after a "|").
_IMPORT_FOOTPRINT_PROBE = """
import sys

def loaded():
    return {name for name in sys.modules
            if name.partition(".")[0] in ("repro", "multiprocessing",
                                          "secrets", "hashlib")}

import repro
print(*sorted(loaded()), "|")
from repro import SystemConfig
from repro.traffic.trace_io import TraceStore
store = TraceStore(sys.argv[1])
config = SystemConfig(queries="counter,flows,top-k", cycles_per_second=2e8)
assert config.build().run(store).total_packets == len(store)
session = loaded()
print(*sorted(session), "|")
if sys.argv[2:] == ["pool"]:
    from repro.monitor.sharding import ShardedSystem
    node = ShardedSystem(config=config, num_shards=2, backend="workers")
    assert node.run(store).total_packets == len(store)
    print(*sorted(loaded() - session))
"""


def _footprint(store, *args):
    words = " ".join(probe(_IMPORT_FOOTPRINT_PROBE, store, *args))
    return [set(part.split()) for part in words.split("|")]


def test_a_session_imports_what_it_runs(tmp_path):
    """The package facades import nothing, the worker pool is not loaded
    without a pool, and a session loads its own query kinds' modules."""
    store = write_header_store(tmp_path / "store", seconds=1,
                               packets_per_bin=500)
    package, session, _ = _footprint(store)
    assert package == {"repro"}
    not_run = ("multiprocessing", "repro.monitor.workers", "repro.fleet",
               "repro.serve", "repro.core.game", "repro.traffic.anomalies",
               "repro.experiments")
    assert not [name for name in session
                if name.startswith(not_run)], sorted(session)
    assert {name for name in session if name.startswith("repro.queries.")
            } == {"repro.queries.counter", "repro.queries.flows",
                  "repro.queries.top_k"}


@needs_fork
def test_a_pool_loads_the_worker_module_when_it_starts(tmp_path):
    """A pool loads its module, and no ``multiprocessing`` module at all:
    it forks its workers itself and its slots are memory files, so
    neither ``shared_memory`` with its ``secrets`` / ``hashlib`` (OpenSSL)
    nor a resource tracker."""
    store = write_header_store(tmp_path / "store", seconds=1,
                               packets_per_bin=500)
    _, session, pool = _footprint(store, "pool")
    assert "repro.monitor.workers" in pool
    assert not [name for name in session | pool
                if name.startswith(("multiprocessing", "secrets",
                                    "hashlib"))], sorted(pool)


# ----------------------------------------------------------------------
# What a session draws its random bits from
# ----------------------------------------------------------------------
# A predictive counter,flows session over a store at half the reference
# run's 95th percentile of cycles per bin, with the measurement noise in
# argv[2].  Prints whether each query ran below rate 1 in some bin, then,
# "|" apart, which of numpy.random, secrets and hashlib were loaded after
# build(), just before and just after the first noisy draw, and after the
# run.
_SAMPLING_FOOTPRINT_PROBE = """
import sys
import numpy as np
from repro import SystemConfig
from repro.core.cycles import CycleMeter
from repro.traffic.trace_io import TraceStore

def loaded():
    return [name for name in ("numpy.random", "secrets", "hashlib")
            if name in sys.modules]

store = TraceStore(sys.argv[1])
config = SystemConfig(queries="counter,flows", seed=3)
reference = config.replace(mode="reference").build().run(store)
per_second = np.quantile(reference.cycles_per_bin(), 0.95) / 0.1
system = config.replace(cycles_per_second=0.5 * per_second,
                        measurement_noise=float(sys.argv[2])).build()
built = loaded()
first_draw = []
consume = CycleMeter.consume

def watched(meter):
    noisy = meter.noise_std > 0.0 and meter._accumulated > 0.0
    before = loaded()
    cycles = consume(meter)
    if noisy and not first_draw:
        first_draw.extend((before, loaded()))
    return cycles

CycleMeter.consume = watched
result = system.run(store)
print(*(bool(result.rate_series(name).min() < 1.0)
        for name in ("counter", "flows")))
first_draw = first_draw or ([], [])
print(*built, "|", *first_draw[0], "|", *first_draw[1], "|", *loaded())
"""


def _sampling_footprint(store, noise):
    """Whether each query ran below rate 1, and the random modules loaded
    after ``build()``, before and after the first noisy draw, and after the
    run."""
    words = probe(_SAMPLING_FOOTPRINT_PROBE, store, str(noise))
    return words[:2], [part.split() for part in " ".join(words[2:]).split("|")]


def test_a_shedding_session_imports_no_random_module(tmp_path):
    """Packet and flow sampling draw their bits from SplitMix64 streams
    keyed by the system seed and the query's name: a session in which a
    packet-sampled and a flow-sampled query both shed loads none of
    ``numpy.random``, ``secrets`` or ``hashlib``."""
    store = write_header_store(tmp_path / "store", seconds=2,
                               packets_per_bin=500)
    below_one, loaded = _sampling_footprint(store, 0.0)
    assert below_one == ["True", "True"]
    assert loaded == [[], [], [], []]


def test_measurement_noise_imports_numpy_random_at_its_first_draw(tmp_path):
    """A meter makes its noise generator on its first noisy draw, from the
    seed the system gave it: ``numpy.random`` is not loaded by ``build()``
    nor before that draw, and is loaded by it."""
    store = write_header_store(tmp_path / "store", seconds=2,
                               packets_per_bin=500)
    below_one, (built, before, drawn, after) = _sampling_footprint(store,
                                                                   0.05)
    assert below_one == ["True", "True"]
    assert built == before == []
    assert "numpy.random" in drawn and "numpy.random" in after
