"""Checkpoint/restore: bit-identical resume across modes and backends.

The contract under test: checkpoint a streaming session at bin ``k``,
restore it (same process, different backend, or from a file on disk),
feed it the remaining bins, and the final ``ExecutionResult`` is
bit-identical to the uninterrupted run's — per-bin accounting series,
interval boundaries and query results alike.  Pending (not yet applied)
reconfigurations are part of the state and fire at the restored
session's next bin, exactly as they would have.
"""

import copyreg
import io
import itertools
import pickle

import numpy as np
import pytest
from oracles.bitmap import MultiResolutionBitmap as BoolMatrixBitmap
from oracles.bitmap import unpack_words

from repro.core.distinct import (BitmapBank, CounterBank,
                                 ExactDistinctCounter, MultiResolutionBitmap)
from repro.core import features
from repro.core.features import (TRAFFIC_AGGREGATES, FeatureExtractor,
                                 FeatureSharing)
from repro.core.tenancy import TenantGroup
from repro.experiments import runner
from repro.monitor.packet import Batch
from repro.monitor.sharding import (FLOW_FIELDS, InProcessShards,
                                    ShardedSession, ShardedSystem)
from repro.monitor.system import ExecutionResult, MonitoringSystem
from repro.monitor.workers import fork_start_available
from repro.queries import make_query
from repro.queries.high_watermark import HighWatermarkQuery
from repro.serve.checkpoint import (CHECKPOINT_FORMAT, capture,
                                    describe_checkpoint, load_checkpoint,
                                    restore_session, save_checkpoint)
from repro.testing import IDENTITY_SERIES, assert_results_identical

MODES = ("predictive", "reactive", "original", "reference")
QUERIES = "counter,flows"
CAPACITY = 2.0e7

needs_fork = pytest.mark.skipif(
    not fork_start_available(),
    reason="persistent shard workers prefer the fork start method")


def _config(mode, num_shards=1, **overrides):
    return runner.system_config(mode=mode, seed=5, queries=QUERIES,
                                cycles_per_second=CAPACITY,
                                num_shards=num_shards, **overrides)


def _open_session(config, n_workers=1, backend=None, name="ckpt"):
    if config.num_shards > 1:
        sharded = ShardedSystem(config=config, n_workers=n_workers,
                                respect_cores=False, backend=backend)
        return sharded.open_session(time_bin=0.1, name=name)
    return config.build().open_session(time_bin=0.1, name=name)


def _run_uninterrupted(config, bins):
    session = _open_session(config)
    for batch in bins:
        session.ingest(batch)
    return session.close()


def _check_round_trip(small_trace, mode, num_shards, **overrides):
    config = _config(mode, num_shards=num_shards, **overrides)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    expected = _run_uninterrupted(config, bins)

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    blob = capture(session)
    restored = restore_session(blob)
    assert restored.bins_ingested == k
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label=f"{mode}/shards={num_shards}/{overrides}")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("num_shards", (1, 4))
def test_round_trip_bit_identical(small_trace, mode, num_shards):
    """Checkpoint at bin k, restore, finish: identical to uninterrupted."""
    _check_round_trip(small_trace, mode, num_shards)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_round_trip_bit_identical_on_bitmaps(small_trace, num_shards):
    """The same with the product-default feature counters (the harness
    default is exact counting); only the predictive mode reads features."""
    _check_round_trip(small_trace, "predictive", num_shards,
                      feature_method="bitmap")


@pytest.mark.parametrize("num_shards", (1, 4))
def test_pending_ops_survive_checkpoint(small_trace, num_shards):
    """Queued add/capacity ops fire at the restored session's next bin."""
    config = _config("predictive", num_shards=num_shards)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2

    def reconfigure(session):
        if config.num_shards > 1:
            session.add_query(lambda: make_query("top-k"))
        else:
            session.add_query(make_query("top-k"))
        session.set_capacity(CAPACITY * 0.7)

    expected_session = _open_session(config)
    for batch in bins[:k]:
        expected_session.ingest(batch)
    reconfigure(expected_session)
    for batch in bins[k:]:
        expected_session.ingest(batch)
    expected = expected_session.close()
    assert "top-k" in expected.query_logs

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    reconfigure(session)  # queued, NOT yet applied — checkpointed pending
    restored = restore_session(capture(session))
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label=f"pending/shards={num_shards}")


@needs_fork
def test_workers_checkpoint_restores_inprocess(small_trace):
    """A run checkpointed on the worker pool resumes in-process."""
    config = _config("predictive", num_shards=4, shard_rebalance=True)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    expected = _run_uninterrupted(config, bins)

    session = _open_session(config, n_workers=4, backend="workers")
    try:
        assert session.backend == "workers"
        for batch in bins[:k]:
            session.ingest(batch)
        blob = capture(session)
        # The live workers session keeps streaming after the snapshot.
        for batch in bins[k:]:
            session.ingest(batch)
        assert_results_identical(expected, session.close(),
                                 label="workers/uninterrupted-after-capture")
    finally:
        session.close()

    # The default restore resumes the checkpointed backend; ask for
    # in-process explicitly to cross backends.
    restored = restore_session(blob, backend="inprocess")
    assert restored.backend == "inprocess"
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label="workers->inprocess")


@needs_fork
def test_inprocess_checkpoint_restores_on_workers(small_trace):
    """...and the other direction: in-process checkpoint, workers resume."""
    config = _config("predictive", num_shards=4)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    expected = _run_uninterrupted(config, bins)

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    blob = capture(session)

    restored = restore_session(blob, n_workers=4, backend="workers",
                               respect_cores=False)
    try:
        assert restored.backend == "workers"
        for batch in bins[k:]:
            restored.ingest(batch)
        assert_results_identical(expected, restored.close(),
                                 label="inprocess->workers")
    finally:
        restored.close()


#: The kinds whose shard partial is not their result, and one that is.
PARTIAL_KINDS = "counter,top-k,autofocus,high-watermark,super-sources"


@needs_fork
@pytest.mark.parametrize("first,then", [("workers", "inprocess"),
                                        ("inprocess", "workers")])
def test_mid_interval_checkpoint_crosses_executors(small_trace, first, then):
    """The node's merged logs ride in the payload and the shard sessions
    carry their open intervals only: a checkpoint cut in the middle of a
    measurement interval on one executor finishes on the other exactly as
    the uninterrupted run does."""
    config = _config("predictive", num_shards=2, shard_rebalance=False) \
        .replace(queries=PARTIAL_KINDS, cycles_per_second=6e5)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2 + 3
    expected = _run_uninterrupted(config, bins)
    assert expected.mean_sampling_rate() < 0.9  # shed, so rates are mixed

    with _open_session(config, backend=first) as session:
        for batch in bins[:k]:
            session.ingest(batch)
        state = pickle.loads(pickle.dumps(session.state_dict()))
        blob = capture(session)
    assert len(state["bins"]) == k
    assert {len(log) for log in state["query_logs"].values()} == {2}
    for shard in state["shard_sessions"]:
        kept = shard.close()
        assert kept.bins == [] and not any(
            len(log) for log in kept.query_logs.values())

    with restore_session(blob, backend=then) as restored:
        assert restored.backend == then
        for batch in bins[k:]:
            restored.ingest(batch)
        assert_results_identical(expected, restored.close(),
                                 label=f"{first}->{then}")


@needs_fork
@pytest.mark.parametrize("first,then", [("workers", "inprocess"),
                                        ("inprocess", "workers")])
def test_departed_query_survives_checkpoint(small_trace, first, then):
    """Regression: the node took the names of its logs from a shard's
    result, and a restored shard had forgotten the queries that departed
    before the checkpoint — their whole log vanished from the restored
    session's ``partial_result()`` and ``close()``."""
    config = _config("predictive", num_shards=2, shard_rebalance=False) \
        .replace(queries=PARTIAL_KINDS, cycles_per_second=6e5)
    bins = small_trace.batch_list(0.1)
    gone, k = 15, len(bins) // 2 + 3  # departs in interval [1, 2)

    def run(session, batches, start=0):
        for index, batch in enumerate(batches, start=start):
            if index == gone:
                session.remove_query("top-k")
            session.ingest(batch)
        return session

    with _open_session(config) as uninterrupted:
        expected = run(uninterrupted, bins).close()
    # A serial session reports the same names.
    serial = run(_open_session(config.replace(num_shards=1)), bins).close()
    assert set(expected.query_logs) == set(serial.query_logs)
    assert len(expected.query_logs["top-k"]) == 2

    with _open_session(config, backend=first) as session:
        blob = capture(run(session, bins[:k]))
    with restore_session(blob, backend=then) as restored:
        assert "top-k" not in restored.query_names
        assert restored.partial_result().query_logs["top-k"].results == \
            expected.query_logs["top-k"].results
        result = run(restored, bins[k:], start=k).close()
    assert_results_identical(expected, result, label=f"{first}->{then}")


class _BeforePartialsPickler(pickle.Pickler):
    """Pickles a session graph the way builds before shards shipped
    partials wrote it: a system had no outbox, and a high-watermark query
    kept the interval's running maxima, not its per-bin series."""

    def reducer_override(self, obj):
        if isinstance(obj, MonitoringSystem):
            state = {name: value for name, value in vars(obj).items()
                     if name != "_outbox"}
            return copyreg.__newobj__, (MonitoringSystem,), state
        if isinstance(obj, HighWatermarkQuery):
            state = dict(vars(obj))
            series = state.pop("_bins").values()
            state["_watermark_bytes"] = max((b for b, _ in series),
                                            default=0.0)
            state["_watermark_packets"] = max((p for _, p in series),
                                              default=0.0)
            return copyreg.__newobj__, (HighWatermarkQuery,), state
        return NotImplemented


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("workers", marks=needs_fork)])
def test_restores_checkpoint_written_before_partials(small_trace, backend):
    """Then every shard session held its own finished results and bins, and
    the payload no node logs.  Restored, the intervals flushed before the
    checkpoint fold once by the rule finished results federate by (what
    those builds reported); every interval that begins after it is exact,
    and so is the one it cuts — but for high-watermark, whose shards only
    kept their maxima of the bins before the cut."""
    config = runner.system_config(mode="reference", seed=5,
                                  queries=PARTIAL_KINDS, num_shards=2,
                                  shard_rebalance=False)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2 + 3  # cuts the interval [2, 3)
    serial = config.replace(num_shards=1).build().run(small_trace)

    def as_those_builds_ran(upto):
        """Shards that finish their own answers, driven by hand."""
        sharded = ShardedSystem(config=config)
        shards = InProcessShards(sharded.systems, 0.1,
                                 [f"old[shard{i}]" for i in range(2)])
        for batch in bins[:upto]:
            parts = batch.partition(2, FLOW_FIELDS)
            records = shards.ingest(parts)
        load = [(len(part), record.total_cycles)
                for part, record in zip(parts, records)]
        return sharded, shards, load

    sharded, shards, load = as_those_builds_ran(len(bins))
    those_builds = ExecutionResult.merge(
        shards.close(), query_classes=sharded.query_classes)

    sharded, shards, load = as_those_builds_ran(k)
    buffer = io.BytesIO()
    _BeforePartialsPickler(buffer, pickle.HIGHEST_PROTOCOL).dump({
        "kind": "sharded", "config": config, "time_bin": 0.1, "name": "old",
        "total_cycles_per_second": sharded.total_cycles_per_second,
        "shard_sessions": shards.session_states(),
        "query_classes": sharded.query_classes, "prev_load": load,
        "bins_ingested": k, "query_names": sharded.query_names,
        "tenant_cycles": {}})
    assert b"_outbox" not in buffer.getvalue()
    assert b"_watermark_bytes" in buffer.getvalue()

    with ShardedSession.from_state(pickle.loads(buffer.getvalue()),
                                   backend=backend) as restored:
        assert restored.bins_ingested == k
        assert len(restored.partial_result().bins) == k
        for batch in bins[k:]:
            restored.ingest(batch)
        result = restored.close()

    for name in IDENTITY_SERIES:
        assert np.array_equal(result.series(name), those_builds.series(name))
    for name, log in result.query_logs.items():
        then, exact = those_builds.query_logs[name], serial.query_logs[name]
        assert log.intervals == exact.intervals and len(log) == 4
        assert log.results[:2] == then.results[:2], name
        assert log.results[3] == exact.results[3], name
        if name != "high-watermark":
            assert log.results[2] == exact.results[2], name
    cut = result.query_logs["high-watermark"].results[2]["watermark_bytes"]
    assert serial.query_logs["high-watermark"].results[2][
        "watermark_bytes"] <= cut <= those_builds.query_logs[
        "high-watermark"].results[2]["watermark_bytes"]
    # The rule differs from the exact merge on this trace, or the test
    # would not tell the two apart.
    assert those_builds.query_logs["top-k"].results[:2] != \
        serial.query_logs["top-k"].results[:2]


def test_departed_log_of_a_checkpoint_written_before_partials(small_trace):
    """...and a query that departed before such a checkpoint keeps the log
    its shard sessions held, folded by the same rule."""
    config = runner.system_config(mode="reference", seed=5,
                                  queries=PARTIAL_KINDS, num_shards=2,
                                  shard_rebalance=False)
    bins = small_trace.batch_list(0.1)
    gone, k = 15, len(bins) // 2 + 3
    sharded = ShardedSystem(config=config)
    shards = InProcessShards(sharded.systems, 0.1, ["old[0]", "old[1]"])
    for index, batch in enumerate(bins[:k]):
        if index == gone:
            for shard in range(2):
                shards.remove_query(shard, "top-k")
        parts = batch.partition(2, FLOW_FIELDS)
        records = shards.ingest(parts)
    those_builds = ExecutionResult.merge(
        [session.partial_result() for session in shards.sessions],
        query_classes=sharded.query_classes)
    assert len(those_builds.query_logs["top-k"]) == 2
    buffer = io.BytesIO()
    _BeforePartialsPickler(buffer, pickle.HIGHEST_PROTOCOL).dump({
        "kind": "sharded", "config": config, "time_bin": 0.1, "name": "old",
        "total_cycles_per_second": sharded.total_cycles_per_second,
        "shard_sessions": shards.session_states(),
        "query_classes": sharded.query_classes,
        "prev_load": [(len(part), record.total_cycles)
                      for part, record in zip(parts, records)],
        "bins_ingested": k, "tenant_cycles": {},
        "query_names": [name for name in sharded.query_names
                        if name != "top-k"]})

    with ShardedSession.from_state(pickle.loads(buffer.getvalue()),
                                   backend="inprocess") as restored:
        snapshot = restored.partial_result()
        for batch in bins[k:]:
            restored.ingest(batch)
        for result in (snapshot, restored.close()):
            assert result.query_logs["top-k"].results == \
                those_builds.query_logs["top-k"].results
            assert set(result.query_logs) == set(those_builds.query_logs)


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("workers", marks=needs_fork)])
def test_restored_sharded_session_is_a_whole_session(small_trace, backend):
    """Regression: ``from_state`` built the session beside ``__init__`` and
    forgot ``_closed_metrics`` / ``_tenant_cycles``, so ``.metrics`` on any
    restored sharded session — and ``ingest`` once tenant groups were
    declared — raised ``AttributeError``.  A restored session answers
    everything a fresh one does, and its per-tenant cycle totals continue
    from the checkpoint instead of restarting at zero."""
    tenants = (TenantGroup(name="ops", queries=("counter",)),
               TenantGroup(name="research", queries=("flows",)))
    config = runner.system_config(mode="predictive", seed=5, tenants=tenants,
                                  cycles_per_second=CAPACITY, num_shards=2)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2

    def tenant_cycles(session):
        return session.metrics["tenants"]["query_cycles"]

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    blob = capture(session)
    at_checkpoint = tenant_cycles(session)
    assert set(at_checkpoint) == {"ops", "research"}
    for batch in bins[k:]:
        session.ingest(batch)
    uninterrupted = tenant_cycles(session)
    expected = session.close()

    restored = restore_session(blob, backend=backend)
    with restored:
        assert restored.backend == backend
        assert restored.bins_ingested == k
        assert set(restored.metrics) >= {"profile", "feature_sharing"}
        assert tenant_cycles(restored) == at_checkpoint
        for batch in bins[k:]:
            restored.ingest(batch)
        assert tenant_cycles(restored) == uninterrupted
        assert len(restored.partial_result().bins) == len(bins)
        assert_results_identical(expected, restored.close(),
                                 label=f"restored/{backend}")
    assert tenant_cycles(restored) == uninterrupted

    # A checkpoint written before the totals rode along still restores.
    legacy = pickle.loads(pickle.loads(blob)["state_blob"])
    del legacy["tenant_cycles"]
    old = ShardedSession.from_state(legacy)
    assert tenant_cycles(old) == {}
    old.close()


def test_restore_twice_is_independent(small_trace):
    """One loaded checkpoint thaws two fully independent sessions."""
    config = _config("predictive")
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    checkpoint = load_checkpoint(capture(session))

    first, second = checkpoint.restore(), checkpoint.restore()
    assert first is not second
    for batch in bins[k:]:
        first.ingest(batch)
    result_first = first.close()
    assert second.bins_ingested == k  # untouched by first's progress
    for batch in bins[k:]:
        second.ingest(batch)
    assert_results_identical(result_first, second.close(),
                             label="independent-restores")


def test_save_load_describe(tmp_path, small_trace):
    config = _config("reactive")
    bins = small_trace.batch_list(0.1)
    session = _open_session(config, name="disk-ckpt")
    for batch in bins[:7]:
        session.ingest(batch)
    path = save_checkpoint(session, tmp_path / "deep" / "checkpoint.pkl")
    assert path.exists()
    meta = describe_checkpoint(path)
    assert meta["format"] == CHECKPOINT_FORMAT
    assert meta["kind"] == "monitoring"
    assert meta["mode"] == "reactive"
    assert meta["bins_ingested"] == 7
    assert meta["query_names"] == ["counter", "flows"]
    restored = restore_session(path)
    for batch in bins[7:]:
        restored.ingest(batch)
    assert_results_identical(_run_uninterrupted(config, bins),
                             restored.close(), label="from-disk")


def _counters(bank):
    """A bank's rows as the counter objects older builds held in a list."""
    if not isinstance(bank, BitmapBank):
        return bank.counters
    counters = []
    for words in bank._words:
        counter = BoolMatrixBitmap(bank.num_components,
                                   bank.bits_per_component)
        counter._bits = unpack_words(words, bank.bits_per_component)
        counters.append(counter)
    return counters


def _earlier(name):
    """An instance of the class an earlier build pickled as ``name``."""
    cls = getattr(features, name)
    return cls.__new__(cls)


def _protocol_state(extractor, **fields):
    """``extractor`` as builds whose extractors shared through a protocol
    pickled one: private counters, a registry and a group to share through,
    the group round it had merged, and the batch (with its counters) of an
    ``extract(update_state=False)`` still to be committed."""
    state = {name: value for name, value in vars(extractor).items()
             if name not in ("_bank", "_sharing")}
    state.update(_interval_counters=extractor._bank, _pending_batch=None,
                 _pending_counters=None, _registry=extractor._sharing,
                 _share_key="all", _group=None, _synced=0,
                 _participated=False)
    state.update(fields)
    return copyreg.__newobj__, (FeatureExtractor,), state


class _BoolMatrixPickler(pickle.Pickler):
    """Pickles a session graph in the layout builds before bit-packing wrote.

    Then every group of per-aggregate counters was a plain list (a bank
    now), a bitmap was a ``bool`` matrix ``_bits`` (the oracle class, filed
    under the production class's name), and a batch memoised one
    ``(counter, estimate)`` pair per aggregate rather than one bank.  A
    batch was also pickled slot by slot, holding the batch it was selected
    from (``_parent``, so a bin dragged its whole trace along) and, as the
    result of an all-matching filter, itself.  An extractor (here: one that
    has left its group) held the batch it last read, ``pending_batch``.
    """

    pending_batch = None

    def reducer_override(self, obj):
        if isinstance(obj, FeatureSharing):
            return _earlier, ("FeatureStateRegistry",), {"_groups": {}}
        if isinstance(obj, FeatureExtractor):
            batch = self.pending_batch
            return _protocol_state(
                obj, _pending_batch=batch,
                _pending_counters=batch and obj._batch_counters(batch))
        if isinstance(obj, BoolMatrixBitmap):
            # (``__newobj__`` insists on the object's own class.)
            return (copyreg._reconstructor,
                    (MultiResolutionBitmap, object, None), obj.__dict__)
        if isinstance(obj, CounterBank):
            return list, (_counters(obj),)
        if isinstance(obj, Batch):
            slots = {name: getattr(obj, name) for name in Batch.__slots__
                     if name != "__weakref__"}
            slots["_parent"] = obj._selected_from()
            if obj._filter_cache:
                slots["_filter_cache"] = {
                    key: obj if sub is None else sub
                    for key, sub in obj._filter_cache.items()}
            if obj._agg_cache:
                slots["_agg_cache"] = memo = {}
                for key, value in obj._agg_cache.items():
                    if key == features.INTERVAL_MEMO:  # not memoised then
                        continue
                    if key[0] != "counters":
                        memo[key] = value
                        continue
                    for (_, columns), counter, estimate in zip(
                            TRAFFIC_AGGREGATES, _counters(value),
                            value.estimates().tolist()):
                        memo[("counter", key[1], columns)] = (counter,
                                                              estimate)
            return copyreg.__newobj__, (Batch,), (None, slots)
        return NotImplemented


@pytest.mark.parametrize("feature_method", ("bitmap", "exact"))
@pytest.mark.parametrize("num_shards", (1, 4))
def test_restores_checkpoint_written_before_bit_packing(
        small_trace, feature_method, num_shards):
    """A version-1 checkpoint from a build whose bitmaps were bool matrices
    (and whose extractors held lists of counters) restores and continues
    bit-identically with a session that was never checkpointed."""
    config = _config("predictive", num_shards=num_shards,
                     feature_method=feature_method)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    expected = _run_uninterrupted(config, bins)

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    buffer = io.BytesIO()
    pickler = _BoolMatrixPickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.pending_batch = bins[k - 1]
    pickler.dump(session.state_dict())
    checkpoint = load_checkpoint(capture(session))
    checkpoint.state_blob = buffer.getvalue()
    assert b"Bank" not in checkpoint.state_blob
    assert b"_words" not in checkpoint.state_blob
    assert b"_parent_index" in checkpoint.state_blob

    restored = checkpoint.restore()
    assert restored.bins_ingested == k
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label=f"{feature_method}/shards={num_shards}")


def test_pending_commit_survives_the_old_layout(small_batch):
    """An extractor frozen between ``extract(update_state=False)`` and its
    ``commit`` carried the batch's counters as a list too."""
    extractor = FeatureExtractor(measurement_interval=10.0)
    extractor.extract(small_batch, update_state=False)
    buffer = io.BytesIO()
    pickler = _BoolMatrixPickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.pending_batch = small_batch
    pickler.dump((extractor, small_batch))
    assert b"_pending_counters" in buffer.getvalue()
    restored, batch = pickle.loads(buffer.getvalue())
    assert isinstance(restored._bank, BitmapBank)
    assert set(vars(restored)) == set(vars(extractor))
    restored.commit(batch)
    extractor.commit(small_batch)
    assert np.array_equal(restored.extract(small_batch).values,
                          extractor.extract(small_batch).values)


class _SharingProtocolPickler(pickle.Pickler):
    """Pickles a session graph in the layout of builds whose extractors
    shared interval state through ``IntervalState`` groups.

    An extractor had either left its group (it owns ``_interval_counters``),
    or was attached to it: in step (its state is the group's ``counters``),
    one merge round behind (its last bin was fully shed while the group
    merged: its state is the group's ``snapshot``), or not started yet.
    The extractors of the session are filed as each of these in turn, the
    groups' other fields filled with what must *not* be read.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.filed = []
        self.started = itertools.cycle(("detached", "in step", "behind"))

    def reducer_override(self, obj):
        if isinstance(obj, FeatureSharing):
            return _earlier, ("FeatureStateRegistry",), {"_groups": {}}
        if not isinstance(obj, FeatureExtractor):
            return NotImplemented
        decoy = obj._bank.union(obj._batch_counters(self.decoy_batch))
        group = {"counters": decoy, "snapshot": decoy, "write_round": 7,
                 "heal_round": 2, "interval_start": obj._interval_start,
                 "round_batch": self.decoy_batch, "cache": None}
        stale = {"_interval_counters": decoy, "_interval_start": -1.0}
        if obj._interval_start is None:
            kind, fields = "not started", dict(stale, _synced=0)
        else:
            kind = next(self.started)
            if kind == "detached":
                group, fields = None, {}
            elif kind == "in step":
                group["counters"] = obj._bank
                fields = dict(stale, _synced=7, _participated=True)
            else:
                group["snapshot"] = obj._bank
                fields = dict(stale, _synced=6, _participated=True)
        self.filed.append(kind)
        if group is not None:
            fields["_group"] = _Reduced(_earlier, ("IntervalState",), group)
        return _protocol_state(obj, **fields)


class _Reduced:
    """Pickles as the given reduce value."""

    def __init__(self, *value):
        self.value = value

    def __reduce__(self):
        return self.value


@pytest.mark.parametrize("feature_method", ("bitmap", "exact"))
@pytest.mark.parametrize("num_shards", (1, 4))
def test_restores_checkpoint_of_the_sharing_protocol(
        small_trace, feature_method, num_shards):
    """A checkpoint from a build with ``IntervalState`` groups, taken with
    attached, detached, one-round-behind and not yet started members,
    restores and continues bit-identically."""
    config = _config("predictive", num_shards=num_shards,
                     feature_method=feature_method).replace(
        queries="counter,flows,application",
        cycles_per_second=6e5)  # sheds from the second second on
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2 + 3  # mid-interval

    def start(session):
        late = bins[k + 2].start_ts
        if num_shards > 1:
            session.add_query(lambda: make_query("top-k"), start_time=late)
        else:
            session.add_query(make_query("top-k"), start_time=late)
        for batch in bins[:k]:
            session.ingest(batch)
        return session

    session = start(_open_session(config))
    for batch in bins[k:]:
        session.ingest(batch)
    expected = session.close()
    assert expected.mean_sampling_rate() < 0.9  # there were overloaded bins

    session = start(_open_session(config))
    buffer = io.BytesIO()
    pickler = _SharingProtocolPickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.decoy_batch = bins[k - 1]
    pickler.dump(session.state_dict())
    assert {"detached", "in step", "behind",
            "not started"} <= set(pickler.filed)
    checkpoint = load_checkpoint(capture(session))
    checkpoint.state_blob = buffer.getvalue()
    for name in (b"IntervalState", b"FeatureStateRegistry", b"_synced"):
        assert name in checkpoint.state_blob

    restored = checkpoint.restore()
    assert restored.bins_ingested == k
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label=f"{feature_method}/shards={num_shards}")


class _SetCounterPickler(pickle.Pickler):
    """Pickles exact counters the way builds before the sorted-array state
    did: ``_items`` a ``set`` of Python ints, one per counter (a snapshot
    was a full copy, so nothing was shared between them)."""

    def reducer_override(self, obj):
        if isinstance(obj, ExactDistinctCounter):
            return (copyreg.__newobj__, (ExactDistinctCounter,),
                    {"_items": set(obj._items.tolist())})
        return NotImplemented


@pytest.mark.parametrize("num_shards", (1, 4))
def test_restores_checkpoint_with_set_counters(small_trace, num_shards):
    """A checkpoint whose exact counters are sets restores and continues
    bit-identically; the same session checkpointed today is smaller."""
    config = _config("predictive", num_shards=num_shards,
                     feature_method="exact")
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2
    expected = _run_uninterrupted(config, bins)

    session = _open_session(config)
    for batch in bins[:k]:
        session.ingest(batch)
    buffer = io.BytesIO()
    _SetCounterPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(
        session.state_dict())
    checkpoint = load_checkpoint(capture(session))
    assert len(checkpoint.state_blob) < len(buffer.getvalue())
    checkpoint.state_blob = buffer.getvalue()

    restored = checkpoint.restore()
    assert restored.bins_ingested == k
    for batch in bins[k:]:
        restored.ingest(batch)
    assert_results_identical(expected, restored.close(),
                             label=f"set-counters/shards={num_shards}")


def test_checkpoint_rejects_closed_and_foreign():
    config = _config("original")
    session = _open_session(config)
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        capture(session)
    with pytest.raises(TypeError, match="cannot checkpoint"):
        capture(object())


def test_load_rejects_non_checkpoints(tmp_path):
    bogus = tmp_path / "bogus.pkl"
    bogus.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(ValueError, match="not a repro checkpoint"):
        load_checkpoint(bogus)
    versioned = tmp_path / "future.pkl"
    versioned.write_bytes(pickle.dumps(
        {"meta": {"format": CHECKPOINT_FORMAT, "version": 999},
         "state_blob": b""}))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(versioned)
