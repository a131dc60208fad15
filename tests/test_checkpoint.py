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
import pickle

import numpy as np
import pytest
from oracles.bitmap import MultiResolutionBitmap as BoolMatrixBitmap
from oracles.bitmap import unpack_words

from repro.core.distinct import (BitmapBank, CounterBank,
                                 ExactDistinctCounter, MultiResolutionBitmap)
from repro.core.features import TRAFFIC_AGGREGATES, FeatureExtractor
from repro.core.tenancy import TenantGroup
from repro.experiments import runner
from repro.monitor.packet import Batch
from repro.monitor.sharding import ShardedSession, ShardedSystem
from repro.monitor.workers import fork_start_available
from repro.queries import make_query
from repro.serve.checkpoint import (CHECKPOINT_FORMAT, capture,
                                    describe_checkpoint, load_checkpoint,
                                    restore_session, save_checkpoint)
from repro.testing import assert_results_identical

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


class _BoolMatrixPickler(pickle.Pickler):
    """Pickles a session graph in the layout builds before bit-packing wrote.

    Then every group of per-aggregate counters was a plain list (a bank
    now), a bitmap was a ``bool`` matrix ``_bits`` (the oracle class, filed
    under the production class's name), and a batch memoised one
    ``(counter, estimate)`` pair per aggregate rather than one bank.  A
    batch was also pickled slot by slot, holding the batch it was selected
    from (``_parent``, so a bin dragged its whole trace along) and, as the
    result of an all-matching filter, itself.
    """

    def reducer_override(self, obj):
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
    _BoolMatrixPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(
        session.state_dict())
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
    _BoolMatrixPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(
        (extractor, small_batch))
    restored, batch = pickle.loads(buffer.getvalue())
    assert restored._pending_batch() is batch
    assert isinstance(restored._pending_counters, BitmapBank)
    restored.commit(batch)
    extractor.commit(small_batch)
    assert np.array_equal(restored.extract(small_batch).values,
                          extractor.extract(small_batch).values)


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
