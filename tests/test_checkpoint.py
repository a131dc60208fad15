"""Checkpoint/restore: what a checkpoint carries beyond the bins.

That a restored session finishes as the uninterrupted one does, in every
mode and across executors, is the ``restore`` and ``restore-x`` rows of
``tests/test_conformance.py``.  Pinned here: pending reconfigurations fire
at the restored session's next bin, a mid-interval cut carries the node's
merged logs and nothing of the shards', departed queries, tenant totals
and merge counters survive, one checkpoint thaws independent sessions,
and the on-disk format describes itself and refuses what it cannot load.
"""

import io
import pickle

import pytest

from repro.core.tenancy import TenantGroup
from repro.experiments import runner
from repro.monitor.config import SystemConfig
from repro.monitor.sharding import ShardedSystem, build_system
from repro.queries import make_query
from repro.serve.checkpoint import (CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                    CheckpointCorruptError,
                                    CheckpointVersionError, capture,
                                    describe_checkpoint, load_checkpoint,
                                    restore_session, save_checkpoint)
from repro.testing import assert_results_identical
from tests.conftest import needs_fork

QUERIES = "counter,flows"
CAPACITY = 2.0e7


def _config(mode, num_shards=1, **overrides):
    return runner.system_config(mode=mode, seed=5, queries=QUERIES,
                                cycles_per_second=CAPACITY,
                                num_shards=num_shards, **overrides)


def _open_session(config, backend="auto", name="ckpt"):
    if config.num_shards > 1:
        sharded = ShardedSystem(config=config, respect_cores=False,
                                backend=backend)
        return sharded.open_session(time_bin=0.1, name=name)
    return config.build().open_session(time_bin=0.1, name=name)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_pending_ops_survive_checkpoint(small_trace, num_shards):
    """Queued add/capacity ops fire at the restored session's next bin."""
    config = _config("predictive", num_shards=num_shards)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2

    def reconfigure(session):
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
    config = _config("predictive", num_shards=2) \
        .replace(queries=PARTIAL_KINDS, cycles_per_second=6e5)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2 + 3
    expected = build_system(config).run(small_trace)
    assert expected.mean_sampling_rate() < 0.9  # shed, so rates are mixed

    with _open_session(config, backend=first) as session:
        for batch in bins[:k]:
            session.ingest(batch)
        state = pickle.loads(pickle.dumps(session.state_dict()))
        blob = capture(session)
    assert len(state["result"].bins) == k
    assert {len(log) for log in state["result"].query_logs.values()} == {2}
    for shard in state["shard_sessions"]:  # stepped: nothing accumulated
        kept = shard.partial_result()
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
    config = _config("predictive", num_shards=2) \
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


@pytest.mark.parametrize("backend", [
    "inprocess", pytest.param("workers", marks=needs_fork)])
def test_restored_node_counts_the_intervals_it_merged(small_trace, backend):
    """Regression: ``metrics["sharding"]["intervals_merged"]`` was counted
    beside the node's result and restarted at zero on a restore.  It is
    read from the result, which rides in the checkpoint: a restored node
    reports what one that never stopped reports, at the checkpoint and
    after ``close()``."""
    config = _config("predictive", num_shards=2)
    bins = small_trace.batch_list(0.1)
    k = len(bins) // 2

    def merged(session):
        return session.metrics["sharding"]["intervals_merged"]

    with _open_session(config, backend=backend) as session:
        for batch in bins[:k]:
            session.ingest(batch)
        at_checkpoint = merged(session)
        blob = capture(session)
        for batch in bins[k:]:
            session.ingest(batch)
        result = session.close()
        uninterrupted = merged(session)
    assert 0 < at_checkpoint < uninterrupted == sum(
        len(log) for log in result.query_logs.values())

    with restore_session(blob, backend=backend) as restored:
        assert merged(restored) == at_checkpoint
        for batch in bins[k:]:
            restored.ingest(batch)
        restored.close()
        assert merged(restored) == uninterrupted


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
    assert_results_identical(config.build().run(small_trace),
                             restored.close(), label="from-disk")


def test_checkpoint_rejects_closed_and_foreign():
    config = _config("original")
    session = _open_session(config)
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        capture(session)
    with pytest.raises(TypeError, match="cannot checkpoint"):
        capture(object())


def _old_wrapper(session, version, state_blob):
    """A checkpoint file in the layout of versions 1-5: one pickle of a
    dict wrapping ``meta`` and the state, itself a nested pickle."""
    meta = dict(load_checkpoint(capture(session)).meta, version=version)
    return pickle.dumps({"meta": meta, "state_blob": state_blob})


def _meta_end(path):
    """The file's bytes and the offset where its state pickle starts."""
    data = path.read_bytes()
    stream = io.BytesIO(data)
    pickle.load(stream)
    return data, stream.tell()


def test_load_rejects_non_checkpoints(tmp_path):
    bogus = tmp_path / "bogus.pkl"
    bogus.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(ValueError, match="not a repro checkpoint"):
        load_checkpoint(bogus)
    versioned = tmp_path / "future.pkl"
    versioned.write_bytes(
        pickle.dumps({"format": CHECKPOINT_FORMAT, "version": 999})
        + pickle.dumps({"kind": "monitoring"}))
    with pytest.raises(CheckpointVersionError, match="version 999 "):
        load_checkpoint(versioned)


def test_a_version_1_checkpoint_is_refused_not_migrated(tmp_path, caplog,
                                                        capsys):
    """Checkpoints of builds whose sessions held other state are refused,
    typed, logged and naming both versions, by every way in — the state
    blob is never unpickled."""
    assert CHECKPOINT_VERSION == 11
    session = _open_session(_config("original"))
    from repro.serve.__main__ import main
    for version in (1, 2, 3, 4):
        old = tmp_path / f"old-{version}.pkl"
        old.write_bytes(_old_wrapper(session, version, b"not even a pickle"))

        for load in (load_checkpoint, restore_session, describe_checkpoint):
            for source in (old, old.read_bytes()):
                caplog.clear()
                with caplog.at_level("ERROR",
                                     logger="repro.serve.checkpoint"):
                    with pytest.raises(CheckpointVersionError) as refused:
                        load(source)
                assert f"version {version} " in str(refused.value)
                assert "reads version 11 " in str(refused.value)
                assert [record.getMessage() for record in caplog.records] \
                    == [str(refused.value)]

        assert main(["--restore", str(old), "--feed", "generate"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1
        assert str(old) in error and f"version {version} " in error


def test_a_version_4_checkpoint_is_refused_by_its_version(tmp_path):
    """A version 4 config carried five fields this build does not know.
    Its file is refused as a version 4 checkpoint, typed, before any state
    is read — not with the unknown-field ``ValueError`` its config would
    get from ``SystemConfig.from_dict``."""
    session = _open_session(_config("original"))
    stale = dict(session.system.config.to_dict(), predictor_kwargs={},
                 feature_kwargs={}, buffer_seconds=0.2,
                 reactive_min_rate=0.0, shard_backend="auto")
    with pytest.raises(ValueError, match="unknown SystemConfig field"):
        SystemConfig.from_dict(stale)
    old = tmp_path / "v4.pkl"
    old.write_bytes(_old_wrapper(session, 4, pickle.dumps(
        {"kind": "monitoring", "config": stale})))
    for load in (load_checkpoint, restore_session):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert type(refused.value) is CheckpointVersionError
        assert "version 4 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


def test_a_version_5_checkpoint_is_refused_by_its_version(tmp_path):
    """Version 5 held the session state this build holds, as a pickle
    nested in the one-pickle wrapper: its file is refused by its version,
    not read as a damaged or a foreign one."""
    session = _open_session(_config("original"))
    old = tmp_path / "v5.pkl"
    old.write_bytes(_old_wrapper(session, 5, pickle.dumps(
        session.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)))
    for load in (load_checkpoint, restore_session, describe_checkpoint):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert "version 5 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


def test_a_version_6_checkpoint_is_refused_by_its_version(tmp_path):
    """Version 6 had this file layout, but its session's result held a
    list of bin records where this build holds a table of bins: its file
    is refused by its version, before the state is read."""
    path = save_checkpoint(_open_session(_config("original")),
                           tmp_path / "v10.pkl")
    data, state_start = _meta_end(path)
    old = tmp_path / "v6.pkl"
    old.write_bytes(pickle.dumps(dict(load_checkpoint(path).meta, version=6))
                    + data[state_start:])
    for load in (load_checkpoint, restore_session, describe_checkpoint):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert "version 6 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


def test_a_version_7_checkpoint_is_refused_by_its_version(tmp_path):
    """Version 7 had this file layout, but its session's clock kept a
    per-bin usage record, its capture buffer drop counters and its system
    the reactive baseline's last rate and cycles: its file is refused by
    its version, before the state is read."""
    path = save_checkpoint(_open_session(_config("reactive")),
                           tmp_path / "v10.pkl")
    data, state_start = _meta_end(path)
    old = tmp_path / "v7.pkl"
    old.write_bytes(pickle.dumps(dict(load_checkpoint(path).meta, version=7))
                    + data[state_start:])
    for load in (load_checkpoint, restore_session, describe_checkpoint):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert "version 7 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


def test_a_version_8_checkpoint_is_refused_by_its_version(tmp_path):
    """Version 8 had this file layout, but its session's result held bins
    without their rate decision (no plan, prediction, decided rate or
    bound columns): its file is refused by its version, before the state
    is read."""
    path = save_checkpoint(_open_session(_config("predictive")),
                           tmp_path / "v10.pkl")
    data, state_start = _meta_end(path)
    old = tmp_path / "v8.pkl"
    old.write_bytes(pickle.dumps(dict(load_checkpoint(path).meta, version=8))
                    + data[state_start:])
    for load in (load_checkpoint, restore_session, describe_checkpoint):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert "version 8 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


def test_a_version_9_checkpoint_is_refused_by_its_version(tmp_path):
    """Version 9 had this file layout, but its session's samplers each held
    a ``numpy`` generator, seeded from one system generator in registration
    order, where this build holds a stream key and a counter: its file is
    refused by its version, before the state is read."""
    path = save_checkpoint(_open_session(_config("predictive")),
                           tmp_path / "v10.pkl")
    data, state_start = _meta_end(path)
    old = tmp_path / "v9.pkl"
    old.write_bytes(pickle.dumps(dict(load_checkpoint(path).meta, version=9))
                    + data[state_start:])
    for load in (load_checkpoint, restore_session, describe_checkpoint):
        with pytest.raises(CheckpointVersionError) as refused:
            load(old)
        assert "version 9 " in str(refused.value)
        assert "reads version 11 " in str(refused.value)


@pytest.mark.parametrize("part", ("meta", "state"))
def test_a_checkpoint_cut_short_is_refused_as_damaged(tmp_path, caplog,
                                                      capsys, part):
    """A file truncated in its ``meta`` pickle, or in its state pickle, is
    refused with a typed ``ValueError`` that names the file and is logged,
    and ``python -m repro.serve --restore`` says so on one line and exits
    2 — not a raw ``pickle.UnpicklingError``."""
    from repro.serve.__main__ import main
    path = save_checkpoint(_open_session(_config("original")),
                           tmp_path / "whole.pkl")
    data, state_start = _meta_end(path)
    cut = tmp_path / f"cut-in-{part}.pkl"
    cut.write_bytes(data[:state_start // 2] if part == "meta"
                    else data[:(state_start + len(data)) // 2])
    with caplog.at_level("ERROR", logger="repro.serve.checkpoint"):
        with pytest.raises(CheckpointCorruptError) as refused:
            restore_session(cut)
    message = str(refused.value)
    assert isinstance(refused.value, ValueError)
    assert str(cut) in message
    assert ("meta summary" if part == "meta" else "session state") in message
    assert [record.getMessage() for record in caplog.records] == [message]
    assert main(["--restore", str(cut), "--feed", "generate"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_describe_reads_the_meta_of_a_file_whose_state_is_corrupt(tmp_path):
    path = save_checkpoint(_open_session(_config("reactive")),
                           tmp_path / "whole.pkl")
    data, state_start = _meta_end(path)
    corrupt = tmp_path / "corrupt.pkl"
    corrupt.write_bytes(data[:state_start] + b"not even a pickle")
    assert describe_checkpoint(corrupt) == describe_checkpoint(path)
    assert describe_checkpoint(corrupt)["mode"] == "reactive"
    with pytest.raises(CheckpointCorruptError, match="session state"):
        restore_session(corrupt)
