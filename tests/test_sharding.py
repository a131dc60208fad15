"""Sharded-pipeline invariants.

Six contracts the sharded execution layer must honour:

* **Degenerate identity** — ``ShardedSystem(num_shards=1)`` is bit-identical
  to the classic single-system run in *all four* operating modes (the
  golden four-mode scenario), because partitioning returns the original
  batches, shard 0 keeps the full budget and seed, and every merge of one
  shard is the identity.
* **Flow affinity** — after :meth:`Batch.partition` no 5-tuple flow spans
  two shards, and the shards are an exact, order-preserving cover of the
  batch.
* **Shard-merge exactness** — a sharded node that sheds nothing reports
  what a serial node reports: every log of all ten query kinds strictly
  ``==``, on both executors, lockstep and pipelined; shards that flush
  different intervals are refused at the bin, typed, logged and counted.
* **Merged accuracy** — N-shard merged counter/flows estimates stay within
  sampling tolerance of the unsharded run under a predictive overload.
* **Pool transparency** — running shards on the worker pool is
  bit-identical to running them in-process.
* **One session contract** — a :class:`ShardedSession` validates, counts
  and refuses the same way whichever shard executor it drives.
"""

import json
import logging

import numpy as np
import pytest

from repro import replay
from repro.experiments import runner, scenarios
from repro.monitor.packet import HEADER_FIELDS
from repro.monitor.pipeline import BinRecord
from repro.monitor.sharding import (ShardDivergenceError, ShardedSystem,
                                    build_system, shard_seed)
from repro.monitor.workers import fork_start_available
from repro.queries import QUERY_CLASSES, make_query
from repro.traffic.trace_io import save_trace_store
from tests.conftest import make_batch

QUERY_SET = ("counter", "flows", "top-k", "application")


def _factory(names=QUERY_SET):
    return lambda: [make_query(name) for name in names]


@pytest.fixture(scope="module")
def golden_scenario():
    """Shared trace plus calibrated capacity for the golden query set."""
    trace = scenarios.build_workload("cesca", seed=2024, scale=0.25)
    capacity, reference = runner.calibrate_capacity(QUERY_SET, trace)
    return trace, capacity, reference


def _series_fingerprint(result):
    return {
        "query_cycles": result.series("query_cycles"),
        "mean_rate": result.series("mean_rate"),
        "dropped_packets": result.series("dropped_packets"),
        "predicted_cycles": result.series("predicted_cycles"),
    }


class TestSingleShardIdentity:
    @pytest.mark.parametrize("mode", ["predictive", "reactive", "original",
                                      "reference"])
    def test_one_shard_matches_unsharded_bit_for_bit(self, golden_scenario,
                                                     mode):
        trace, capacity, _ = golden_scenario
        config = runner.system_config(
            mode=mode, cycles_per_second=capacity * 0.5, seed=99)
        unsharded = config.build(_factory()()).run(trace)
        sharded = ShardedSystem(_factory(), config=config,
                                num_shards=1).run(trace)
        plain = _series_fingerprint(unsharded)
        merged = _series_fingerprint(sharded)
        for name in plain:
            assert np.array_equal(plain[name], merged[name]), name
        assert unsharded.total_packets == sharded.total_packets
        assert unsharded.dropped_packets == sharded.dropped_packets
        for qname, log in unsharded.query_logs.items():
            assert sharded.query_logs[qname].intervals == log.intervals
            assert sharded.query_logs[qname].results == log.results

    def test_shard_zero_keeps_base_seed(self):
        assert shard_seed(1234, 0) == 1234
        assert len({shard_seed(1234, i) for i in range(16)}) == 16


class TestFlowAffinity:
    @pytest.mark.parametrize("num_shards", [2, 3, 4, 8])
    def test_no_flow_spans_two_shards(self, num_shards):
        batch = make_batch(n=600, seed=17, n_hosts=40)
        parts = batch.partition(num_shards)
        owner = {}
        for index, part in enumerate(parts):
            for key in set(zip(*(getattr(part, field).tolist() for field in HEADER_FIELDS))):
                assert owner.setdefault(key, index) == index, \
                    f"flow {key} appears on shards {owner[key]} and {index}"

    def test_partition_is_an_exact_cover(self):
        batch = make_batch(n=500, seed=23)
        parts = batch.partition(4)
        assert sum(len(part) for part in parts) == len(batch)
        assert sum(part.byte_count for part in parts) == batch.byte_count
        for part in parts:
            # Chronological order survives within each shard, and every
            # shard keeps the parent's bin timeline.
            assert np.all(np.diff(part.ts) >= 0)
            assert part.start_ts == batch.start_ts
            assert part.time_bin == batch.time_bin

    def test_single_shard_partition_is_identity(self):
        batch = make_batch(n=100, seed=3)
        assert batch.partition(1) == [batch]

    def test_empty_batch_partitions_into_empty_shards(self):
        batch = make_batch(n=50, seed=5).select(np.zeros(50, dtype=bool))
        parts = batch.partition(3)
        assert [len(part) for part in parts] == [0, 0, 0]
        assert all(part.start_ts == batch.start_ts for part in parts)

    def test_partition_rejects_bad_counts(self):
        batch = make_batch(n=10, seed=4)
        with pytest.raises(ValueError):
            batch.partition(0)


both_executors = pytest.mark.parametrize("backend", [
    "inprocess",
    pytest.param("workers", marks=pytest.mark.skipif(
        not fork_start_available(),
        reason="persistent shard workers prefer the fork start method"))])


class TestShardMergeExactness:
    """Reference mode sheds nothing, so every difference would be the
    merge's: there must be none, for any kind, boundary or value."""

    @pytest.fixture(scope="class")
    def serial_reference(self, payload_trace_small):
        config = runner.system_config(
            mode="reference", queries=",".join(sorted(QUERY_CLASSES)), seed=3)
        return config, config.build().run(payload_trace_small)

    @both_executors
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("drive", ["ingest", "ingest_trace"])
    def test_sharded_reference_equals_serial_reference(
            self, payload_trace_small, serial_reference, backend, num_shards,
            drive):
        """``ingest_trace`` on the worker pool is the pipelined path: bins
        run ahead of their records, partials arrive whenever."""
        config, serial = serial_reference
        sharded = ShardedSystem(config=config, num_shards=num_shards,
                                backend=backend)
        with sharded.open_session(name=payload_trace_small.name) as session:
            if drive == "ingest":
                for batch in payload_trace_small.batches(0.1):
                    session.ingest(batch)
            else:
                session.ingest_trace(payload_trace_small)
            snapshot = session.partial_result()
            result = session.close()
        assert set(result.query_logs) == set(QUERY_CLASSES)
        for name, log in serial.query_logs.items():
            merged_log = result.query_logs[name]
            assert merged_log.intervals == log.intervals, name
            assert merged_log.results == log.results, name
        # partial_result() is exact for free: the same logs, less what
        # close() flushed.
        for name, log in snapshot.query_logs.items():
            closed = result.query_logs[name]
            assert log.results == closed.results[:len(log)]
            assert 0 < len(log) == len(closed) - 1
        merged = session.metrics["sharding"]
        assert merged["intervals_merged"] == sum(
            len(log) for log in result.query_logs.values())
        assert (merged["partial_bytes"] > 0) == (backend == "workers")
        assert merged["merge_seconds"] > 0.0 and merged["divergences"] == 0

    def test_results_hold_plain_values_only(self, serial_reference,
                                            payload_trace_small):
        """No partial (a table, an array) survives into a merged log."""
        config, _ = serial_reference
        result = ShardedSystem(config=config, num_shards=2).run(
            payload_trace_small)

        def plain(value):
            if isinstance(value, dict):
                return all(plain(k) and plain(v) for k, v in value.items())
            if isinstance(value, (list, tuple)):
                return all(plain(item) for item in value)
            return type(value) in (int, float, str)

        for log in result.query_logs.values():
            assert all(plain(entry) for entry in log.results), log.name

    def test_diverged_shards_fail_at_the_bin_typed_logged_and_counted(
            self, caplog):
        sharded = ShardedSystem(
            _factory(("counter", "flows")), num_shards=2,
            config=runner.system_config(cycles_per_second=5e7, seed=3))
        session = sharded.open_session(name="diverging")
        bins = [make_batch(n=60, seed=s, start_ts=0.1 * s) for s in range(30)]
        for batch in bins[:12]:
            session.ingest(batch)
        assert session.metrics["sharding"]["divergences"] == 0
        # Shard 1 loses track of where its "flows" interval began.
        session._executor.sessions[1].system.runtime("flows") \
            .interval_start += 0.3
        with caplog.at_level(logging.ERROR, logger="repro.monitor.sharding"):
            with pytest.raises(ShardDivergenceError) as failure:
                session.ingest(bins[25])  # both flush: [1.0, 2) and [1.3, 2.3)
        message = str(failure.value)
        assert "shard 1 of session 'diverging' flushed query 'flows' at " \
            "interval start 1.3 where shard 0 flushed query 'flows' at " \
            "interval start 1.0" in message
        assert [record.getMessage() for record in caplog.records] == [message]
        assert session.metrics["sharding"]["divergences"] == 1

    def test_a_shard_that_flushes_late_is_refused_at_that_bin(self):
        """...not at close(): here shard 1 simply has not flushed yet."""
        sharded = ShardedSystem(
            _factory(("counter", "flows")), num_shards=2,
            config=runner.system_config(cycles_per_second=5e7, seed=3))
        session = sharded.open_session(name="late")
        bins = [make_batch(n=60, seed=s, start_ts=0.1 * s) for s in range(30)]
        for batch in bins[:12]:
            session.ingest(batch)
        session._executor.sessions[1].system.runtime("flows") \
            .interval_start += 0.3
        with pytest.raises(ShardDivergenceError,
                           match="shard 1 .* flushed nothing more where "
                                 "shard 0 flushed query 'flows' at interval "
                                 "start 1.0"):
            for batch in bins[12:]:
                session.ingest(batch)
        assert session.bins_ingested == 21


class TestReplayCheck:
    """``python -m repro.replay STORE --num-shards N --check``."""

    LOSSY = "counter,top-k,autofocus,high-watermark,super-sources"

    @pytest.fixture()
    def store(self, tmp_path, small_trace):
        return save_trace_store(small_trace, tmp_path / "checked")

    @both_executors
    def test_passes_on_every_kind_and_exits_zero(self, store, capsys,
                                                 backend):
        code = replay.main([str(store.path), "--queries", self.LOSSY,
                            "--num-shards", "2", "--backend", backend,
                            "--check", "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0 and verdict["identical"] is True
        assert verdict["num_shards"] == 2 and verdict["backend"] == backend
        assert verdict["first_difference"] is None
        assert verdict["queries"].keys() == set(self.LOSSY.split(","))
        assert all(entry["identical"] and entry["intervals"] == 4
                   for entry in verdict["queries"].values())

    def test_names_the_first_query_and_interval_that_differ(
            self, store, capsys, monkeypatch):
        """A merge that forgets all shards but one: the gate must say
        where it first shows."""
        monkeypatch.setattr(QUERY_CLASSES["top-k"], "merge_partials",
                            classmethod(lambda cls, partials: partials[0]))
        code = replay.main([str(store.path), "--queries", self.LOSSY,
                            "--num-shards", "4", "--check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "shard exactness check (FAIL): 4 shards (inprocess)" in out
        assert "first difference: query 'top-k', interval 0 (start " in out
        assert out.count("identical") == 4 and out.count("DIFFERENT") == 1

    def test_needs_something_to_compare(self, store, capsys):
        assert replay.main([str(store.path), "--check"]) == 2
        assert "--num-shards >= 2" in capsys.readouterr().err


class TestMergedAccuracy:
    def test_merged_estimates_exact_without_shedding(self, golden_scenario):
        """With ample capacity the merged counter/flows logs are exact.

        Flow affinity makes per-flow state disjoint across shards, so when
        nothing is shed the additive merges reproduce the unsharded numbers
        up to floating-point associativity.
        """
        trace, capacity, _ = golden_scenario
        config = runner.system_config(queries=("counter", "flows"),
                                      mode="reference",
                                      cycles_per_second=capacity)
        unsharded = config.build().run(trace)
        sharded = build_system(config.replace(num_shards=4)).run(trace)
        for qname in ("counter", "flows"):
            plain, merged = (unsharded.query_logs[qname],
                             sharded.query_logs[qname])
            assert merged.intervals == plain.intervals
            for mine, theirs in zip(merged.results, plain.results):
                for key in theirs:
                    assert mine[key] == pytest.approx(theirs[key], rel=1e-9)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_merged_estimates_within_sampling_tolerance(self,
                                                        golden_scenario,
                                                        num_shards):
        """Under a predictive overload the merged estimates track the
        reference within a loose sampling tolerance (the per-shard pipelines
        shed independently, so shard noise adds on top of sampling noise)."""
        trace, capacity, reference = golden_scenario
        sharded = build_system(runner.system_config(
            queries=QUERY_SET, num_shards=num_shards,
            cycles_per_second=capacity * 0.5)).run(trace)
        accuracy = runner.accuracy_by_query(sharded, reference)
        assert accuracy["counter"] >= 0.85
        assert accuracy["flows"] >= 0.78
        assert sharded.drop_fraction == 0.0

    def test_shard_slices_add_up_to_the_budget(self, golden_scenario):
        """The shards' fixed 1/N slices are the node's whole cycle budget,
        bin by bin."""
        trace, capacity, _ = golden_scenario
        result = build_system(runner.system_config(
            queries=QUERY_SET, num_shards=4,
            cycles_per_second=capacity * 0.5)).run(trace)
        available = result.series("available_cycles")
        assert np.allclose(available, capacity * 0.5 * runner.TIME_BIN)


class TestPoolTransparency:
    def test_pooled_shards_match_in_process_bit_for_bit(self,
                                                        golden_scenario):
        trace, capacity, _ = golden_scenario
        config = runner.system_config(cycles_per_second=capacity * 0.5,
                                      seed=7)
        in_process = ShardedSystem(_factory(), config=config,
                                   num_shards=4).run(trace)
        pooled = ShardedSystem(_factory(), config=config, num_shards=4,
                               n_workers=4, respect_cores=False).run(trace)
        serial = _series_fingerprint(in_process)
        forked = _series_fingerprint(pooled)
        for name in serial:
            assert np.array_equal(serial[name], forked[name]), name
        for qname, log in in_process.query_logs.items():
            assert pooled.query_logs[qname].results == log.results


@pytest.mark.parametrize("backend", [
    "inprocess",
    pytest.param("workers", marks=pytest.mark.skipif(
        not fork_start_available(),
        reason="persistent shard workers prefer the fork start method"))])
def test_session_contract_is_the_same_on_every_executor(backend):
    """What the in-process and worker branches used to answer separately:
    the same literal expectations hold on both executors, step by step."""
    sharded = ShardedSystem(
        _factory(("counter", "flows")), num_shards=2, backend=backend,
        config=runner.system_config(cycles_per_second=5e7, seed=3))
    bins = (make_batch(n=60, seed=s, start_ts=0.1 * s) for s in range(30))

    def state():
        return session.bins_ingested, session.query_names

    with sharded.open_session(name="contract") as session:
        assert session.backend == backend
        assert state() == (0, ["counter", "flows"])
        with pytest.raises(ValueError, match="already registered"):
            session.add_query(make_query("counter"))
        with pytest.raises(KeyError, match="no-such-query"):
            session.remove_query("no-such-query")
        assert state() == (0, ["counter", "flows"])

        # Add then remove before the next bin: the query never runs.
        session.add_query(make_query("top-k"))
        assert state() == (0, ["counter", "flows", "top-k"])
        assert set(session.partial_result().query_logs) == \
            {"counter", "flows"}  # as a serial session: not before it runs
        with pytest.raises(ValueError, match="already registered"):
            session.add_query(make_query("top-k"))
        session.remove_query("top-k")
        with pytest.raises(KeyError):
            session.remove_query("top-k")
        for _ in range(12):
            session.ingest(next(bins))
        assert state() == (12, ["counter", "flows"])

        # Remove then add before the next bin: a second lifetime, one name.
        session.remove_query("flows")
        assert state() == (12, ["counter"])
        session.add_query(make_query("flows"))
        assert state() == (12, ["counter", "flows"])
        for _ in range(12):
            session.ingest(next(bins))
        assert state() == (24, ["counter", "flows"])
        assert len(session.partial_result().bins) == 24
        result = session.close()

    assert set(result.query_logs) == {"counter", "flows"}
    assert len(result.bins) == 24 and session.close() is result
    assert set(session.metrics) >= {"profile", "feature_sharing"}
    for call in (lambda: session.ingest(next(bins)),
                 lambda: session.add_query(make_query("top-k")),
                 lambda: session.remove_query("counter"),
                 lambda: session.set_capacity(1e6),
                 session.partial_result, session.state_dict):
        with pytest.raises(RuntimeError, match="closed session"):
            call()
    assert state() == (24, ["counter", "flows"])


class TestResultMerging:
    # Per-query merge *semantics* (k-recovery, verdict union, watermark
    # summation, fan-out re-topping) are covered by the merge-invariant
    # property suite in tests/test_merge_properties.py; here we keep the
    # session-level merging contracts.
    def test_single_result_merge_is_identity(self):
        result = {"packets": 5.0, "bytes": 100.0}
        merged = make_query("counter").merge_interval_results([result])
        assert merged == result and merged is not result

    def test_departed_query_logs_survive_merge(self):
        """close()/partial_result() must merge logs of departed queries."""
        config = runner.system_config(cycles_per_second=5e7, seed=3)
        sharded = ShardedSystem(_factory(("counter", "flows")), config=config,
                                num_shards=2)
        session = sharded.open_session(name="departures")
        for batch in (make_batch(n=80, seed=s, start_ts=0.1 * s)
                      for s in range(12)):
            session.ingest(batch)
        session.remove_query("flows")
        session.add_query(make_query("top-k"))
        for batch in (make_batch(n=80, seed=s, start_ts=0.1 * s)
                      for s in range(12, 24)):
            session.ingest(batch)
        partial = session.partial_result()
        assert "flows" in partial.query_logs
        result = session.close()
        assert set(result.query_logs) == {"counter", "flows", "top-k"}
        assert len(result.query_logs["flows"]) > 0

    def test_closed_session_rejects_reconfiguration(self):
        sharded = ShardedSystem(_factory(("counter",)), num_shards=2,
                                config=runner.system_config())
        session = sharded.open_session()
        session.ingest(make_batch(n=30, seed=1))
        session.close()
        before = sharded.total_cycles_per_second
        with pytest.raises(RuntimeError):
            session.set_capacity(1e6)
        assert sharded.total_cycles_per_second == before  # nothing mutated
        with pytest.raises(RuntimeError):
            session.remove_query("counter")
        with pytest.raises(RuntimeError):
            session.add_query(make_query("flows"))

    def test_bin_record_merge_sums_and_worst_cases(self):
        def record(packets, cycles, delay, occupation, rate):
            return BinRecord(
                index=3, start_ts=1.5, incoming_packets=packets,
                incoming_bytes=packets * 100, dropped_packets=0,
                unsampled_packets=0.0, predicted_cycles=cycles,
                expected_cycles=cycles, query_cycles=cycles, prediction_overhead=1.0,
                shedding_overhead=2.0, system_overhead=3.0,
                available_cycles=100.0, delay=delay,
                buffer_occupation=occupation, rates={"q": rate},
                query_cycles_by_query={"q": cycles})

        merged = BinRecord.merge([record(10, 50.0, 5.0, 0.2, 1.0),
                                  record(20, 70.0, 9.0, 0.6, 0.5)])
        assert merged.incoming_packets == 30
        assert merged.query_cycles == 120.0
        assert merged.delay == 9.0
        assert merged.buffer_occupation == 0.6
        assert merged.rates == {"q": 0.75}
        assert merged.available_cycles == 200.0
