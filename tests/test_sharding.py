"""Sharded-pipeline invariants.

Five contracts the sharded execution layer must honour:

* **Degenerate identity** — ``ShardedSystem(num_shards=1)`` is bit-identical
  to the classic single-system run in *all four* operating modes (the
  golden four-mode scenario), because partitioning returns the original
  batches, shard 0 keeps the full budget and seed, and every merge of one
  shard is the identity.
* **Flow affinity** — after :meth:`Batch.partition` no 5-tuple flow spans
  two shards, and the shards are an exact, order-preserving cover of the
  batch.
* **Merged accuracy** — N-shard merged counter/flows estimates are exact
  without shedding and within sampling tolerance of the unsharded run under
  a predictive overload.
* **Pool transparency** — running shards on the worker pool is
  bit-identical to running them in-process.
* **One session contract** — a :class:`ShardedSession` validates, counts
  and refuses the same way whichever shard executor it drives.
"""

import numpy as np
import pytest

from repro.experiments import runner, scenarios
from repro.monitor.pipeline import BinRecord
from repro.monitor.sharding import ShardedSystem, shard_seed
from repro.monitor.workers import fork_start_available
from repro.queries import make_query
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
            for key in np.unique(part.flow_keys()).tolist():
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


class TestMergedAccuracy:
    def test_merged_estimates_exact_without_shedding(self, golden_scenario):
        """With ample capacity the merged counter/flows logs are exact.

        Flow affinity makes per-flow state disjoint across shards, so when
        nothing is shed the additive merges reproduce the unsharded numbers
        up to floating-point associativity.
        """
        trace, capacity, _ = golden_scenario
        unsharded = runner.run_system(("counter", "flows"), trace, capacity,
                                      mode="reference")
        sharded = runner.run_system(("counter", "flows"), trace, capacity,
                                    mode="reference", num_shards=4)
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
        sharded = runner.run_system(QUERY_SET, trace, capacity * 0.5,
                                    num_shards=num_shards)
        accuracy = runner.accuracy_by_query(sharded, reference)
        assert accuracy["counter"] >= 0.85
        assert accuracy["flows"] >= 0.78
        assert sharded.drop_fraction == 0.0

    def test_rebalancing_never_loses_capacity(self, golden_scenario):
        """Per-bin lending conserves the total cycle budget exactly."""
        trace, capacity, _ = golden_scenario
        result = runner.run_system(QUERY_SET, trace, capacity * 0.5,
                                   num_shards=4)
        available = result.series("available_cycles")
        assert np.allclose(available, capacity * 0.5 * runner.TIME_BIN)


class TestPoolTransparency:
    def test_pooled_shards_match_in_process_bit_for_bit(self,
                                                        golden_scenario):
        trace, capacity, _ = golden_scenario
        config = runner.system_config(cycles_per_second=capacity * 0.5,
                                      shard_rebalance=False, seed=7)
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
            session.add_query(lambda: make_query("counter"))
        with pytest.raises(KeyError, match="no-such-query"):
            session.remove_query("no-such-query")
        assert state() == (0, ["counter", "flows"])

        # Add then remove before the next bin: the query never runs.
        session.add_query(lambda: make_query("top-k"))
        assert state() == (0, ["counter", "flows", "top-k"])
        with pytest.raises(ValueError, match="already registered"):
            session.add_query(lambda: make_query("top-k"))
        session.remove_query("top-k")
        with pytest.raises(KeyError):
            session.remove_query("top-k")
        for _ in range(12):
            session.ingest(next(bins))
        assert state() == (12, ["counter", "flows"])

        # Remove then add before the next bin: a second lifetime, one name.
        session.remove_query("flows")
        assert state() == (12, ["counter"])
        session.add_query(lambda: make_query("flows"))
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
                 lambda: session.add_query(lambda: make_query("top-k")),
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
        session.add_query(lambda: make_query("top-k"))
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
            session.add_query(lambda: make_query("flows"))

    def test_bin_record_merge_sums_and_worst_cases(self):
        def record(packets, cycles, delay, occupation, rate):
            return BinRecord(
                index=3, start_ts=1.5, incoming_packets=packets,
                incoming_bytes=packets * 100, dropped_packets=0,
                unsampled_packets=0.0, predicted_cycles=cycles,
                query_cycles=cycles, prediction_overhead=1.0,
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
