"""Tests for the SystemConfig / MonitoringSession API redesign.

Three families:

* **Config** — eager validation with helpful messages, ``replace``, and
  ``to_dict``/``from_dict`` round-tripping (the serialisation contract that
  lets grids, pool workers and checkpoints speak one type).
* **Session** — ``run()`` must be bit-identical to driving
  ``open_session``/``ingest``/``close`` by hand; live ``add_query`` must
  reproduce the pre-registered arrival scenario of Figure 6.9 bit for bit;
  departures must flush logs and leave no stale enforcer/controller state;
  ``set_capacity`` must take effect at the next bin boundary.
* **Removed surfaces** — loose system keyword arguments to the experiment
  helpers, the ``"fork"`` shard backend and the shard rebalancer's fields
  are refused, loudly and typed.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import MonitoringSystem, SystemConfig
from repro.experiments import runner
from repro.monitor.sharding import ShardedSystem
from repro.queries import make_query
from repro.testing import assert_results_identical as _assert_results_identical

QUERY_SET = ("counter", "flows", "top-k")


@pytest.fixture(scope="module")
def calibrated(small_trace):
    return runner.calibrate_capacity(QUERY_SET, small_trace)




# ----------------------------------------------------------------------
# SystemConfig
# ----------------------------------------------------------------------
class TestSystemConfig:
    def test_roundtrip_to_dict_from_dict(self):
        config = SystemConfig(mode="reactive", strategy="mmfs_cpu",
                              predictor="ewma",
                              predictor_kwargs={"alpha": 0.5},
                              cycles_per_second=2.5e8, buffer_seconds=0.4,
                              feature_method="exact", measurement_noise=0.05,
                              reactive_min_rate=0.1, seed=11)
        data = config.to_dict()
        # The dict must be plain JSON (what a checkpoint or a grid spec is).
        rebuilt = SystemConfig.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == config
        assert rebuilt.to_dict() == data

    def test_replace_revalidates_and_preserves(self):
        config = SystemConfig(strategy="mmfs_pkt")
        changed = config.replace(seed=9, cycles_per_second=1e8)
        assert changed.strategy == "mmfs_pkt"
        assert changed.seed == 9
        assert config.seed == 0, "replace must not mutate the original"
        with pytest.raises(ValueError, match="valid modes"):
            config.replace(mode="warp-speed")
        with pytest.raises(ValueError, match="unknown SystemConfig field"):
            config.replace(warp_factor=9)

    def test_mode_alias_canonicalised(self):
        assert SystemConfig(mode="no_lshed").mode == "original"

    @pytest.mark.parametrize("kwargs, message", [
        ({"strategy": "fair-ish"}, "valid strategies"),
        ({"predictor": "oracle"}, "valid predictors"),
        ({"mode": "turbo"}, "valid modes"),
        ({"feature_method": "sketchy"}, "valid methods"),
        ({"cycles_per_second": -1.0}, "cycles_per_second"),
        ({"reactive_min_rate": 1.5}, "reactive_min_rate"),
    ])
    def test_eager_validation_lists_options(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**kwargs)

    def test_monitoring_system_validates_eagerly(self):
        # A system is built from its SystemConfig and nothing else, so a
        # typo fails where the config is made, not deep inside the
        # controller on first use — and loose keyword arguments, or a query
        # list where the config goes, are plain TypeErrors.
        import inspect
        parameters = inspect.signature(MonitoringSystem.__init__).parameters
        assert [(name, parameter.default) for name, parameter
                in list(parameters.items())[1:]] == \
            [("config", None), ("queries", None)]
        with pytest.raises(TypeError):
            MonitoringSystem(mode="predictive")
        with pytest.raises(TypeError, match="built from a SystemConfig"):
            MonitoringSystem([make_query("counter")])
        assert not hasattr(MonitoringSystem, "from_config")
        assert MonitoringSystem().config == SystemConfig()

    def test_a_strategy_is_a_name(self):
        import typing
        from repro.core.fairness import STRATEGIES, eq_srates
        assert typing.get_type_hints(SystemConfig)["strategy"] is str
        listed = str(sorted(STRATEGIES)).replace("[", r"\[")
        with pytest.raises(ValueError, match=listed):
            SystemConfig(strategy=eq_srates)
        with pytest.raises(ValueError, match=listed):
            SystemConfig.from_dict({"strategy": "nope"})
        assert not hasattr(SystemConfig, "strategy_name")
        assert len(dataclasses.fields(SystemConfig)) == 18

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SystemConfig field"):
            SystemConfig.from_dict({"mode": "predictive", "warp_factor": 9})

    def test_unknown_field_error_suggests_close_match(self):
        # Hot-reload safety: a daemon's POST /config rejects typo'd keys
        # with a did-you-mean hint, so the operator sees the fix in the
        # HTTP error body instead of hunting through the field list.
        with pytest.raises(ValueError,
                           match=r"did you mean 'cycles_per_second'\?"):
            SystemConfig.from_dict({"cycles_per_secnod": 1e8})
        with pytest.raises(ValueError, match=r"did you mean 'num_shards'\?"):
            SystemConfig().replace(num_shard=4)
        # A key nothing like any field still names itself and the options.
        with pytest.raises(ValueError, match=r"'zzz'.*valid fields"):
            SystemConfig.from_dict({"zzz": 1})
        # An option that was removed is an unknown field like any other: a
        # stale topology overlay or hot-reload body is told so by name.
        for stale in (lambda: SystemConfig.from_dict({"feature_sharing": 0}),
                      lambda: SystemConfig().replace(feature_sharing=False)):
            with pytest.raises(
                    ValueError,
                    match="unknown SystemConfig field.*'feature_sharing'"):
                stale()

    def test_build_constructs_equivalent_system(self, small_trace, calibrated):
        capacity, _ = calibrated
        config = runner.system_config(strategy="mmfs_pkt",
                                      cycles_per_second=capacity * 0.5)
        built = config.build([make_query(n) for n in QUERY_SET])
        assert built.config == config
        direct = MonitoringSystem(config, [make_query(n) for n in QUERY_SET])
        _assert_results_identical(built.run(small_trace),
                                  direct.run(small_trace))


# ----------------------------------------------------------------------
# MonitoringSession
# ----------------------------------------------------------------------
class TestSessionEquivalence:
    def test_run_is_bit_identical_to_manual_session(self, small_trace,
                                                    calibrated):
        capacity, _ = calibrated
        config = runner.system_config(cycles_per_second=capacity * 0.5)
        ran = config.build([make_query(n) for n in QUERY_SET]).run(small_trace)

        system = config.build([make_query(n) for n in QUERY_SET])
        session = system.open_session(time_bin=runner.TIME_BIN,
                                      name=small_trace.name)
        records = [session.ingest(batch)
                   for batch in small_trace.batches(runner.TIME_BIN)]
        streamed = session.close()

        assert len(records) == len(ran.bins)
        _assert_results_identical(ran, streamed)
        # close() is idempotent and ingest-after-close is an error.
        assert session.close() is streamed
        with pytest.raises(RuntimeError):
            session.ingest(next(iter(small_trace.batches(runner.TIME_BIN))))

    def test_live_add_query_matches_preregistered_arrival(self, small_trace,
                                                          calibrated):
        """The Chapter 6 dynamic-arrival behaviour, both ways.

        Pre-registering a query with ``start_time`` (the old offline idiom)
        and submitting it live through ``session.add_query`` when the stream
        reaches the arrival time must produce bit-identical executions.
        """
        capacity, _ = calibrated
        arrival = small_trace.duration * 0.5
        config = runner.system_config(cycles_per_second=capacity * 0.6)

        offline = config.build([make_query("counter"), make_query("flows")])
        offline.add_query(make_query("top-k"), start_time=arrival)
        expected = offline.run(small_trace)

        live = config.build([make_query("counter"), make_query("flows")])
        session = live.open_session(time_bin=runner.TIME_BIN,
                                    name=small_trace.name)
        added = False
        for batch in small_trace.batches(runner.TIME_BIN):
            if not added and batch.start_ts + 1e-9 >= arrival:
                session.add_query(make_query("top-k"), start_time=arrival)
                added = True
            session.ingest(batch)
        streamed = session.close()

        assert added
        _assert_results_identical(expected, streamed)
        # The arriving query really was inactive before its arrival bin.
        early = [record for record in streamed.bins
                 if record.start_ts + 1e-9 < arrival]
        assert early and all("top-k" not in record.rates for record in early)

    def test_figure_6_9_runs_on_session_api(self, payload_trace_small):
        from repro.experiments import chapter6
        outcome = chapter6.figure_6_9_query_arrivals(trace=payload_trace_small)
        assert "top-k" in outcome["accuracy"]
        assert "p2p-detector" in outcome["accuracy"]
        rates = outcome["rates_over_time"]["top-k"]
        arrival = list(outcome["arrival_times"].values())[0]
        assert np.all(rates[:max(1, int(arrival / runner.TIME_BIN) - 1)] == 1.0)


class TestSessionLiveReconfiguration:
    def test_remove_query_flushes_log_and_clears_state(self, small_trace,
                                                       calibrated):
        capacity, _ = calibrated
        config = runner.system_config(cycles_per_second=capacity * 0.6)
        system = config.build([make_query("counter"), make_query("flows")])
        session = system.open_session(time_bin=runner.TIME_BIN)
        batches = small_trace.batch_list(runner.TIME_BIN)
        half = len(batches) // 2
        for batch in batches[:half]:
            session.ingest(batch)
        # Leave a trace in the per-query state the removal must clear.
        system.enforcer.record("flows", expected_cycles=1.0,
                               actual_cycles=100.0, bin_index=0)
        session.remove_query("flows")
        for batch in batches[half:]:
            session.ingest(batch)
        result = session.close()

        # Departed mid-stream: present in the result, absent from late bins.
        assert "flows" in result.query_logs
        assert len(result.query_logs["flows"]) > 0
        assert all("flows" not in record.rates
                   for record in result.bins[half:])
        assert "flows" not in system.query_names
        # No stale enforcer state survives the departure.
        assert system.enforcer.state("flows").total_violations == 0

    def test_remove_then_readd_same_name_starts_clean(self, small_trace,
                                                      calibrated):
        capacity, _ = calibrated
        config = runner.system_config(cycles_per_second=capacity * 0.6)
        system = config.build([make_query("counter"), make_query("flows")])
        session = system.open_session(time_bin=runner.TIME_BIN)
        batches = small_trace.batch_list(runner.TIME_BIN)
        third = len(batches) // 3
        for batch in batches[:third]:
            session.ingest(batch)
        session.remove_query("flows")
        session.add_query(make_query("flows"))
        for batch in batches[third:]:
            session.ingest(batch)
        result = session.close()
        # The re-added query ran (rates appear again after the boundary) and
        # the final result holds the newer query's log.
        assert any("flows" in record.rates for record in result.bins[third:])
        assert len(result.query_logs["flows"]) > 0

    def test_unknown_removal_and_duplicate_add_rejected(self, small_trace):
        system = runner.system_config().build([make_query("counter")])
        session = system.open_session()
        with pytest.raises(KeyError):
            session.remove_query("nope")
        with pytest.raises(ValueError, match="already registered"):
            session.add_query(make_query("counter"))
        # A double removal fails at the second call, not later inside
        # ingest() when the queued duplicate is applied.
        session.remove_query("counter")
        with pytest.raises(KeyError):
            session.remove_query("counter")

    def test_departed_log_survives_readd_and_second_departure(
            self, small_trace, calibrated):
        """A replaced query's flushed intervals must not be overwritten."""
        capacity, _ = calibrated
        config = runner.system_config(cycles_per_second=capacity)
        system = config.build([make_query("counter"), make_query("flows")])
        session = system.open_session(time_bin=runner.TIME_BIN)
        batches = small_trace.batch_list(runner.TIME_BIN)
        third = len(batches) // 3
        for batch in batches[:third]:
            session.ingest(batch)
        session.remove_query("flows")
        session.add_query(make_query("flows"))
        for batch in batches[third: 2 * third]:
            session.ingest(batch)
        first_lifetime = len(session.partial_result().query_logs["flows"])
        assert first_lifetime > 0
        session.remove_query("flows")   # departs a second time
        for batch in batches[2 * third:]:
            session.ingest(batch)
        result = session.close()
        log = result.query_logs["flows"]
        # Both lifetimes are present, in chronological order.
        assert len(log) > first_lifetime
        assert log.intervals == sorted(log.intervals)

    def test_set_capacity_takes_effect_next_bin(self, small_trace,
                                                calibrated):
        capacity, _ = calibrated
        config = runner.system_config(cycles_per_second=capacity * 2.0)
        system = config.build([make_query(n) for n in QUERY_SET])
        session = system.open_session(time_bin=runner.TIME_BIN)
        batches = small_trace.batch_list(runner.TIME_BIN)
        half = len(batches) // 2
        for batch in batches[:half]:
            session.ingest(batch)
        before = session.partial_result()
        assert before.mean_sampling_rate() > 0.98, "ample capacity: no shedding"
        session.set_capacity(capacity * 0.3)
        after_records = [session.ingest(batch) for batch in batches[half:]]
        session.close()
        # The budget visible to the pipeline changed exactly at the boundary.
        assert before.bins[-1].available_cycles == \
            pytest.approx(capacity * 2.0 * runner.TIME_BIN)
        assert after_records[0].available_cycles == \
            pytest.approx(capacity * 0.3 * runner.TIME_BIN)
        # And the system started shedding under the reduced capacity.
        late_rates = [record.mean_rate for record in after_records]
        assert min(late_rates) < 0.95

    def test_partial_result_is_a_stable_snapshot(self, small_trace,
                                                 calibrated):
        capacity, reference = calibrated
        config = runner.system_config(cycles_per_second=capacity * 0.5)
        system = config.build([make_query(n) for n in QUERY_SET])
        session = system.open_session(time_bin=runner.TIME_BIN)
        batches = small_trace.batch_list(runner.TIME_BIN)
        for batch in batches[: len(batches) // 2]:
            session.ingest(batch)
        snapshot = session.partial_result()
        bins_then = len(snapshot.bins)
        logs_then = {name: len(log)
                     for name, log in snapshot.query_logs.items()}
        # Accuracy-so-far is computable against a full reference execution.
        accuracy = runner.accuracy_by_query(snapshot, reference)
        assert set(accuracy) == set(QUERY_SET)
        for batch in batches[len(batches) // 2:]:
            session.ingest(batch)
        session.close()
        # Continuing the session must not mutate the earlier snapshot.
        assert len(snapshot.bins) == bins_then
        assert {name: len(log)
                for name, log in snapshot.query_logs.items()} == logs_then


# ----------------------------------------------------------------------
# Removed surfaces
# ----------------------------------------------------------------------
class TestRemovedSurfaces:
    def test_loose_kwargs_and_the_fork_backend_are_refused(self, small_trace,
                                                           calibrated):
        """System knobs travel in a ``SystemConfig`` and nowhere else, and
        a config that still says ``"fork"`` learns the three valid backends.
        """
        capacity, reference = calibrated
        with pytest.raises(TypeError, match="seed"):
            runner.run_system(QUERY_SET, small_trace, capacity, seed=3)
        with pytest.raises(TypeError, match="feature_method"):
            runner.run_with_overload(QUERY_SET, small_trace, 0.3,
                                     base_capacity=capacity,
                                     reference=reference,
                                     feature_method="exact")
        with pytest.raises(TypeError, match="seed"):
            runner.reference_system([make_query("counter")], seed=3)
        result = runner.run_system(QUERY_SET, small_trace, capacity,
                                   config=runner.system_config(seed=3))
        assert result.total_packets == len(small_trace)

        for build in (lambda: SystemConfig(shard_backend="fork"),
                      lambda: SystemConfig.from_dict(
                          {"shard_backend": "fork"})):
            with pytest.raises(ValueError) as refused:
                build()
            for backend in ("auto", "inprocess", "workers"):
                assert repr(backend) in str(refused.value)

    def test_the_rebalancer_fields_are_refused_by_name(self):
        """A shard owns a fixed 1/N slice: the two rebalancer fields are
        unknown fields like any typo, wherever a config comes from."""
        with pytest.raises(TypeError, match="shard_rebalance"):
            SystemConfig(shard_rebalance=True)
        with pytest.raises(TypeError, match="rebalance"):
            ShardedSystem(config=SystemConfig(queries="counter"),
                          rebalance=False)
        for build in (
                lambda: SystemConfig().replace(shard_rebalance_floor=0.5),
                lambda: SystemConfig.from_dict({"shard_rebalance": True})):
            with pytest.raises(ValueError, match="unknown SystemConfig "
                                                 r"field\(s\) 'shard_rebal"):
                build()
        assert len(dataclasses.fields(SystemConfig)) == 18
