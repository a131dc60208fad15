"""Integration tests: the monitoring system end to end."""

import numpy as np
import pytest

from repro.monitor.capture import CaptureBuffer
from repro.monitor.config import SystemConfig
from repro.queries import P2PDetectorQuery, SelfishP2PDetectorQuery, make_query
from repro.experiments import runner


QUERY_SET = ("counter", "flows", "top-k", "application")


def _system(queries=None, **knobs):
    """A system built the one way there is: from its config."""
    return SystemConfig(**knobs).build(queries)


@pytest.fixture(scope="module")
def calibrated(small_trace_module):
    capacity, reference = runner.calibrate_capacity(QUERY_SET,
                                                    small_trace_module)
    return capacity, reference


@pytest.fixture(scope="module")
def small_trace_module():
    from repro.traffic import TrafficProfile, generate_trace
    profile = TrafficProfile(duration=4.0, flow_arrival_rate=150.0,
                             name="integration")
    return generate_trace(profile, seed=11)


class TestCaptureBuffer:
    def test_infinite_buffer_never_drops(self):
        buffer = CaptureBuffer(None)
        status = buffer.status(1e18)
        assert not status.dropping and status.occupation == 0.0

    def test_finite_buffer_fills(self):
        buffer = CaptureBuffer(0.1, cycles_per_second=1e6)
        assert buffer.capacity_cycles == pytest.approx(1e5)
        assert buffer.status(5e4).occupation == pytest.approx(0.5)
        assert buffer.status(2e5).dropping

    def test_drop_accounting(self):
        buffer = CaptureBuffer(0.1)
        buffer.record_drop(500)
        assert buffer.dropped_packets == 500
        assert buffer.dropped_batches == 1


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            _system(mode="warp-speed")

    def test_mode_alias(self):
        assert _system(mode="no_lshed").mode == "original"

    def test_duplicate_query_rejected(self):
        system = _system([make_query("counter")])
        with pytest.raises(ValueError):
            system.add_query(make_query("counter"))


class TestReferenceExecution:
    def test_reference_never_drops(self, small_trace_module):
        system = _system([make_query(n) for n in QUERY_SET],
                         mode="reference",
                         cycles_per_second=1e6)  # tiny capacity
        result = system.run(small_trace_module)
        assert result.dropped_packets == 0
        assert result.mean_sampling_rate() == 1.0

    def test_interval_alignment_across_runs(self, small_trace_module):
        system = _system([make_query("counter")], mode="reference")
        first = system.run(small_trace_module)
        second = system.run(small_trace_module)
        assert len(first.query_logs["counter"]) == \
            len(second.query_logs["counter"])
        assert first.query_logs["counter"].results == \
            second.query_logs["counter"].results

    def test_counter_totals_match_trace(self, small_trace_module):
        system = _system([make_query("counter")], mode="reference")
        result = system.run(small_trace_module)
        total = sum(r["packets"] for r in result.query_logs["counter"].results)
        assert total == pytest.approx(len(small_trace_module))


class TestPredictiveExecution:
    def test_no_overload_no_shedding(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode="predictive",
            cycles_per_second=capacity * 2.0).build().run(small_trace_module)
        assert result.dropped_packets == 0
        assert result.mean_sampling_rate() > 0.98

    def test_overload_triggers_shedding_not_drops(self, small_trace_module,
                                                  calibrated):
        capacity, reference = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode="predictive",
            cycles_per_second=capacity * 0.5).build().run(small_trace_module)
        assert result.mean_sampling_rate() < 0.9
        assert result.drop_fraction < 0.02
        # CPU usage stays close to the reduced budget.
        per_bin = result.cycles_per_bin()
        budget = capacity * 0.5 * runner.TIME_BIN
        assert np.quantile(per_bin, 0.9) < budget * 1.5

    def test_predictive_beats_original_accuracy(self, small_trace_module,
                                                calibrated):
        capacity, reference = calibrated
        predictive = runner.system_config(
            queries=QUERY_SET, mode="predictive",
            cycles_per_second=capacity * 0.5).build().run(small_trace_module)
        original = runner.system_config(
            queries=QUERY_SET, mode="original",
            cycles_per_second=capacity * 0.5).build().run(small_trace_module)
        pred_err = runner.error_by_query(predictive, reference)
        orig_err = runner.error_by_query(original, reference)
        assert original.dropped_packets > 0
        assert predictive.dropped_packets < original.dropped_packets
        assert pred_err["counter"] < orig_err["counter"]

    def test_strategies_respect_min_rates(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        for strategy in ("eq_srates", "mmfs_cpu", "mmfs_pkt"):
            result = runner.system_config(
                queries=QUERY_SET, mode="predictive", strategy=strategy,
                cycles_per_second=capacity * 0.4,
            ).build().run(small_trace_module)
            for name in QUERY_SET:
                rates = result.rate_series(name)
                min_rate = make_query(name).minimum_sampling_rate
                active = rates[rates > 0]
                if len(active):
                    assert active.min() >= min_rate - 1e-6

    def test_reactive_mode_sheds(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode="reactive",
            cycles_per_second=capacity * 0.5).build().run(small_trace_module)
        assert result.mean_sampling_rate() < 1.0

    def test_query_arrival(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        system = _system([make_query("counter")], mode="predictive",
                         cycles_per_second=capacity,
                         **runner.FEATURE_CONFIG)
        system.add_query(make_query("flows"), start_time=2.0)
        result = system.run(small_trace_module)
        flow_rates = result.rate_series("flows")
        early_bins = [record for record in result.bins if record.start_ts < 1.9]
        assert all("flows" not in record.rates for record in early_bins)
        assert len(result.query_logs["flows"]) > 0


class TestQueryLifecycle:
    def test_remove_query_clears_enforcement_state(self):
        system = _system([make_query("counter")], mode="predictive")
        name = "p2p-detector"
        system.add_query(make_query(name))
        # Simulate a history of violations for the custom query.
        for bin_index in range(3):
            system.enforcer.record(name, expected_cycles=100.0,
                                   actual_cycles=1000.0, bin_index=bin_index)
        assert system.enforcer.state(name).total_violations > 0
        system.remove_query(name)
        # A same-named query added later must start with a clean slate.
        system.add_query(make_query(name))
        state = system.enforcer.state(name)
        assert state.total_violations == 0
        assert state.correction == 1.0
        assert state.disabled_until_bin == -1

    def test_meter_reseed_is_deterministic(self):
        from repro.core.cycles import CycleMeter
        meter = CycleMeter(noise_std=0.2)
        samples = []
        for _ in range(2):
            meter.reseed(42)
            meter.charge("packet", 100)
            samples.append(meter.consume())
        assert samples[0] == samples[1]

    def test_add_query_seeds_meter_via_public_api(self, small_trace_module):
        # Two same-seeded systems with measurement noise must agree exactly,
        # which only holds if every per-query RNG is seeded deterministically.
        results = []
        for _ in range(2):
            system = _system([make_query("counter")],
                             mode="reference",
                             measurement_noise=0.1, seed=3)
            result = system.run(small_trace_module)
            results.append(result.series("query_cycles"))
        assert np.array_equal(results[0], results[1])


class TestCustomSheddingIntegration:
    def test_custom_query_polices_selfish(self, payload_trace_small):
        queries = [make_query("counter"), make_query("flows"),
                   SelfishP2PDetectorQuery()]
        # Calibrate on an equivalent honest query set so the allocation grants
        # the offender real cycles; the enforcer (not starvation) must act.
        capacity, reference = runner.calibrate_capacity(
            ["counter", "flows", "p2p-detector"], payload_trace_small)
        system = _system(queries, mode="predictive",
                         strategy="mmfs_pkt",
                         cycles_per_second=capacity * 0.7,
                         **runner.FEATURE_CONFIG)
        result = system.run(payload_trace_small)
        state = system.enforcer.state("p2p-detector-selfish")
        assert state.total_violations > 0
        assert state.total_disables >= 1
        # The rest of the system keeps running without uncontrolled losses.
        assert result.drop_fraction < 0.1

    def test_cooperative_custom_query_not_disabled(self, payload_trace_small):
        queries = [make_query("counter"),
                   P2PDetectorQuery(custom_shedding=True)]
        capacity, _ = runner.calibrate_capacity(
            [("p2p-detector", {"custom_shedding": True}), "counter"],
            payload_trace_small)
        system = _system(queries, mode="predictive",
                         strategy="mmfs_pkt",
                         cycles_per_second=capacity * 0.6,
                         **runner.FEATURE_CONFIG)
        system.run(payload_trace_small)
        assert system.enforcer.state("p2p-detector").total_disables == 0


class TestExecutionResult:
    def test_series_and_rates(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode="predictive",
            cycles_per_second=capacity * 0.6).build().run(small_trace_module)
        assert len(result.series("query_cycles")) == len(result.bins)
        assert len(result.rate_series("counter")) == len(result.bins)
        assert result.total_packets == len(small_trace_module)
