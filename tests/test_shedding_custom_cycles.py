"""Tests for the cycle substrate, the shedding controller and enforcement."""

import numpy as np
import pytest

from repro.core.custom import CustomShedEnforcer
from repro.core.cycles import (CycleBudget, CycleClock, CycleMeter,
                               OperationCosts)
from repro.core.shedding import (BufferDiscovery, LoadSheddingController,
                                 reactive_rate)


class TestOperationCosts:
    def test_default_costs_positive(self):
        costs = OperationCosts()
        assert costs.cost("packet") > 0
        assert costs.cost("hash_insert", 3) == 3 * costs.cost("hash_insert")

    def test_unknown_operation(self):
        with pytest.raises(KeyError):
            OperationCosts().cost("teleport")

    def test_overrides(self):
        costs = OperationCosts({"packet": 1.0})
        assert costs.cost("packet") == 1.0
        assert costs.cost("byte") == OperationCosts().cost("byte")


class TestCycleMeter:
    def test_accumulate_and_consume(self):
        meter = CycleMeter()
        meter.charge("packet", 10)
        meter.charge("byte", 100)
        total = meter.consume()
        assert total == pytest.approx(10 * meter.costs.cost("packet")
                                      + 100 * meter.costs.cost("byte"))
        assert meter.consume() == 0.0

    def test_noise_is_multiplicative(self):
        meter = CycleMeter(noise_std=0.1, rng=np.random.default_rng(0))
        exact = meter.charge("packet", 1000)
        noisy = meter.consume()
        assert noisy != exact
        assert abs(noisy - exact) < 0.6 * exact


class TestCycleClock:
    def test_budget_per_bin(self):
        budget = CycleBudget(cycles_per_second=1e6, time_bin=0.1)
        assert budget.per_bin == pytest.approx(1e5)

    def test_delay_accumulates_on_overrun(self):
        clock = CycleClock(CycleBudget(1e6, 0.1))
        assert clock.close_bin(2e5) == pytest.approx(1e5)  # budget is 1e5
        assert clock.delay == pytest.approx(1e5)
        clock.close_bin(0.0)
        assert clock.delay == pytest.approx(0.0)

    def test_spare_cycles_pay_down_the_delay_but_are_not_banked(self):
        clock = CycleClock(CycleBudget(1e6, 0.1))
        clock.close_bin(1.5e5)
        assert clock.close_bin(8e4) == pytest.approx(3e4)
        assert clock.close_bin(0.0) == 0.0
        assert clock.close_bin(1.2e5) == pytest.approx(2e4)


class TestBufferDiscovery:
    def test_probes_when_under_budget(self):
        discovery = BufferDiscovery(initial_increment=10.0)
        discovery.update(used_cycles=50.0, available_cycles=100.0,
                         buffer_occupation=0.0)
        assert discovery.rtthresh > 0

    def test_backs_off_when_buffer_fills(self):
        discovery = BufferDiscovery(initial_increment=10.0)
        for _ in range(5):
            discovery.update(50.0, 100.0, 0.0)
        assert discovery.rtthresh > 0
        discovery.update(50.0, 100.0, buffer_occupation=0.9)
        assert discovery.rtthresh == 0.0

    def test_configure_budget_caps_allowance(self):
        discovery = BufferDiscovery()
        discovery.configure_budget(per_bin_budget=1000.0, buffer_cycles=2000.0)
        for _ in range(100):
            discovery.update(10.0, 1000.0, 0.0)
        assert discovery.allowance() <= 1000.0 + 1e-9


def _plan(controller, demands, bin_budget, overhead_cycles, delay):
    """``plan_arrays`` over ``(name, predicted cycles, min rate)`` rows."""
    names, predicted, min_rates = zip(*demands)
    return controller.plan_arrays(list(names), np.array(predicted),
                                  np.array(min_rates), bin_budget,
                                  overhead_cycles, delay)


class TestLoadSheddingController:
    def test_no_overload_no_shedding(self):
        controller = LoadSheddingController()
        demands = [("q", 100.0, 0.0)]
        plan = _plan(controller, demands, bin_budget=1000.0,
                     overhead_cycles=0.0, delay=0.0)
        assert not plan.overload
        assert plan.rates["q"] == 1.0

    def test_overload_reduces_rates(self):
        controller = LoadSheddingController()
        demands = [("a", 600.0, 0.0), ("b", 600.0, 0.0)]
        plan = _plan(controller, demands, bin_budget=700.0,
                     overhead_cycles=100.0, delay=0.0)
        assert plan.overload
        assert all(rate < 1.0 for rate in plan.rates.values())

    def test_error_correction_increases_shedding(self):
        lenient = LoadSheddingController()
        strict = LoadSheddingController()
        strict.record_prediction_error(predicted_after_shedding=100.0,
                                       actual_cycles=200.0)
        demands = [("q", 900.0, 0.0)]
        plan_lenient = _plan(lenient, demands, 1000.0, 200.0, 0.0)
        plan_strict = _plan(strict, demands, 1000.0, 200.0, 0.0)
        assert plan_strict.rates["q"] <= plan_lenient.rates["q"]

    def test_delay_reduces_available_cycles(self):
        controller = LoadSheddingController()
        assert controller.available_cycles(1000.0, 100.0, delay=300.0) == \
            pytest.approx(600.0)

    def test_overhead_ewma_updates(self):
        controller = LoadSheddingController()
        controller.record_shedding_overhead(100.0)
        assert controller.shedding_overhead_ewma == pytest.approx(90.0)

    def test_strategy_plumbing(self):
        controller = LoadSheddingController(strategy="mmfs_pkt")
        demands = [("a", 800.0, 0.1), ("b", 200.0, 0.1)]
        plan = _plan(controller, demands, 500.0, 0.0, 0.0)
        assert plan.allocation is not None
        assert plan.rates["a"] == pytest.approx(plan.rates["b"], rel=1e-3)
        assert plan.rates == plan.allocation.rates

    def test_removed_knobs_are_plain_type_errors(self):
        with pytest.raises(TypeError):
            LoadSheddingController(safety_margin=0.1)
        with pytest.raises(ValueError, match="valid strategies"):
            LoadSheddingController(strategy=lambda demands, capacity: None)
        controller = LoadSheddingController()
        for gone in ("plan", "last_rates", "forget_query", "safety_margin",
                     "strategy_key"):
            assert not hasattr(controller, gone)


class TestReactiveRate:
    def test_scales_with_consumption(self):
        rate = reactive_rate(previous_rate=1.0, consumed_cycles=2000.0,
                             available_cycles=1000.0, delay=0.0)
        assert rate == pytest.approx(0.5)

    def test_bounded(self):
        assert reactive_rate(0.5, 100.0, 1000.0, 0.0) == 1.0
        assert reactive_rate(0.5, 0.0, 1000.0, 0.0) == 1.0
        assert reactive_rate(0.1, 1e6, 10.0, 20.0) == 0.0


class TestCustomShedEnforcer:
    def test_allowed_fraction_uses_correction(self):
        enforcer = CustomShedEnforcer()
        # Query consistently uses twice what it is granted.
        for bin_index in range(20):
            enforcer.record("q", expected_cycles=100.0, actual_cycles=200.0,
                            bin_index=bin_index)
        assert enforcer.state("q").correction > 1.5
        assert enforcer.allowed_fraction("q", 0.5) < 0.35

    def test_violations_lead_to_disable(self):
        enforcer = CustomShedEnforcer(tolerance=0.1, violation_limit=3,
                                      base_penalty_bins=10)
        bin_index = 0
        while not enforcer.is_disabled("q", bin_index):
            enforcer.record("q", 100.0, 500.0, bin_index)
            bin_index += 1
            assert bin_index < 20
        state = enforcer.state("q")
        assert state.total_disables == 1
        assert enforcer.is_disabled("q", bin_index)
        assert not enforcer.is_disabled("q", state.disabled_until_bin + 1)

    def test_penalty_doubles(self):
        enforcer = CustomShedEnforcer(tolerance=0.1, violation_limit=1,
                                      base_penalty_bins=5)
        enforcer.record("q", 100.0, 1000.0, bin_index=0)
        first = enforcer.state("q").penalty_bins
        enforcer.record("q", 100.0, 1000.0, bin_index=100)
        assert enforcer.state("q").penalty_bins == 2 * first

    def test_compliant_query_never_disabled(self):
        enforcer = CustomShedEnforcer()
        for bin_index in range(50):
            enforcer.record("good", 100.0, 95.0, bin_index)
        assert enforcer.state("good").total_disables == 0
        assert not enforcer.is_disabled("good", 51)

    def test_an_unjudged_batch_corrects_but_counts_no_violation(self):
        """A warm-up bin or a full grant moves the correction factor and is
        never a violation; the same consumption judged is one."""
        unjudged, judged = CustomShedEnforcer(), CustomShedEnforcer()
        for bin_index in range(50):
            unjudged.record("q", 100.0, 180.0, bin_index, judged=False)
            judged.record("q", 100.0, 180.0, bin_index)
        assert unjudged.state("q").total_violations == 0
        assert not unjudged.is_disabled("q", 50)
        assert unjudged.state("q").correction == pytest.approx(1.8)
        assert judged.state("q").total_disables >= 1

    def test_reset(self):
        enforcer = CustomShedEnforcer()
        enforcer.record("q", 100.0, 300.0, 0)
        assert enforcer.state("q").total_violations == 1
        enforcer.reset("q")
        assert enforcer.state("q").total_violations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CustomShedEnforcer(tolerance=-1.0)
        with pytest.raises(ValueError):
            CustomShedEnforcer(violation_limit=0)
