"""Integration tests: the monitoring system end to end."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.features import TRAFFIC_AGGREGATES, FeatureExtractor
from repro.core.hashing import stream_key
from repro.core.tenancy import TenantGroup
from repro.monitor.capture import CaptureBuffer
from repro.monitor.config import SystemConfig
from repro.monitor.pipeline import Bound
from repro.monitor.query import closed_intervals
from repro.queries import (BuggyP2PDetectorQuery, P2PDetectorQuery,
                           QuerySpec, SelfishP2PDetectorQuery, make_query)
from repro.queries.flows import FlowsQuery
from repro.experiments import runner, scenarios
from repro.traffic import TrafficProfile, generate_trace


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

    def test_a_dropped_bin_reads_the_buffer_after_it_closes(
            self, small_trace_module, calibrated):
        """Every bin, admitted or dropped, records the occupation of the
        buffer at the delay it leaves behind — the delay it records too,
        and what buffer discovery is fed."""
        capacity, _ = calibrated
        session = runner.system_config(
            queries=QUERY_SET, mode="original",
            cycles_per_second=capacity * 0.5).build().open_session()
        result = session.ingest_trace(small_trace_module).close()
        records = list(result.bins)
        assert any(record.dropped_packets > 0 for record in records)
        for record in records:
            assert record.buffer_occupation == min(
                1.0, record.delay / session.buffer.capacity_cycles)


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


@pytest.fixture(scope="module")
def offender_capacity(payload_trace_small):
    """Calibrated on an equivalent honest query set, so the allocation
    grants an offender real cycles; the enforcer (not starvation) must
    act."""
    capacity, _ = runner.calibrate_capacity(
        ["counter", "flows", "p2p-detector"], payload_trace_small)
    return capacity


@pytest.fixture(scope="module")
def cooperative_capacity(payload_trace_small):
    capacity, _ = runner.calibrate_capacity(
        [("p2p-detector", {"custom_shedding": True}), "counter"],
        payload_trace_small)
    return capacity


class _GrantIgnoringDetector(P2PDetectorQuery):
    """Scans every packet whatever its grant, and says so: it reports the
    whole batch as the fraction it applied."""

    name = "p2p-detector-greedy"

    def __init__(self) -> None:
        super().__init__(custom_shedding=True)

    def shed_load(self, batch, target_fraction):
        self._sampling_rate = 1.0
        self._scan_batch(batch)
        return 1.0


class TestCustomSheddingIntegration:
    #: Bins a predictor needs before its model is fitted: the warm-up, in
    #: which the enforcer counts no violation.
    WARM_UP = 2
    #: Bins after the warm-up within which a selfish detector is first
    #: penalised.  Measured: bin 5 under every seed (the warm-up's miss
    #: sets the correction factor, the detector ignores the smaller grant
    #: that follows, three violations in a row).
    SELFISH_DEADLINE = 5

    @staticmethod
    def _run_offender(query, trace, capacity, seed=0):
        system = _system([make_query("counter"), make_query("flows"), query],
                         mode="predictive", strategy="mmfs_pkt",
                         cycles_per_second=capacity * 0.7, seed=seed,
                         **runner.FEATURE_CONFIG)
        return system, system.run(trace)

    def test_custom_query_polices_selfish(self, payload_trace_small,
                                          offender_capacity):
        system, result = self._run_offender(
            SelfishP2PDetectorQuery(), payload_trace_small, offender_capacity)
        state = system.enforcer.state("p2p-detector-selfish")
        assert state.total_violations > 0
        assert state.total_disables >= 1
        # The rest of the system keeps running without uncontrolled losses.
        assert result.drop_fraction < 0.1
        _assert_decision_recorded(result, "predictive")
        # The record tells the penalty from an allocator decision: in the
        # penalised bins the query was allocated a rate and ran at none.
        name = "p2p-detector-selfish"
        penalised = [record.index for record in result.bins
                     if record.bounds[name] == Bound.PENALISED]
        for index in penalised:
            assert result.bins[index].decided_rates[name] > 0.0
            assert result.bins[index].rates[name] == 0.0
        first = penalised[0]
        assert penalised == list(range(
            first, first + system.enforcer.base_penalty_bins))

    @pytest.mark.parametrize("query", (_GrantIgnoringDetector,
                                       BuggyP2PDetectorQuery))
    def test_a_detector_exceeding_its_grant_is_disabled(
            self, payload_trace_small, offender_capacity, query):
        """Reporting what it consumed does not excuse a detector that
        ignores its grant, nor one whose method sheds too little."""
        offender = query()
        system, result = self._run_offender(offender, payload_trace_small,
                                            offender_capacity)
        state = system.enforcer.state(offender.name)
        assert state.total_violations >= system.enforcer.violation_limit
        assert state.total_disables >= 1
        assert any(record.bounds[offender.name] == Bound.PENALISED
                   for record in result.bins)

    #: The draws the cooperative detector is run under: the raw hash keys
    #: 1-20 (keys 3, 5, 9 and 16 disabled it while its warm-up bins were
    #: judged), then its stream key under seeds 0-15.
    DRAWS = [("key", key) for key in range(1, 21)] + \
        [("seed", seed) for seed in range(16)]

    @pytest.mark.parametrize("draw", DRAWS, ids=[f"{kind}{value}" for kind,
                                                 value in DRAWS])
    def test_a_cooperative_detector_is_never_disabled(
            self, payload_trace_small, cooperative_capacity, draw):
        """The detector's flow hash is drawn from its stream key; under
        each draw a cooperative detector runs at the enforcer's grant and
        is never disabled."""
        kind, value = draw
        detector = P2PDetectorQuery(custom_shedding=True)
        system = _system([make_query("counter"), detector],
                         mode="predictive", strategy="mmfs_pkt",
                         cycles_per_second=cooperative_capacity * 0.6,
                         seed=value if kind == "seed" else 0,
                         **runner.FEATURE_CONFIG)
        if kind == "key":
            detector.reseed(value)
        result = system.run(payload_trace_small)
        assert system.enforcer.state("p2p-detector").total_disables == 0
        # It runs at the enforcer's grant and reports the fraction it
        # applied; what it was expected to cost is still its prediction at
        # the rate decided.
        _assert_decision_recorded(result, "predictive")
        assert any(record.rates["p2p-detector"] !=
                   record.decided_rates["p2p-detector"]
                   for record in result.bins)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_selfish_detector_is_disabled_soon_after_the_warm_up(
            self, payload_trace_small, offender_capacity, seed):
        """No violation is counted in the warm-up, and a detector that
        ignores the request is disabled within :attr:`SELFISH_DEADLINE`
        bins of it."""
        system, result = self._run_offender(
            SelfishP2PDetectorQuery(), payload_trace_small, offender_capacity,
            seed)
        name = "p2p-detector-selfish"
        penalised = next(record.index for record in result.bins
                         if record.bounds[name] == Bound.PENALISED)
        assert self.WARM_UP < penalised <= self.WARM_UP + \
            self.SELFISH_DEADLINE
        assert system.enforcer.state(name).total_disables >= 1

    def test_a_detector_flow_hash_is_keyed_by_its_stream_and_renewed(self):
        """Only a custom-shedding detector draws a flow hash; a system keys
        it by ``stream_key(config.seed, name)``, and each interval flush
        renews it."""
        assert P2PDetectorQuery()._flow_sampler is None
        detector = P2PDetectorQuery(custom_shedding=True)
        _system([detector], seed=11)
        sampler = detector._flow_sampler
        assert sampler.key == stream_key(11, "p2p-detector")
        assert sampler.renewals == 0
        detector.interval_partial()
        assert sampler.renewals == 1


def _assert_decision_recorded(result, mode):
    """Every bin records its rate decision beside its outcome, and the
    decision is what ``expected_cycles`` was summed from."""
    for record in result.bins:
        assert list(record.predicted_by_query) == list(record.rates) == \
            list(record.decided_rates) == list(record.bounds)
        # Left to right over the queries, at the rates *decided*.
        expected = 0.0
        for name, prediction in record.predicted_by_query.items():
            expected += prediction * record.decided_rates[name]
        assert record.expected_cycles == expected, record.index
        if record.dropped_packets:
            assert set(record.bounds.values()) == {Bound.DROPPED}
            assert set(record.decided_rates.values()) == {0.0}
            assert set(record.predicted_by_query.values()) == {0.0}
        if mode != "predictive" or record.dropped_packets:
            assert (record.plan_cycles, record.allowance, record.error_ewma,
                    record.shedding_overhead_ewma) == (0.0, 0.0, 0.0, 0.0)


class TestRateDecisionRecord:
    @pytest.mark.parametrize("mode", ("predictive", "reactive", "original",
                                      "reference"))
    def test_expected_cycles_is_the_prediction_at_the_rates_decided(
            self, mode, small_trace_module, calibrated):
        capacity, _ = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode=mode,
            cycles_per_second=capacity * 0.5).build().run(small_trace_module)
        _assert_decision_recorded(result, mode)
        bounds = {code for record in result.bins
                  for code in record.bounds.values()}
        if mode == "original":
            assert Bound.DROPPED in bounds
        elif mode == "reference":
            assert bounds == {Bound.UNBOUND}
        else:
            assert Bound.CAPACITY in bounds

    def test_each_bound_code_holds_where_it_is_recorded(self):
        """16 queries in four tenant groups, one capped at a 0.3 share and
        one with a 0.01 floor, run at 0.2x the capacity they need and then
        at 0.02x: every code but ``PENALISED`` shows up, each where its
        rule says."""
        specs = [QuerySpec(kind, {"name": f"q{index:02d}"}, filter=expression)
                 for index, (expression, kind) in enumerate(
                     (expression, kind)
                     for expression in (None, "tcp", "port:80", "port:53")
                     for kind in ("counter", "flows", "top-k", "application"))]
        groups = (TenantGroup("t0", specs[0::4]),
                  TenantGroup("t1", specs[1::4], weight=2, budget_share=0.3),
                  TenantGroup("t2", specs[2::4], weight=3, min_rate=0.01),
                  TenantGroup("t3", specs[3::4]))
        trace = generate_trace(TrafficProfile(duration=3.0,
                                              flow_arrival_rate=800.0),
                               seed=3)
        config = SystemConfig(strategy="mmfs_cpu", tenants=groups, seed=4)
        reference = config.replace(mode="reference").build().run(trace)
        capacity = np.quantile(reference.cycles_per_bin(), 0.95) / 0.1
        system = config.replace(cycles_per_second=0.2 * capacity).build()
        session = system.open_session()
        batches = trace.batch_list(0.1)
        for index, batch in enumerate(batches):
            if index == len(batches) // 2:
                session.set_capacity(0.02 * capacity)
            session.ingest(batch)
        result = session.close()
        _assert_decision_recorded(result, "predictive")
        floors = {name: system.demand_table.min_rate[
            system.runtime(name).slot] for name in system.query_names}
        seen = set()
        for record in result.bins:
            for name, bound in record.bounds.items():
                rate = record.decided_rates[name]
                seen.add(bound)
                assert (bound == Bound.DROPPED) == (record.dropped_packets > 0)
                if bound == Bound.DISABLED:
                    assert rate == 0.0
                elif bound != Bound.DROPPED:
                    assert (bound == Bound.UNBOUND) == (rate == 1.0)
                if bound == Bound.MIN_RATE:
                    assert abs(rate - floors[name]) <= 1e-12
                if bound == Bound.TENANT:
                    assert name in {spec.instance_name for spec in specs[1::4]}
                if bound == Bound.CAPACITY:
                    assert 0.0 <= rate < 1.0
                    assert abs(rate - floors[name]) > 1e-12
        assert seen == set(Bound) - {Bound.PENALISED}


class TestExecutionResult:
    def test_series_and_rates(self, small_trace_module, calibrated):
        capacity, _ = calibrated
        result = runner.system_config(
            queries=QUERY_SET, mode="predictive",
            cycles_per_second=capacity * 0.6).build().run(small_trace_module)
        assert len(result.series("query_cycles")) == len(result.bins)
        assert len(result.rate_series("counter")) == len(result.bins)
        assert result.total_packets == len(small_trace_module)


# ----------------------------------------------------------------------
# One interval clock: the flush starts the extractor's and the sampler's
# next interval
# ----------------------------------------------------------------------
CLOCK_QUERIES = ("counter", "flows", "top-k", "super-sources")
FIVE_TUPLE = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")


class _FateProbe(FlowsQuery):
    """A flow-sampled query that keeps the 5-tuple hashes it receives,
    by bin start."""

    name = "probe"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.received = {}

    def update(self, batch, sampling_rate):
        self.received[batch.start_ts] = set(
            batch.aggregate_hashes(FIVE_TUPLE).tolist())
        super().update(batch, sampling_rate)


class _PreSheddingFeatures(FeatureExtractor):
    """An extractor that keeps the pre-shedding vector of every bin."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pre = {}

    def extract(self, batch, update_state=True):
        vector = super().extract(batch, update_state)
        if not update_state:
            self.pre[batch.start_ts] = vector
        return vector


@pytest.fixture(scope="module")
def clock_calibrated():
    """``header_trace(scale=0.3)`` and the calibrated capacity of
    ``CLOCK_QUERIES`` on it."""
    trace = scenarios.header_trace(scale=0.3)
    return trace, runner.calibrate_capacity(CLOCK_QUERIES, trace)[0]


@pytest.fixture(scope="module")
def clocked_run(clock_calibrated):
    """A predictive run of ``header_trace(scale=0.3)`` at half the
    calibrated capacity of ``CLOCK_QUERIES``, plus the probe, stepped bin
    by bin: ``(system, bins, records, flushed)`` with ``flushed[i]`` the
    names of the queries whose interval bin ``i`` closed.  The trace's
    first packet is at 0.00106 s, so its bin edges are not the interval
    edges of a clock that starts anywhere else."""
    trace, capacity = clock_calibrated
    system = runner.system_config(
        queries=CLOCK_QUERIES, mode="predictive",
        cycles_per_second=capacity * 0.5).build(
            [make_query(kind) for kind in CLOCK_QUERIES] + [_FateProbe()])
    for name in system.query_names:
        system.runtime(name).extractor = _PreSheddingFeatures(
            method=system.config.feature_method,
            sharing=system.feature_states)
    session = system.open_session(time_bin=runner.TIME_BIN)
    bins = list(trace.batches(runner.TIME_BIN))
    records, flushed = [], []
    for batch in bins:
        record, closed = session.step(batch)
        records.append(record)
        flushed.append({name for name, *_ in closed})
    session.finish()
    return system, bins, records, flushed


class TestIntervalClock:
    def test_rule_closes_one_interval_per_period(self):
        assert closed_intervals(None, 1.0, 0.25) == ([], 0.25)
        assert closed_intervals(0.25, 1.0, 1.2) == ([], 0.25)
        # An edge a float ulp short of the interval end still closes it.
        assert closed_intervals(0.25, 1.0, 1.25 - 1e-12) == ([0.25], 1.25)
        assert closed_intervals(0.25, 1.0, 3.5) == ([0.25, 1.25, 2.25], 3.25)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_a_nonpositive_interval_is_refused(self, interval,
                                               small_trace_module):
        """An interval that never ends is refused on the first bin, not
        looped on forever."""
        with pytest.raises(ValueError, match="measurement_interval"):
            closed_intervals(None, interval, 0.0)
        query = make_query("counter")
        query.measurement_interval = interval
        with pytest.raises(ValueError, match="measurement_interval"):
            _system([query], mode="predictive").run(small_trace_module)

    def test_a_flows_fate_holds_for_its_interval(self, clocked_run):
        """Within one interval of the probe, no flow is kept at a rate
        ``r`` and dropped at a rate ``r`` or more: the flush renews the
        flow sampler's hash, and nothing else does."""
        system, bins, records, flushed = clocked_run
        probe = system.runtime("probe").query
        # interval -> flow -> ([rates it was kept at], [rates dropped at])
        fates = defaultdict(lambda: defaultdict(lambda: ([], [])))
        interval = 0
        for batch, record, closed in zip(bins, records, flushed):
            interval += "probe" in closed
            rate = record.rates["probe"]
            kept = probe.received.get(batch.start_ts, set())
            for flow in set(batch.aggregate_hashes(FIVE_TUPLE).tolist()):
                kept_at, dropped_at = fates[interval][flow]
                (kept_at if flow in kept else dropped_at).append(rate)
        assert interval >= 3
        assert any(0.0 < record.rates["probe"] < 1.0 for record in records)
        repeated = broken = 0
        for flows in fates.values():
            for kept_at, dropped_at in flows.values():
                repeated += len(kept_at) + len(dropped_at) >= 2
                broken += bool(kept_at and dropped_at
                               and max(dropped_at) >= min(kept_at))
        assert repeated > 1000
        assert broken == 0, f"{broken} of {repeated} flows changed fate"

    def test_a_flush_bin_reads_a_fresh_interval(self, clocked_run):
        """In every bin where a query flushes, its pre-shedding features
        are computed against an empty interval: every item is new."""
        system, bins, _, flushed = clocked_run
        checked = 0
        for batch, closed in zip(bins[1:], flushed[1:]):
            for name in closed:
                vector = system.runtime(name).extractor.pre[batch.start_ts]
                for aggregate, _ in TRAFFIC_AGGREGATES:
                    assert vector[f"{aggregate}_new"] == \
                        vector[f"{aggregate}_unique"], (name, batch.start_ts)
                checked += vector["packets"] > 0
        assert checked >= 3 * len(system.query_names)


# ----------------------------------------------------------------------
# A query's randomness is its own
# ----------------------------------------------------------------------
def _kept_and_rates(clock_calibrated, mode, order, live):
    """Run ``CLOCK_QUERIES`` (two packet-sampled, two flow-sampled) listed
    in ``order`` at half the calibrated capacity, with ``live`` added to
    the open session before bin 0 instead of declared: per bin, each
    query's count of packets it was given to process, and its applied
    rate."""
    trace, capacity = clock_calibrated
    queries = {kind: make_query(kind) for kind in order}
    kept = defaultdict(dict)
    for name, query in queries.items():
        def counted(batch, rate, name=name, update=query.update):
            kept[batch.start_ts][name] = len(batch)
            update(batch, rate)
        query.update = counted
    system = runner.system_config(
        mode=mode, cycles_per_second=capacity * 0.5).build(
            [queries[kind] for kind in order if kind != live])
    session = system.open_session(time_bin=runner.TIME_BIN)
    if live is not None:
        session.add_query(queries[live])
    rates = [session.step(batch)[0].rates
             for batch in trace.batches(runner.TIME_BIN)]
    session.finish()
    return [kept[start] for start in sorted(kept)], rates


@pytest.fixture(scope="module")
def declared_runs(clock_calibrated):
    """Mode -> the mix as listed in ``CLOCK_QUERIES``, all declared."""
    return {mode: _kept_and_rates(clock_calibrated, mode, CLOCK_QUERIES,
                                  None)
            for mode in ("predictive", "reactive")}


class TestQueryOrder:
    @pytest.mark.parametrize("mode", ["predictive", "reactive"])
    @given(order=st.permutations(CLOCK_QUERIES),
           live=st.sampled_from((None,) + CLOCK_QUERIES))
    def test_a_mix_answers_the_same_in_any_order(
            self, clock_calibrated, declared_runs, mode, order, live):
        """Each query's sampling draws are keyed by the system seed and its
        name: listing the mix in another order, or adding one of its
        queries live at bin 0, keeps the same packets of every query in
        every bin, at the same rates.  (The rates agree to 1e-12, not
        bit for bit: the per-bin sums over the queries still run in
        registration order.)"""
        kept, rates = _kept_and_rates(clock_calibrated, mode, order, live)
        declared_kept, declared_rates = declared_runs[mode]
        assert any(0.0 < rate < 1.0 for bin_rates in declared_rates
                   for rate in bin_rates.values())
        assert kept == declared_kept
        assert len(rates) == len(declared_rates)
        for bin_rates, declared in zip(rates, declared_rates):
            assert bin_rates.keys() == declared.keys()
            for name, rate in bin_rates.items():
                assert abs(rate - declared[name]) <= 1e-12, name
