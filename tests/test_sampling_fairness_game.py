"""Tests for sampling mechanisms, fairness strategies and the allocation game."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.allocation import SCALAR_REFERENCE, QueryDemand, columns
from repro.core import game
from repro.core.fairness import (STRATEGIES, Allocation, eq_srates, mmfs_cpu,
                                 mmfs_pkt)
from repro.core.sampling import FlowSampler, PacketSampler, scale_estimate
from repro.core.hashing import H3Hash, combine_columns, splitmix_stream
from tests.conftest import cycles_of, make_batch


class TestPacketSampler:
    def test_rate_one_keeps_everything(self, small_batch):
        sampler = PacketSampler(0)
        assert len(sampler.sample(small_batch, 1.0)) == len(small_batch)

    def test_rate_zero_keeps_nothing(self, small_batch):
        sampler = PacketSampler(0)
        assert len(sampler.sample(small_batch, 0.0)) == 0

    def test_expected_fraction(self):
        batch = make_batch(n=5000, seed=3)
        sampler = PacketSampler(1)
        kept = len(sampler.sample(batch, 0.3))
        assert abs(kept / 5000 - 0.3) < 0.05

    @given(key=st.integers(0, 2 ** 64 - 1),
           rate=st.floats(1e-9, 1.0, exclude_max=True),
           sizes=st.lists(st.integers(1, 300), min_size=1, max_size=4))
    def test_keeps_the_packets_whose_coin_is_below_the_rate(self, key, rate,
                                                            sizes):
        """Packet i of the packets a sampler draws for, counted across
        batches, is kept when the top 53 bits of stream output i, times
        2**-53, are below the rate."""
        sampler, drawn = PacketSampler(key), 0
        for size in sizes:
            batch = make_batch(n=size, seed=size)
            coins = splitmix_stream(key, drawn, size) >> np.uint64(11)
            keep = coins.astype(np.float64) * 2.0 ** -53 < rate
            kept = sampler.sample(batch, rate)
            assert np.array_equal(kept.ts, batch.ts[keep])
            drawn += size
        assert sampler.draws == drawn

    def test_a_generator_is_not_a_key(self):
        with pytest.raises(TypeError):
            PacketSampler(np.random.default_rng(0))
        with pytest.raises(TypeError):
            FlowSampler(np.random.default_rng(0))

    def test_invalid_rate(self, small_batch):
        sampler = PacketSampler()
        with pytest.raises(ValueError):
            sampler.sample(small_batch, float("nan"))

    def test_cost_positive(self, small_batch):
        assert PacketSampler().cost(small_batch) > 0


class TestFlowSampler:
    def test_flow_atomicity(self):
        batch = make_batch(n=2000, seed=5, n_hosts=30)
        sampler = FlowSampler(2)
        sampled = sampler.sample(batch, 0.5)
        kept_keys = set(combine_columns(sampled.columns(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto"))).tolist())
        all_keys = combine_columns(batch.columns(
            ("src_ip", "dst_ip", "src_port", "dst_port", "proto")))
        # Every packet of a kept flow must have been kept.
        expected = sum(1 for key in all_keys if int(key) in kept_keys)
        assert expected == len(sampled)

    def test_expected_flow_fraction(self):
        batch = make_batch(n=4000, seed=6, n_hosts=60)
        sampler = FlowSampler(3)
        sampled = sampler.sample(batch, 0.4)
        def flows(b):
            return len(np.unique(combine_columns(b.columns(
                ("src_ip", "dst_ip", "src_port", "dst_port", "proto")))))
        fraction = flows(sampled) / flows(batch)
        assert abs(fraction - 0.4) < 0.12

    def test_the_kth_hash_is_draw_k_of_the_stream(self):
        batch = make_batch(n=500, seed=8, n_hosts=40)
        sampler = FlowSampler(9)
        for draw in range(3):
            keys = batch.aggregate_hashes(
                ("src_ip", "dst_ip", "src_port", "dst_port", "proto"))
            keep = H3Hash(key=9, draw=draw).unit_interval(keys) < 0.5
            assert np.array_equal(sampler.sample(batch, 0.5).ts,
                                  batch.ts[keep])
            sampler.renew_hash()
        assert sampler.renewals == 3

    def test_hash_renewal_changes_selection(self):
        batch = make_batch(n=1000, seed=7, n_hosts=40)
        sampler = FlowSampler(4)
        first = sampler.sample(batch, 0.5)
        sampler.renew_hash()
        second = sampler.sample(batch, 0.5)
        assert len(first) != len(second) or \
            not np.array_equal(first.src_ip, second.src_ip)


class TestScaleEstimate:
    def test_inverse_scaling(self):
        assert scale_estimate(50, 0.5) == 100.0
        assert scale_estimate(50, 1.0) == 50.0
        assert scale_estimate(50, 0.0) == 0.0

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(deadline=None)
    def test_scale_monotone(self, rate, value):
        assert scale_estimate(value, rate) >= value - 1e-9


def _demands():
    return [
        QueryDemand("cheap", 100.0, 0.1),
        QueryDemand("medium", 500.0, 0.2),
        QueryDemand("heavy", 1000.0, 0.3),
    ]


def _allocate(strategy, demands, capacity):
    """``strategy`` over the columns of per-query ``demands``."""
    return strategy(*columns(demands), capacity)


class TestEqSrates:
    def test_no_overload_full_rates(self):
        allocation = _allocate(eq_srates, _demands(), capacity=10000.0)
        assert all(rate == 1.0 for rate in allocation.rates.values())

    def test_common_rate_under_overload(self):
        allocation = _allocate(eq_srates, _demands(), capacity=800.0)
        active_rates = {r for n, r in allocation.rates.items()
                        if n not in allocation.disabled}
        assert len(active_rates) == 1
        assert allocation.total_cycles <= 800.0 + 1e-6

    def test_disables_constrained_queries(self):
        demands = [QueryDemand("strict", 1000.0, 0.9),
                   QueryDemand("lenient", 1000.0, 0.0)]
        allocation = _allocate(eq_srates, demands, capacity=500.0)
        assert "strict" in allocation.disabled
        assert allocation.rates["lenient"] > 0

    def test_zero_capacity(self):
        allocation = _allocate(eq_srates, _demands(), capacity=0.0)
        assert set(allocation.disabled) == {"cheap", "medium", "heavy"}


@pytest.mark.parametrize("strategy", [mmfs_cpu, mmfs_pkt])
class TestMaxMinStrategies:
    def test_feasible_allocation(self, strategy):
        allocation = _allocate(strategy, _demands(), capacity=900.0)
        assert allocation.total_cycles <= 900.0 * (1 + 1e-6)
        for demand in _demands():
            rate = allocation.rates[demand.name]
            assert 0.0 <= rate <= 1.0
            if demand.name not in allocation.disabled:
                assert rate >= demand.min_sampling_rate - 1e-9

    def test_abundant_capacity_full_rates(self, strategy):
        allocation = _allocate(strategy, _demands(), capacity=1e9)
        assert all(rate == pytest.approx(1.0)
                   for rate in allocation.rates.values())

    def test_largest_min_demand_disabled_first(self, strategy):
        demands = [QueryDemand("big", 1000.0, 0.9),
                   QueryDemand("small", 100.0, 0.5)]
        allocation = _allocate(strategy, demands, capacity=200.0)
        assert "big" in allocation.disabled
        assert "small" not in allocation.disabled

    def test_zero_capacity_disables_all(self, strategy):
        allocation = _allocate(strategy, _demands(), capacity=0.0)
        assert len(allocation.disabled) == 3


class TestStrategySemantics:
    def test_mmfs_pkt_equalises_rates(self):
        demands = [QueryDemand("heavy", 1000.0, 0.0),
                   QueryDemand("light", 10.0, 0.0)]
        allocation = _allocate(mmfs_pkt, demands, capacity=505.0)
        assert allocation.rates["heavy"] == pytest.approx(
            allocation.rates["light"], rel=1e-3)

    def test_mmfs_cpu_equalises_cycles(self):
        demands = [QueryDemand("heavy", 1000.0, 0.0),
                   QueryDemand("light", 400.0, 0.0)]
        allocation = _allocate(mmfs_cpu, demands, capacity=600.0)
        assert cycles_of(allocation)["heavy"] == pytest.approx(
            cycles_of(allocation)["light"], rel=1e-3)

    def test_mmfs_pkt_min_rate_floor_respected(self):
        demands = [QueryDemand("constrained", 1000.0, 0.8),
                   QueryDemand("free", 1000.0, 0.0)]
        allocation = _allocate(mmfs_pkt, demands, capacity=1000.0)
        assert allocation.rates["constrained"] >= 0.8 - 1e-9

    def test_a_strategy_is_a_registered_name(self):
        assert STRATEGIES == {"eq_srates": eq_srates, "mmfs_cpu": mmfs_cpu,
                              "mmfs_pkt": mmfs_pkt}
        # Registering a kernel under a name is how a custom one is added.
        from repro.monitor.config import SystemConfig
        STRATEGIES["mine"] = eq_srates
        try:
            assert SystemConfig(strategy="mine").strategy == "mine"
        finally:
            del STRATEGIES["mine"]
        with pytest.raises(ValueError, match="valid strategies"):
            SystemConfig(strategy="mine")

    @given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e4),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=2e4))
    @settings(deadline=None)
    def test_allocations_always_feasible(self, specs, capacity):
        demands = [QueryDemand(f"q{i}", cycles, min_rate)
                   for i, (cycles, min_rate) in enumerate(specs)]
        for strategy in (eq_srates, mmfs_cpu, mmfs_pkt):
            allocation = _allocate(strategy, demands, capacity)
            assert allocation.total_cycles <= capacity * (1 + 1e-6) + 1e-6
            for demand in demands:
                rate = allocation.rates[demand.name]
                assert -1e-9 <= rate <= 1.0 + 1e-9
                if demand.name not in allocation.disabled:
                    assert rate >= demand.min_sampling_rate - 1e-6


@st.composite
def demand_columns(draw):
    """Columns built to hit the disable rule: few distinct values (ties the
    ``(min_cycles, name)`` order must break by name), floors that cannot
    all fit, shuffled names, and capacities at, below and beyond zero."""
    size = draw(st.integers(1, 12))
    cycles = st.sampled_from([0.0, 1.0, 250.0, 1000.0]) | \
        st.floats(0.0, 1e4, allow_nan=False)
    floors = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    predicted = np.array(draw(st.lists(cycles, min_size=size, max_size=size)))
    min_rates = np.array(draw(st.lists(floors, min_size=size, max_size=size)))
    names = [f"q{i}" for i in draw(st.permutations(range(size)))]
    capacity = draw(st.sampled_from([-1.0, 0.0]) |
                    st.floats(0.0, 1.5).map(
                        lambda share: share * float(predicted.sum())))
    return names, predicted, min_rates, capacity


class TestKernelsEqualTheOracle:
    """The three kernels against ``tests/oracles/allocation.py``: same
    floats, same disable decisions, strict ``==``."""

    @given(demand_columns(), st.sampled_from(sorted(STRATEGIES)))
    # A packet-fair water level weighs each rate by its query's cycles:
    # 0.5 here, 1.0 unweighted.
    @example((["q0", "q1"], np.array([100.0, 300.0]), np.zeros(2), 200.0),
             "mmfs_pkt")
    @settings(deadline=None, max_examples=150)
    def test_kernel_equals_scalar_reference(self, case, key):
        names, predicted, min_rates, capacity = case
        demands = [QueryDemand(name, float(cycles), float(floor))
                   for name, cycles, floor
                   in zip(names, predicted, min_rates)]
        reference = SCALAR_REFERENCE[key](demands, capacity)
        kernel = STRATEGIES[key](names, predicted, min_rates, capacity)
        assert kernel.rates == reference.rates
        assert cycles_of(kernel) == reference.cycles
        assert kernel.disabled == reference.disabled
        assert kernel.total_cycles == sum(reference.cycles.values())
        assert list(kernel.names) == names

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    def test_no_capacity_disables_everyone(self, key):
        names, predicted, min_rates = columns(_demands())
        for capacity in (0.0, -5.0):
            allocation = STRATEGIES[key](names, predicted, min_rates,
                                         capacity)
            assert allocation.disabled == names
            assert allocation.rates == dict.fromkeys(names, 0.0)
            assert allocation.total_cycles == 0.0

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    def test_columns_are_validated_by_the_kernel(self, key):
        names, predicted, min_rates = columns(_demands())
        with pytest.raises(ValueError, match="non-negative"):
            STRATEGIES[key](names, -predicted, min_rates, 100.0)
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            STRATEGIES[key](names, predicted, min_rates + 1.0, 100.0)


class TestGrownSlotTableAllocatesLikeTheOracle:
    """A system's demand table starts at 16 slots.  Eighteen queries grow
    it, a departure frees a slot and the next arrival recycles it; the
    columns the kernel is handed, gathered by slot, must still allocate
    exactly what the oracle allocates from the same demands — and those
    columns must still be each query's own."""

    KINDS = ("counter", "flows", "top-k", "application", "high-watermark",
             "autofocus")

    @pytest.fixture(scope="class")
    def eighteen(self, small_trace):
        """Eighteen query specs and the capacity they need unshed."""
        from repro.experiments import runner
        from repro.queries import QuerySpec
        specs = [QuerySpec(self.KINDS[i % len(self.KINDS)],
                           {"name": f"q{i:02d}"}) for i in range(18)]
        return specs, runner.calibrate_capacity(specs, small_trace)[0]

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    def test_every_bins_allocation_equals_the_oracle(self, key, small_trace,
                                                     eighteen, monkeypatch):
        from repro.experiments import runner
        from repro.queries import make_query
        specs, capacity = eighteen
        kernel, calls = STRATEGIES[key], []

        def recording(names, predicted, min_rates, capacity, rank=None):
            allocation = kernel(names, predicted, min_rates, capacity,
                                rank=rank)
            calls.append((list(names), predicted.copy(), min_rates.copy(),
                          capacity, rank.copy(), allocation))
            return allocation

        monkeypatch.setitem(STRATEGIES, key, recording)
        system = runner.system_config(
            strategy=key, queries=specs, seed=3,
            cycles_per_second=0.3 * capacity).build()
        table = system.demand_table
        assert len(table.names) == 32  # grown from 16
        freed = table._slot_of["q03"]
        session = system.open_session(time_bin=0.1)
        for index, batch in enumerate(small_trace.batch_list(0.1)[:28]):
            if index == 10:
                session.remove_query("q03")
            elif index == 20:
                session.add_query(make_query("flows", name="q18"))
            session.ingest(batch)
        session.close()
        assert table._slot_of["q18"] == freed  # recycled
        assert "q03" not in table._slot_of

        assert {len(names) for names, *_ in calls} == {17, 18}
        floors = {spec.instance_name: spec.build().minimum_sampling_rate
                  for spec in specs}
        floors["q18"] = make_query("flows").minimum_sampling_rate
        for names, predicted, min_rates, capacity, rank, allocation in calls:
            assert min_rates.tolist() == [floors[name] for name in names]
            assert [names[i] for i in np.argsort(rank)] == sorted(names)
            demands = [QueryDemand(name, float(cycles), float(floor))
                       for name, cycles, floor
                       in zip(names, predicted, min_rates)]
            reference = SCALAR_REFERENCE[key](demands, capacity)
            assert allocation.rates == reference.rates
            assert cycles_of(allocation) == reference.cycles
            assert allocation.disabled == reference.disabled


class TestAllocationIsAnImmutableValue:
    def _allocation(self, n=3):
        cycles = np.random.default_rng(n).uniform(0.0, 1e6, n)
        return Allocation([f"q{i}" for i in range(n)], np.full(n, 0.5),
                          cycles, np.zeros(n, dtype=bool))

    def test_nothing_can_be_assigned(self):
        allocation = self._allocation()
        for attr in ("rates", "cycles", "disabled", "names", "rate_array",
                     "tenant_shares", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(allocation, attr, {})
        for column in (allocation.rate_array, allocation.cycle_array,
                       allocation.disabled_mask):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert isinstance(allocation.names, tuple)
        assert len(Allocation.__slots__) <= 5

    def test_views_read_the_columns(self):
        allocation = self._allocation()
        assert allocation.rates == {"q0": 0.5, "q1": 0.5, "q2": 0.5}
        assert allocation.disabled == []
        assert allocation.tenant_shares is None
        # A view is a fresh dict: writing to it changes nothing.
        allocation.rates["q0"] = 0.0
        assert allocation.rates["q0"] == 0.5

    @pytest.mark.parametrize("n", range(1, 65))
    def test_total_cycles_is_the_left_to_right_sum(self, n):
        allocation = self._allocation(n)
        assert allocation.total_cycles == \
            float(sum(cycles_of(allocation).values()))


class TestGame:
    def test_equal_share_is_nash(self):
        profile = game.equilibrium_profile(3, 9.0)
        assert game.is_nash_equilibrium(profile, 9.0, grid=200)

    def test_greedy_profile_is_not_nash(self):
        assert not game.is_nash_equilibrium([9.0, 9.0, 9.0], 9.0, grid=200)

    def test_payoffs_disable_largest(self):
        payoffs = game.payoffs([2.0, 5.0, 6.0], capacity=10.0)
        assert payoffs[2] == 0.0           # largest demand disabled
        assert payoffs[0] > 2.0            # gets its demand plus spare
        assert payoffs[1] > 5.0

    def test_payoffs_negative_rejected(self):
        with pytest.raises(ValueError):
            game.payoffs([-1.0], 1.0)

    def test_best_response_dynamics_converges(self):
        final, rounds, converged = game.best_response_dynamics(
            [0.2, 0.35], capacity=1.0, grid=100, max_rounds=200)
        assert converged
        assert np.allclose(final, [0.5, 0.5], atol=0.02)
