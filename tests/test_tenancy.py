"""Multi-tenant allocation engine: groups, kernels, round-trips, fairness.

Covers the vectorised allocation engine end to end:

* ``TenantGroup``/``TenantRegistry`` validation and JSON round-trips,
  including the derived-``queries`` rule on :class:`SystemConfig`;
* bit-identity of the columnar flat kernels against the historical scalar
  references (which also pins the sort+cumsum+searchsorted rewrite of
  ``_disable_largest_min_demands`` to the old O(n^2) loop's decisions);
* the shared ``(min_cycles, name)`` tie-break between
  ``game.active_players`` and the allocator's disable rule;
* Hypothesis property suites for ``_water_fill`` and the two-tier tenant
  kernel (conservation, box constraints, max-min dominance, capacity
  monotonicity, vectorised == scalar reference);
* fairness guarantees at scale: no tenant starved below its floor, cheaters
  capped at the ``C/|Q|`` equilibrium payoff;
* tenant budgets surviving ``to_dict``/``from_dict``, checkpoint/restore,
  the sharded merge tier and 16-node fleet federation.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import game
from repro.experiments import runner
from oracles.allocation import (SCALAR_REFERENCE, QueryDemand,
                                two_tier_scalar)

from repro.core.fairness import (STRATEGIES, _water_fill, mmfs_cpu,
                                 name_ranks)
from repro.core.tenancy import (TenantAssignment, TenantGroup, TenantRegistry,
                                parse_tenant_groups, two_tier_allocate)
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.config import SystemConfig
from repro.monitor.metrics import accuracy_from_error, mean_error
from repro.monitor.sharding import ShardedSystem
from repro.serve import MonitorDaemon, ReplayFeed
from repro.serve.checkpoint import capture, restore_session
from repro.testing import assert_results_identical
from tests.conftest import cycles_of

TENANTS = (
    TenantGroup(name="ops",
                queries=(("counter", {"name": "c0"}),
                         ("flows", {"name": "f0"})),
                weight=2.0, min_rate=0.05),
    TenantGroup(name="research",
                queries=(("top-k", {"name": "t0"}),
                         ("application", {"name": "a0"})),
                budget_share=0.5),
)


def _tenant_config(**overrides):
    kwargs = dict(mode="predictive", strategy="mmfs_cpu", tenants=TENANTS,
                  cycles_per_second=2.0e7, seed=5)
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def _columns(n, seed, tie_fraction=0.3):
    """Random demand columns with deliberate ties in both columns."""
    rng = np.random.default_rng(seed)
    predicted = rng.uniform(1e2, 1e6, n)
    ties = rng.random(n) < tie_fraction
    predicted[ties] = np.round(predicted[ties], -3)
    min_rates = np.where(rng.random(n) < 0.4,
                         rng.choice([0.0, 0.1, 0.25], size=n), 0.0)
    names = [f"q{i:04d}" for i in rng.permutation(n)]
    return names, predicted, min_rates


# ----------------------------------------------------------------------
# TenantGroup / registry / config round-trips
# ----------------------------------------------------------------------
class TestTenantGroups:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            TenantGroup(name="")
        with pytest.raises(ValueError, match="weight"):
            TenantGroup(name="t", weight=0.0)
        with pytest.raises(ValueError, match="budget_share"):
            TenantGroup(name="t", budget_share=1.5)
        with pytest.raises(ValueError, match="min_rate"):
            TenantGroup(name="t", min_rate=-0.1)
        with pytest.raises(ValueError, match="duplicate tenant"):
            parse_tenant_groups([TenantGroup(name="t"),
                                 TenantGroup(name="t")])
        with pytest.raises(ValueError, match="belongs to both"):
            parse_tenant_groups([
                TenantGroup(name="a", queries=("counter",)),
                TenantGroup(name="b", queries=("counter",))])

    def test_group_round_trips_through_dict(self):
        for group in TENANTS:
            again = TenantGroup.from_dict(
                json.loads(json.dumps(group.to_dict())))
            assert again == group
        with pytest.raises(ValueError, match="unknown tenant group keys"):
            TenantGroup.from_dict({"name": "t", "wieght": 2.0})

    def test_registry_columns(self):
        registry = TenantRegistry(TENANTS)
        assert registry.declared and registry.names == ["ops", "research"]
        assert registry.weight[registry.slot("ops")] == 2.0
        assert registry.min_rate_for("c0") == 0.05
        assert registry.min_rate_for("t0") == 0.0
        caps = registry.capacity_caps(100.0)
        assert caps[registry.slot("ops")] == np.inf
        assert caps[registry.slot("research")] == 50.0
        # Implicit singleton tenants for unowned queries, stable slots.
        slot = registry.assign("stray")
        assert registry.assign("stray") == slot
        assert "stray" not in registry.declared_tenant_of

    def test_config_derives_queries_from_tenants(self):
        config = _tenant_config()
        assert [spec.instance_name for spec in config.queries] == \
            ["c0", "f0", "t0", "a0"]

    def test_config_rejects_disagreeing_queries(self):
        with pytest.raises(ValueError, match="queries and tenants disagree"):
            _tenant_config(queries=("counter",))

    def test_config_accepts_matching_queries(self):
        derived = _tenant_config().queries
        config = _tenant_config(queries=derived)
        assert config.tenants == TENANTS

    def test_config_round_trips_with_tenants(self):
        config = _tenant_config()
        again = SystemConfig.from_dict(json.loads(json.dumps(
            config.to_dict())))
        assert again == config
        assert again.tenants == TENANTS


# ----------------------------------------------------------------------
# Columnar kernels == scalar references, bit for bit
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    """The array kernels must reproduce the historical per-object scalar
    strategies *exactly* — same floats, same disable decisions — which also
    pins the sort+cumsum+searchsorted ``_disable_largest_min_demands`` to
    the old quadratic loop."""

    @pytest.mark.parametrize("key", sorted(STRATEGIES))
    @pytest.mark.parametrize("n", [1, 7, 137, 500])
    def test_kernel_matches_scalar_reference(self, key, n):
        names, predicted, min_rates = _columns(n, seed=n)
        demands = [QueryDemand(names[i], float(predicted[i]),
                               float(min_rates[i])) for i in range(n)]
        total = float(predicted.sum())
        for capacity in (0.0, 0.05 * total, 0.4 * total, 2.0 * total):
            reference = SCALAR_REFERENCE[key](demands, capacity)
            kernel = STRATEGIES[key](names, predicted, min_rates,
                                           capacity,
                                           rank=name_ranks(names))
            assert kernel.rates == reference.rates
            assert cycles_of(kernel) == reference.cycles
            assert kernel.disabled == reference.disabled
            assert kernel.total_cycles == sum(reference.cycles.values())

    def test_disable_rule_under_extreme_floors(self):
        # Floors alone exceed capacity: the disable loop does all the work.
        n = 64
        names = [f"q{i:02d}" for i in range(n)]
        predicted = np.full(n, 1000.0)
        min_rates = np.ones(n)
        demands = [QueryDemand(names[i], 1000.0, 1.0) for i in range(n)]
        for capacity in (500.0, 1000.0, 17_500.0, 63_999.0):
            for key in STRATEGIES:
                reference = SCALAR_REFERENCE[key](demands, capacity)
                kernel = STRATEGIES[key](names, predicted, min_rates,
                                               capacity)
                assert kernel.rates == reference.rates
                assert kernel.disabled == reference.disabled


# ----------------------------------------------------------------------
# Shared tie-break between the game and the allocator
# ----------------------------------------------------------------------
class TestTieBreakConsistency:
    def test_game_and_allocator_disable_the_same_queries(self):
        # Nine players with identical demands and binding floors; capacity
        # admits exactly four.  Both code paths must keep the four
        # lexicographically smallest names.
        rng = np.random.default_rng(8)
        names = [f"q{i}" for i in rng.permutation(9)]
        demand = 100.0
        capacity = 4 * demand + 1.0
        mask = game.active_players([demand] * 9, capacity, names=names)
        from_game = {names[i] for i in np.flatnonzero(mask)}
        allocation = mmfs_cpu(names, np.full(9, demand), np.ones(9),
                              capacity)
        from_allocator = set(names) - set(allocation.disabled)
        assert from_game == from_allocator == set(sorted(names)[:4])

    def test_boundary_is_stable_across_orderings(self):
        demand = 50.0
        capacity = 2 * demand  # exactly two fit
        for ordering in (["b", "a", "c"], ["c", "b", "a"], ["a", "b", "c"]):
            mask = game.active_players([demand] * 3, capacity,
                                       names=ordering)
            assert {ordering[i] for i in np.flatnonzero(mask)} == {"a", "b"}
            allocation = mmfs_cpu(ordering, np.full(3, demand), np.ones(3),
                                  capacity)
            assert allocation.disabled == ["c"]


# ----------------------------------------------------------------------
# Hypothesis: _water_fill properties
# ----------------------------------------------------------------------
def _boxes(draw, size):
    floors = np.array(draw(st.lists(
        st.floats(0.0, 1e4), min_size=size, max_size=size)))
    spans = np.array(draw(st.lists(
        st.floats(0.0, 1e4), min_size=size, max_size=size)))
    weights = np.array(draw(st.lists(
        st.floats(0.1, 8.0), min_size=size, max_size=size)))
    return floors, floors + spans, weights


@st.composite
def water_fill_cases(draw):
    size = draw(st.integers(1, 20))
    floors, ceilings, weights = _boxes(draw, size)
    fraction = draw(st.floats(0.0, 1.5))
    capacity = fraction * float((weights * ceilings).sum())
    return floors, ceilings, weights, capacity


class TestWaterFillProperties:
    @given(water_fill_cases())
    @settings(deadline=None, max_examples=80)
    def test_box_conservation_and_common_level(self, case):
        floors, ceilings, weights, capacity = case
        filled = _water_fill(floors, ceilings, weights, capacity)
        tol = 1e-6 * max(1.0, float(ceilings.max()))
        assert np.all(filled >= floors - tol)
        assert np.all(filled <= ceilings + tol)
        used = float((weights * filled).sum())
        min_total = float((weights * floors).sum())
        max_total = float((weights * ceilings).sum())
        if capacity >= max_total:
            np.testing.assert_allclose(filled, ceilings)
        elif capacity <= min_total:
            np.testing.assert_allclose(filled, floors)
        else:
            # Binding capacity is exhausted to bisection tolerance.
            assert abs(used - capacity) <= \
                1e-6 * max(1.0, capacity) + len(filled) * tol
        # Max-min dominance: a strictly poorer element is capped by its own
        # ceiling, or the richer one is propped up by its floor.
        for i in range(len(filled)):
            for j in range(len(filled)):
                if filled[i] < filled[j] - tol:
                    assert (filled[i] >= ceilings[i] - tol or
                            filled[j] <= floors[j] + tol)

    @given(water_fill_cases(), st.floats(1.01, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_capacity_monotonicity(self, case, growth):
        floors, ceilings, weights, capacity = case
        tol = 1e-6 * max(1.0, float(ceilings.max()))
        smaller = _water_fill(floors, ceilings, weights, capacity)
        larger = _water_fill(floors, ceilings, weights, capacity * growth)
        assert np.all(larger >= smaller - tol)


# ----------------------------------------------------------------------
# Hypothesis: two-tier tenant kernel vs scalar reference
# ----------------------------------------------------------------------
@st.composite
def tenanted_cases(draw):
    n_queries = draw(st.integers(1, 24))
    n_tenants = draw(st.integers(1, 5))
    # Zero demand is a real case; sub-milli magnitudes only probe float
    # underflow in the per-weight divisions, which both implementations
    # share by construction.
    predicted = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
        min_size=n_queries, max_size=n_queries)))
    min_rates = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n_queries, max_size=n_queries)))
    ids = np.array(draw(st.lists(
        st.integers(0, n_tenants - 1),
        min_size=n_queries, max_size=n_queries)), dtype=np.intp)
    groups = tuple(
        TenantGroup(
            name=f"t{slot}",
            weight=draw(st.floats(0.2, 5.0)),
            budget_share=draw(st.one_of(st.none(), st.floats(0.1, 1.0))))
        for slot in range(n_tenants))
    fraction = draw(st.floats(0.0, 1.2))
    capacity = fraction * (float(predicted.sum()) + 1.0)
    packet_fair = draw(st.booleans())
    names = [f"q{i:03d}" for i in range(n_queries)]
    return names, predicted, min_rates, ids, groups, capacity, packet_fair


def _ceiling_case(packet_fair):
    """A case where more capacity swaps the disabled set.

    t0's ``budget_share=0.375`` ceiling (3453 cycles at this capacity)
    blocks q005's floor demand of 4302; 1.25x the capacity lifts the
    ceiling over it, and q005 then displaces the larger floor of q001
    (7601): {q005, q012} -> {q001, q012}.
    """
    predicted = np.array([0.0, 7601.0, 0.0, 0.0, 0.0, 8604.0, 0.0, 0.0, 0.0,
                          0.0, 0.0, 0.001, 8351.0])
    min_rates = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.25,
                          1.0, 1.0, 1.0])
    ids = np.array([3, 3, 4, 3, 4, 0, 4, 4, 4, 4, 4, 4, 4], dtype=np.intp)
    groups = tuple(
        TenantGroup(name=f"t{slot}", weight=weight,
                    budget_share=0.375 if slot == 0 else None)
        for slot, weight in enumerate((5.0, 5.0, 1.0, 1.0, 1.0)))
    names = [f"q{i:03d}" for i in range(len(predicted))]
    return names, predicted, min_rates, ids, groups, 9208.875375, packet_fair


class TestTwoTierProperties:
    @given(tenanted_cases())
    @settings(deadline=None, max_examples=60)
    def test_vectorised_matches_scalar_reference(self, case):
        names, predicted, min_rates, ids, groups, capacity, packet_fair = \
            case
        registry = TenantRegistry(groups)
        kernel = two_tier_allocate(names, predicted, min_rates, ids,
                                   registry, capacity,
                                   packet_fair=packet_fair)
        scalar = two_tier_scalar(names, predicted, min_rates, ids, registry,
                                 capacity, packet_fair=packet_fair)
        assert set(kernel.disabled) == set(scalar.disabled)
        for name in names:
            assert kernel.rates[name] == pytest.approx(scalar.rates[name],
                                                       abs=1e-4)

    @given(tenanted_cases())
    @settings(deadline=None, max_examples=60)
    def test_disable_decisions_equal_the_reference_exactly(self, case):
        names, predicted, min_rates, ids, groups, capacity, packet_fair = \
            case
        registry = TenantRegistry(groups)
        # As drawn, with no capacity at all, and with floors that cannot
        # fit (everybody insists on a full rate of a tenth of the demand).
        for floors, budget in ((min_rates, capacity), (min_rates, 0.0),
                               (min_rates, -1.0),
                               (np.ones(len(names)),
                                0.1 * float(predicted.min()))):
            kernel = two_tier_allocate(names, predicted, floors, ids,
                                       registry, budget,
                                       packet_fair=packet_fair)
            scalar = two_tier_scalar(names, predicted, floors, ids, registry,
                                     budget, packet_fair=packet_fair)
            assert kernel.disabled == scalar.disabled
            if len(scalar.disabled) == len(names):
                assert kernel.rates == scalar.rates
                assert cycles_of(kernel) == scalar.cycles
                assert kernel.total_cycles == 0.0
                assert (kernel.tenant_shares or {}) == \
                    (scalar.tenant_shares or {})

    @given(tenanted_cases())
    @settings(deadline=None, max_examples=60)
    def test_conservation_floors_and_budget_caps(self, case):
        names, predicted, min_rates, ids, groups, capacity, packet_fair = \
            case
        registry = TenantRegistry(groups)
        allocation = two_tier_allocate(names, predicted, min_rates, ids,
                                       registry, capacity,
                                       packet_fair=packet_fair)
        tol = 1e-6 * max(1.0, capacity)
        assert allocation.total_cycles <= capacity + tol
        disabled = set(allocation.disabled)
        caps = registry.capacity_caps(capacity)
        used_per_tenant = np.zeros(registry.size)
        for index, name in enumerate(names):
            rate = allocation.rates[name]
            assert 0.0 <= rate <= 1.0
            if name not in disabled:
                # Active queries never sample below their floor.
                assert rate >= min_rates[index] - 1e-9
                used_per_tenant[ids[index]] += rate * predicted[index]
        # Budget ceilings hold per tenant.
        assert np.all(used_per_tenant <= caps + tol)

    @given(tenanted_cases(), st.floats(1.05, 3.0))
    @example(_ceiling_case(packet_fair=False), 1.25)
    @example(_ceiling_case(packet_fair=True), 1.25)
    @settings(deadline=None, max_examples=40)
    def test_capacity_monotonicity(self, case, growth):
        names, predicted, min_rates, ids, groups, capacity, packet_fair = \
            case
        registry = TenantRegistry(groups)
        small = two_tier_allocate(names, predicted, min_rates, ids,
                                  registry, capacity,
                                  packet_fair=packet_fair)
        large = two_tier_allocate(names, predicted, min_rates, ids,
                                  registry, capacity * growth,
                                  packet_fair=packet_fair)
        # More capacity never disables more queries: the kept prefix of the
        # smallest floor demands only grows, even when a ceiling lets a new
        # query in.
        assert len(large.disabled) <= len(small.disabled)
        if all(group.budget_share is None for group in groups):
            # Without a ceiling no query gets in, so the set only shrinks.
            # A budget_share ceiling grows with the capacity and can admit a
            # query it blocked, which then displaces a larger floor demand.
            assert set(large.disabled) <= set(small.disabled)

    @pytest.mark.parametrize("packet_fair", [False, True])
    def test_a_ceiling_lifted_by_capacity_swaps_the_disabled_set(
            self, packet_fair):
        names, predicted, min_rates, ids, groups, capacity, _ = \
            _ceiling_case(packet_fair)
        registry = TenantRegistry(groups)
        disabled = [set(two_tier_allocate(names, predicted, min_rates, ids,
                                          registry, budget,
                                          packet_fair=packet_fair).disabled)
                    for budget in (capacity, capacity * 1.25)]
        assert disabled == [{"q005", "q012"}, {"q001", "q012"}]


# ----------------------------------------------------------------------
# Fairness guarantees at scale
# ----------------------------------------------------------------------
class TestFairnessAtScale:
    def test_no_tenant_starved_below_its_floor(self):
        rng = np.random.default_rng(11)
        n_queries, n_tenants = 400, 40
        names = [f"q{i:04d}" for i in range(n_queries)]
        groups = tuple(
            TenantGroup(
                name=f"tenant-{slot:02d}",
                queries=tuple(("counter", {"name": member})
                              for member in names[slot::n_tenants]),
                weight=float(1 + slot % 4),
                min_rate=0.02,
                budget_share=(0.5 if slot % 7 == 0 else None))
            for slot in range(n_tenants))
        registry = TenantRegistry(groups)
        ids = np.array([registry.slot(registry.declared_tenant_of[name])
                        for name in names], dtype=np.intp)
        predicted = rng.uniform(1e3, 1e5, n_queries)
        min_rates = np.array([registry.min_rate_for(name)
                              for name in names])
        # Severe overload, but the floors fit: nobody may be disabled and
        # every query keeps at least its tenant's guaranteed rate.
        capacity = 0.15 * float(predicted.sum())
        assert float((min_rates * predicted).sum()) < capacity
        allocation = TenantAssignment(registry, ids).allocate(
            "mmfs_cpu", names, predicted, min_rates, capacity)
        assert allocation.disabled == []
        rates = np.array([allocation.rates[name] for name in names])
        assert np.all(rates >= 0.02 - 1e-9)
        assert allocation.total_cycles <= capacity * (1 + 1e-9)
        assert set(allocation.tenant_shares) == set(registry.names)

    def test_inflated_minimum_demand_is_disabled_first(self):
        # Section 5.2.1: when floors exceed capacity, the largest minimum
        # demands go first — inflating your floor ejects you, it does not
        # crowd out honest queries.
        names = [f"q{i}" for i in range(20)] + ["cheater"]
        predicted = np.full(21, 1000.0)
        predicted[-1] = 50_000.0
        min_rates = np.full(21, 0.5)
        min_rates[-1] = 1.0
        capacity = 12_000.0  # honest floors: 21 * 500; cheater floor: 50k
        allocation = STRATEGIES["mmfs_cpu"](list(names), predicted,
                                                  min_rates, capacity)
        assert "cheater" in allocation.disabled
        assert set(allocation.disabled) == {"cheater"}

    def test_cheater_capped_at_equilibrium_payoff(self):
        # Section 5.3: against |Q|-1 players at the C/|Q| equilibrium, no
        # demand earns more than C/|Q|, and overbidding earns zero.
        n, capacity = 200, 1.0e6
        fair = capacity / n
        others = np.full(n - 1, fair)
        assert game.payoff_of(0, fair * 1.5, others, capacity) == 0.0
        _, best_payoff = game.best_response(0, others, capacity)
        assert best_payoff <= fair * (1 + 1e-6)
        profile = game.equilibrium_profile(n, capacity)
        assert game.is_nash_equilibrium(profile, capacity)


# ----------------------------------------------------------------------
# Tenant budgets through the system: sessions, checkpoints, shards, fleet
# ----------------------------------------------------------------------
class TestTenantsThroughTheSystem:
    def test_session_accounts_cycles_per_tenant(self, small_trace):
        config = _tenant_config()
        session = config.build().open_session(time_bin=0.2)
        for batch in small_trace.batch_list(0.2):
            session.ingest(batch)
        metrics = session.metrics
        assert metrics["tenants"]["count"] == 2
        result = session.close()
        totals = result.tenant_cycle_totals()
        assert set(totals) <= {"ops", "research"}
        by_query = {}
        for record in result.bins:
            for name, cycles in record.query_cycles_by_query.items():
                by_query[name] = by_query.get(name, 0.0) + cycles
        expected_ops = by_query.get("c0", 0.0) + by_query.get("f0", 0.0)
        assert totals.get("ops", 0.0) == pytest.approx(expected_ops)

    def test_tenants_survive_checkpoint_restore(self, small_trace):
        config = _tenant_config()
        bins = small_trace.batch_list(0.2)
        half = len(bins) // 2
        uninterrupted = config.build().run(small_trace, time_bin=0.2)

        session = config.build().open_session(time_bin=0.2)
        for batch in bins[:half]:
            session.ingest(batch)
        state = pickle.loads(pickle.dumps(capture(session)))
        session.close()
        restored = restore_session(state)
        assert restored.system.config.tenants == TENANTS
        for batch in bins[half:]:
            restored.ingest(batch)
        resumed = restored.close()
        assert_results_identical(resumed, uninterrupted)
        assert resumed.tenant_cycle_totals() == \
            uninterrupted.tenant_cycle_totals()

    def test_tenants_survive_sharded_merge(self, small_trace):
        config = _tenant_config(num_shards=4)
        sharded = ShardedSystem(config=config, n_workers=1,
                                respect_cores=False, backend="inprocess")
        session = sharded.open_session(time_bin=0.2)
        for batch in small_trace.batch_list(0.2):
            session.ingest(batch)
        metrics = session.metrics
        assert metrics["tenants"]["count"] == 2
        result = session.close()
        totals = result.tenant_cycle_totals()
        assert set(totals) <= {"ops", "research"}
        # Merged tenant accounting is consistent with merged query cycles.
        by_query = {}
        for record in result.bins:
            for name, cycles in record.query_cycles_by_query.items():
                by_query[name] = by_query.get(name, 0.0) + cycles
        assert totals.get("research", 0.0) == pytest.approx(
            by_query.get("t0", 0.0) + by_query.get("a0", 0.0))

    def test_tenants_survive_fleet_federation(self, small_trace):
        config = _tenant_config()
        fleet = FleetRunner(FleetTopology.uniform(16), config=config,
                            backend="inprocess")
        result = fleet.run(small_trace, time_bin=0.5)
        federated = result.federated.tenant_cycle_totals()
        assert set(federated) <= {"ops", "research"}
        summed = {}
        for node_result in result.node_results:
            for tenant, cycles in node_result.tenant_cycle_totals().items():
                summed[tenant] = summed.get(tenant, 0.0) + cycles
        assert set(summed) == set(federated)
        for tenant, cycles in federated.items():
            assert cycles == pytest.approx(summed[tenant])

    def test_accuracy_of_renamed_instances_goes_by_kind(self, small_trace):
        """``c0``/``f0``/``t0``/``a0`` say nothing about their kind, so the
        accuracy helpers take the name -> kind map the config defines; the
        fleet report and the daemon's status pass their own config's."""
        config = _tenant_config()
        kinds = config.query_kinds()
        assert kinds == {"c0": "counter", "f0": "flows", "t0": "top-k",
                         "a0": "application"}
        reference = config.replace(mode="reference").build().run(
            small_trace, time_bin=0.1)
        result = config.build().run(small_trace, time_bin=0.1)
        with pytest.raises(KeyError, match="no accuracy metric"):
            runner.accuracy_by_query(result, reference)

        errors = runner.error_by_query(result, reference, kinds)
        accuracy = runner.accuracy_by_query(result, reference, kinds)
        assert set(errors) == set(accuracy) == set(kinds)
        for name, kind in kinds.items():
            assert errors[name] == mean_error(
                kind, result.query_logs[name], reference.query_logs[name])
            assert accuracy[name] == accuracy_from_error(errors[name])
            series = runner.accuracy_series(result, reference, name, kinds)
            assert len(series) == len(reference.query_logs[name])
        # Names the map does not list still resolve by the <kind>[-N] rule.
        plain = SystemConfig(queries="counter,flows", seed=5)
        plain_result = plain.build().run(small_trace, time_bin=0.1)
        assert set(runner.accuracy_by_query(plain_result, plain_result,
                                            kinds)) == {"counter", "flows"}

        fleet = FleetRunner(FleetTopology.uniform(2), config=config,
                            backend="inprocess").run(small_trace,
                                                     time_bin=0.1)
        report = fleet.report(reference)
        assert set(report["accuracy"]) == set(kinds)
        assert set(report["accuracy_per_bin"]) == set(kinds)

        daemon = MonitorDaemon(config, ReplayFeed(small_trace, time_bin=0.1),
                               reference=reference)
        for batch in small_trace.batch_list(0.1)[:15]:
            daemon.session.ingest(batch)
        status = daemon.status()
        daemon.session.close()
        assert all("accuracy_so_far" in status["queries"][name]
                   for name in kinds)
