"""Multi-tenant allocation: tenant groups, registry, two-tier water fill.

The paper's Chapter 5 strategies treat every query as its own principal.
Production monitoring is multi-tenant: a tenant owns *many* queries and the
operator provisions budgets per tenant, not per query.  This module adds
that layer:

* :class:`TenantGroup` — a declarative, JSON-round-tripping group of
  :class:`~repro.queries.QuerySpec` members with a fair-share ``weight``, an
  optional ``budget_share`` ceiling (fraction of the bin capacity) and a
  ``min_rate`` sampling floor applied to every member.
* :class:`TenantRegistry` — columnar per-tenant state (weights, ceilings,
  floors in preallocated arrays) plus the query→tenant membership map.
  Queries outside any declared group become implicit single-query tenants,
  which makes the untenanted system a degenerate case of the tenanted one.
* :func:`two_tier_allocate` — the columnar two-tier max-min fair kernel:
  tier 1 water-fills cycle shares *across tenants* (weighted, between each
  tenant's aggregate floor and its capped aggregate demand), tier 2
  water-fills *within* each tenant's share across its queries, all tenants
  bisected simultaneously with one ``np.bincount`` per iteration.

When even the floors do not fit, queries are disabled largest minimum
demand first — inside each over-committed tenant first (against its own
ceiling), then globally (against the bin capacity) — using the same
``(min_cycles, name)`` priority as the flat allocator, so the anti-cheating
property of Section 5.2.1 carries over to tenants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fairness import (STRATEGIES, Allocation, _validate_columns,
                       _water_fill, all_disabled, name_ranks)

__all__ = [
    "TenantGroup", "parse_tenant_groups", "TenantRegistry",
    "TenantAssignment", "two_tier_allocate",
]


@dataclass(frozen=True)
class TenantGroup:
    """A named tenant owning a set of query specs and a fairness contract.

    ``weight`` scales the tenant's fair share in the tier-1 water fill
    (twice the weight, twice the cycles at equal contention).
    ``budget_share`` is an optional ceiling: the tenant can never be
    allocated more than that fraction of the bin capacity.  ``min_rate`` is
    a sampling-rate floor folded into every member query's effective
    minimum sampling rate.  Groups canonicalise and round-trip through
    ``to_dict``/``from_dict`` exactly like :class:`~repro.queries.QuerySpec`.
    """

    name: str
    queries: Tuple[Any, ...] = ()
    weight: float = 1.0
    budget_share: Optional[float] = None
    min_rate: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("tenant name must be a non-empty string")
        from ..queries import parse_query_specs
        object.__setattr__(self, "queries", parse_query_specs(self.queries))
        try:
            weight = float(self.weight)
        except (TypeError, ValueError):
            raise ValueError(
                f"tenant {self.name!r}: weight must be a number, "
                f"got {self.weight!r}") from None
        if not weight > 0.0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be positive, "
                f"got {weight!r}")
        object.__setattr__(self, "weight", weight)
        if self.budget_share is not None:
            try:
                share = float(self.budget_share)
            except (TypeError, ValueError):
                raise ValueError(
                    f"tenant {self.name!r}: budget_share must be a number "
                    f"or None, got {self.budget_share!r}") from None
            if not 0.0 < share <= 1.0:
                raise ValueError(
                    f"tenant {self.name!r}: budget_share must be in "
                    f"(0, 1], got {share!r}")
            object.__setattr__(self, "budget_share", share)
        try:
            floor = float(self.min_rate)
        except (TypeError, ValueError):
            raise ValueError(
                f"tenant {self.name!r}: min_rate must be a number, "
                f"got {self.min_rate!r}") from None
        if not 0.0 <= floor <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: min_rate must be in [0, 1], "
                f"got {floor!r}")
        object.__setattr__(self, "min_rate", floor)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "queries": [spec.to_dict() for spec in self.queries],
            "weight": self.weight,
            "budget_share": self.budget_share,
            "min_rate": self.min_rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantGroup":
        if not isinstance(data, dict):
            raise TypeError(f"tenant group must be a dict, got {data!r}")
        allowed = {"name", "queries", "weight", "budget_share", "min_rate"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(
                f"unknown tenant group keys {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}")
        if "name" not in data:
            raise ValueError("tenant group requires a 'name'")
        return cls(name=data["name"],
                   queries=tuple(data.get("queries", ())),
                   weight=data.get("weight", 1.0),
                   budget_share=data.get("budget_share"),
                   min_rate=data.get("min_rate", 0.0))

    @classmethod
    def parse(cls, value: Any) -> "TenantGroup":
        if isinstance(value, TenantGroup):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(
            f"cannot parse tenant group from {value!r}; "
            f"expected TenantGroup or dict")


def parse_tenant_groups(groups: Optional[Iterable[Any]]
                        ) -> Tuple[TenantGroup, ...]:
    """Canonicalise an iterable of tenant groups (or dicts) to a tuple.

    Validates that tenant names are unique and that no query instance name
    belongs to more than one tenant.
    """
    if groups is None:
        return ()
    parsed = tuple(TenantGroup.parse(group) for group in groups)
    seen_tenants: Dict[str, int] = {}
    seen_queries: Dict[str, str] = {}
    for group in parsed:
        if group.name in seen_tenants:
            raise ValueError(f"duplicate tenant name {group.name!r}")
        seen_tenants[group.name] = 1
        for spec in group.queries:
            owner = seen_queries.get(spec.instance_name)
            if owner is not None:
                raise ValueError(
                    f"query {spec.instance_name!r} belongs to both "
                    f"tenants {owner!r} and {group.name!r}")
            seen_queries[spec.instance_name] = group.name
    return parsed


class TenantRegistry:
    """Columnar per-tenant state plus the query→tenant membership map.

    Tenant rows live in preallocated arrays (grown geometrically) indexed
    by a stable tenant slot, mirroring the query-slot table: the per-bin
    allocator gathers ``weight`` / ``budget_share`` / ``min_rate`` by slot
    without touching python objects.  Queries that are not members of any
    declared group are assigned an implicit single-query tenant on demand
    (weight 1, no ceiling, no floor), so mixed and fully implicit systems
    run through the same code path.
    """

    def __init__(self, groups: Iterable[Any] = ()) -> None:
        self.groups = parse_tenant_groups(groups)
        #: True when the operator declared tenant groups; implicit
        #: singleton tenants do not count.
        self.declared = bool(self.groups)
        self.names: List[str] = []
        self._slots: Dict[str, int] = {}
        capacity = max(4, len(self.groups))
        self.weight = np.ones(capacity, dtype=np.float64)
        self.budget_share = np.full(capacity, np.nan)
        self.min_rate = np.zeros(capacity, dtype=np.float64)
        self._members: Dict[str, str] = {}
        #: query instance name -> declared tenant name (accounting key;
        #: implicit singleton tenants are excluded on purpose).
        self.declared_tenant_of: Dict[str, str] = {}
        for group in self.groups:
            self._add_tenant(group.name, group.weight, group.budget_share,
                             group.min_rate)
            for spec in group.queries:
                self._members[spec.instance_name] = group.name
                self.declared_tenant_of[spec.instance_name] = group.name

    @property
    def size(self) -> int:
        return len(self.names)

    def slot(self, tenant_name: str) -> int:
        return self._slots[tenant_name]

    def _add_tenant(self, name: str, weight: float = 1.0,
                    budget_share: Optional[float] = None,
                    min_rate: float = 0.0) -> int:
        if name in self._slots:
            raise ValueError(f"duplicate tenant name {name!r}")
        slot = len(self.names)
        if slot >= len(self.weight):
            grown = len(self.weight) * 2
            for attr, fill in (("weight", 1.0), ("budget_share", np.nan),
                               ("min_rate", 0.0)):
                column = np.full(grown, fill)
                column[:slot] = getattr(self, attr)[:slot]
                setattr(self, attr, column)
        self.names.append(name)
        self._slots[name] = slot
        self.weight[slot] = float(weight)
        self.budget_share[slot] = \
            np.nan if budget_share is None else float(budget_share)
        self.min_rate[slot] = float(min_rate)
        return slot

    def assign(self, query_name: str) -> int:
        """Tenant slot for ``query_name``; creates an implicit singleton
        tenant for queries outside every declared group."""
        tenant = self._members.get(query_name)
        if tenant is None:
            tenant = query_name
            self._members[query_name] = tenant
        slot = self._slots.get(tenant)
        if slot is None:
            slot = self._add_tenant(tenant)
        return slot

    def min_rate_for(self, query_name: str) -> float:
        """The declared tenant floor for a query (0.0 when implicit)."""
        tenant = self.declared_tenant_of.get(query_name)
        if tenant is None:
            return 0.0
        return float(self.min_rate[self._slots[tenant]])

    def capacity_caps(self, capacity: float) -> np.ndarray:
        """Per-tenant cycle ceilings at the given bin capacity
        (``inf`` for uncapped tenants)."""
        shares = self.budget_share[:self.size]
        return np.where(np.isnan(shares), np.inf, shares * capacity)


@dataclass
class TenantAssignment:
    """Registry plus the tenant slot of each active query this bin."""

    registry: TenantRegistry
    ids: np.ndarray  # tenant slot per active query, aligned with columns

    def allocate(self, key: str, names: Sequence[str], predicted: np.ndarray,
                 min_rates: np.ndarray, capacity: float,
                 rank: Optional[np.ndarray] = None) -> Allocation:
        """Dispatch the strategy named ``key`` over the tenanted columns.

        The max-min strategies run the two-tier kernel.  Any other is
        tenant-agnostic — ``eq_srates`` by definition (one common rate for
        everyone): tenant floors still bind because they are folded into
        the effective per-query minimum rates, but budget ceilings and
        weights do not apply.
        """
        if key not in ("mmfs_cpu", "mmfs_pkt"):
            return STRATEGIES[key](names, predicted, min_rates, capacity,
                                   rank=rank)
        return two_tier_allocate(
            names, predicted, min_rates, self.ids, self.registry, capacity,
            packet_fair=(key == "mmfs_pkt"), rank=rank)


def _tenant_boxes(predicted: np.ndarray, min_rates: np.ndarray,
                  packet_fair: bool):
    """Per-query (floor, ceiling, weight) boxes for the requested fairness
    metric: rates for ``mmfs_pkt`` (cycle cost ``d_q`` per unit of rate),
    cycles for ``mmfs_cpu`` (unit cost)."""
    if packet_fair:
        return (min_rates.astype(np.float64, copy=True),
                np.ones(len(predicted)), predicted)
    return (min_rates * predicted, predicted.astype(np.float64, copy=True),
            np.ones(len(predicted)))


def two_tier_allocate(names: Sequence[str], predicted: np.ndarray,
                      min_rates: np.ndarray, tenant_ids: np.ndarray,
                      registry: TenantRegistry, capacity: float,
                      packet_fair: bool,
                      rank: Optional[np.ndarray] = None) -> Allocation:
    """Two-tier max-min fair allocation over tenanted demand columns.

    Tier 1 runs :func:`~repro.core.fairness._water_fill` across *tenants*
    (weighted by tenant weight, floors at each tenant's aggregate minimum
    cost, ceilings at its capped aggregate demand) to fix per-tenant cycle
    shares.  Tier 2 then water-fills each tenant's queries within its
    share; all tenants are bisected simultaneously, with each iteration
    charging every tenant's usage in a single ``np.bincount`` — the whole
    bin decision stays O(iterations · queries) array work with no python
    per-tenant loop.
    """
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return all_disabled(names)
    if rank is None:
        rank = name_ranks(names)
    tenant_ids = np.asarray(tenant_ids, dtype=np.intp)
    tenants = registry.size
    weights_t = registry.weight[:tenants]
    caps_t = registry.capacity_caps(capacity)

    floors, ceilings, costs = _tenant_boxes(predicted, min_rates, packet_fair)
    min_cost = costs * floors  # cycles each query consumes at its floor
    active = np.ones(count, dtype=bool)

    # Pass 1 — within-tenant feasibility: inside each tenant, disable the
    # largest minimum demands first until the tenant's floor cost fits its
    # budget ceiling.  Segmented cumsum over a (tenant, min_cost, name)
    # sort; the kept elements form a per-tenant prefix because min_cost is
    # non-negative.  Each segment is summed from zero: differencing one
    # global cumsum cancels a small tenant's floors against the tenants
    # sorted before it.  Singleton segments are their own sum, so only
    # tenants with several queries cost a python step.
    order = np.lexsort((rank, min_cost, tenant_ids))
    tenant_sorted = tenant_ids[order]
    within = min_cost[order]
    bounds = np.flatnonzero(np.diff(tenant_sorted)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [count]))
    for start, end in zip(starts[ends - starts > 1],
                          ends[ends - starts > 1]):
        within[start:end] = np.cumsum(within[start:end])
    active[order[within > caps_t[tenant_sorted]]] = False

    # Pass 2 — global feasibility: the flat Section 5.2.1 rule over the
    # survivors (same (min_cycles, name) priority as the untenanted path).
    alive = np.flatnonzero(active)
    if alive.size:
        flat_order = alive[np.lexsort((rank[alive], min_cost[alive]))]
        cumulative = np.cumsum(min_cost[flat_order])
        keep = int(np.searchsorted(cumulative, capacity, side="right"))
        active[flat_order[keep:]] = False
    alive = np.flatnonzero(active)
    if alive.size == 0:
        return all_disabled(names, tenant_shares={})

    at = tenant_ids[alive]
    floors_a = floors[alive]
    ceilings_a = ceilings[alive]
    costs_a = costs[alive]

    # Tier 1 — cycle shares across tenants.  Each tenant's box is
    # [aggregate floor cost, min(budget cap, aggregate demand)]; dividing
    # by the tenant weight turns the weighted fill into the standard
    # water-fill form (level = cycles per unit weight).
    tenant_floor = np.bincount(at, weights=costs_a * floors_a,
                               minlength=tenants)
    tenant_demand = np.bincount(at, weights=costs_a * ceilings_a,
                                minlength=tenants)
    tenant_ceiling = np.maximum(np.minimum(caps_t, tenant_demand),
                                tenant_floor)
    levels = _water_fill(tenant_floor / weights_t,
                         tenant_ceiling / weights_t,
                         weights_t, capacity)
    shares = weights_t * np.asarray(levels, dtype=np.float64).reshape(-1)

    # Tier 2 — water level inside each tenant's share, every tenant
    # bisected at once.  Trivial tenants (share covers demand, or share at
    # the floor) resolve without iterating.
    level_lo = np.full(tenants, np.inf)
    level_hi = np.full(tenants, -np.inf)
    np.minimum.at(level_lo, at, floors_a)
    np.maximum.at(level_hi, at, ceilings_a)
    present = np.zeros(tenants, dtype=bool)
    present[at] = True
    level = np.where(shares >= tenant_demand, level_hi, level_lo)
    needs_bisect = present & (shares < tenant_demand) & \
        (shares > tenant_floor)
    if needs_bisect.any():
        lo = np.where(needs_bisect, level_lo, 0.0)
        hi = np.where(needs_bisect, level_hi, 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            used = np.bincount(at,
                               weights=costs_a * np.clip(mid[at], floors_a,
                                                         ceilings_a),
                               minlength=tenants)
            over = used > shares
            hi = np.where(needs_bisect & over, mid, hi)
            lo = np.where(needs_bisect & ~over, mid, lo)
            if np.all(~needs_bisect |
                      (hi - lo < 1e-9 * np.maximum(1.0, hi))):
                break
        level = np.where(needs_bisect, lo, level)
    filled = np.clip(level[at], floors_a, ceilings_a)

    rates = np.zeros(count)
    if packet_fair:
        rates[alive] = filled
    else:
        pred_a = predicted[alive]
        with np.errstate(divide="ignore", invalid="ignore"):
            rates[alive] = np.where(pred_a > 0.0,
                                    np.minimum(1.0, filled / pred_a), 1.0)
    return Allocation(names, rates, rates * predicted, ~active,
                      tenant_shares={registry.names[slot]: float(shares[slot])
                                     for slot in np.flatnonzero(present)})
