"""The object-per-query allocation strategies, kept as test oracles.

These are the pre-vectorisation implementations of the Chapter 5 strategies
(``eq_srates_scalar``, ``mmfs_cpu_scalar``, ``mmfs_pkt_scalar``, collected
in :data:`SCALAR_REFERENCE`) and the straightforward python form of the
two-tier tenant allocator (:func:`two_tier_scalar`: explicit per-tenant
loops, one water fill per tenant), as they stood in
``repro.core.fairness`` and ``repro.core.tenancy``.  The function bodies are
verbatim; they work on the oracle's own per-query :class:`QueryDemand`
tuples and fill in a plain :func:`_allocation` record of dicts.  The
kernels must reproduce the flat strategies exactly — same floats, same
disable decisions — and the two-tier reference to bisection tolerance
(``tests/test_tenancy.py``).  The kernels' helpers they call — the
water fill, the column checks, the tenant boxes and caps — are copied
verbatim too, so a fault in the product's cannot move the oracle with
it.  Test code only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from repro.core.tenancy import TenantRegistry


# ----------------------------------------------------------------------
# The kernels' helpers (verbatim from repro.core.fairness / .tenancy)
# ----------------------------------------------------------------------
def _validate_columns(predicted: np.ndarray, min_rates: np.ndarray) -> None:
    """Demands are non-negative, minimum sampling rates lie in [0, 1]."""
    if np.any(predicted < 0):
        raise ValueError("predicted_cycles must be non-negative")
    if np.any((min_rates < 0.0) | (min_rates > 1.0)):
        raise ValueError("min_sampling_rate must be in [0, 1]")


def _water_fill(floors: np.ndarray, ceilings: np.ndarray, weights: np.ndarray,
                capacity: float, tolerance: float = 1e-9) -> np.ndarray:
    """Max-min fair allocation with floors and ceilings.

    Finds the water level ``L`` such that ``x_i = clip(L, floor_i, ceil_i)``
    and ``sum(weights_i * x_i) == capacity`` (or every ``x_i`` is at its
    ceiling when capacity is abundant).  This is the unique max-min fair
    vector subject to the box constraints, the same solution produced by the
    progressive-filling algorithm of Section 5.2.3.
    """
    floors = np.asarray(floors, dtype=np.float64)
    ceilings = np.asarray(ceilings, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(ceilings < floors - tolerance):
        raise ValueError("every ceiling must be at least its floor")
    min_total = float((weights * floors).sum())
    max_total = float((weights * ceilings).sum())
    if capacity >= max_total:
        return ceilings.copy()
    if capacity <= min_total:
        return floors.copy()
    lo, hi = float(floors.min()), float(ceilings.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        used = float((weights * np.clip(mid, floors, ceilings)).sum())
        if used > capacity:
            hi = mid
        else:
            lo = mid
        if hi - lo < tolerance * max(1.0, hi):
            break
    return np.clip(lo, floors, ceilings)


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


def _capacity_caps(registry: TenantRegistry, capacity: float) -> np.ndarray:
    """Per-tenant cycle ceilings at the given bin capacity
    (``inf`` for uncapped tenants)."""
    shares = registry.budget_share[:registry.size]
    return np.where(np.isnan(shares), np.inf, shares * capacity)


class QueryDemand(NamedTuple):
    """Per-query inputs of the scalar strategies."""

    name: str
    predicted_cycles: float
    min_sampling_rate: float = 0.0

    @property
    def min_cycles(self) -> float:
        """Minimum cycle demand ``m_q * d_q``."""
        return self.min_sampling_rate * self.predicted_cycles


def columns(demands: Sequence[QueryDemand]):
    """The ``(names, predicted, min_rates)`` columns a kernel takes."""
    return ([demand.name for demand in demands],
            np.array([demand.predicted_cycles for demand in demands],
                     dtype=np.float64),
            np.array([demand.min_sampling_rate for demand in demands],
                     dtype=np.float64))


def _allocation(rates=None, cycles=None, disabled=None) -> SimpleNamespace:
    """What a scalar strategy fills in: per-name dicts, a disabled list."""
    return SimpleNamespace(rates=dict(rates or {}), cycles=dict(cycles or {}),
                           disabled=list(disabled or []), tenant_shares=None)


# ----------------------------------------------------------------------
# Disabling rule (Section 5.2.1)
# ----------------------------------------------------------------------
def _disable_largest_min_demands(demands: Sequence[QueryDemand],
                                 capacity: float) -> List[QueryDemand]:
    """Disable queries (largest ``m_q * d_q`` first) until the minimums fit.

    One sort + sequential cumsum + ``searchsorted`` instead of the
    historical loop that re-summed every remaining minimum per pop
    (``O(n log n)`` instead of ``O(n^2)``).  The kept prefix is bit-identical
    to the loop's: popping from the sorted tail means the survivors are
    always a prefix, and ``np.cumsum`` accumulates left-to-right exactly as
    the repeated python sums did, so the largest prefix whose cumulative
    minimum fits is the same set.
    """
    active = sorted(demands, key=lambda d: (d.min_cycles, d.name))
    if not active:
        return active
    cumulative = np.cumsum([demand.min_cycles for demand in active])
    keep = int(np.searchsorted(cumulative, capacity, side="right"))
    return active[:keep]


# ----------------------------------------------------------------------
# Scalar reference implementations (pre-vectorisation, kept verbatim)
# ----------------------------------------------------------------------
def eq_srates_scalar(demands: Sequence[QueryDemand],
                     capacity: float) -> SimpleNamespace:
    """The historical object-per-query ``eq_srates`` — executable
    specification and benchmark baseline for the columnar kernel."""
    allocation = _allocation()
    active = list(demands)
    if capacity <= 0.0:
        allocation.disabled = [d.name for d in demands]
        allocation.rates = {d.name: 0.0 for d in demands}
        allocation.cycles = {d.name: 0.0 for d in demands}
        return allocation
    while True:
        total = sum(d.predicted_cycles for d in active)
        rate = 1.0 if total <= 0 else min(1.0, capacity / total)
        violators = [d for d in active if d.min_sampling_rate > rate + 1e-12]
        if not violators:
            break
        worst = max(violators, key=lambda d: (d.min_cycles, d.name))
        active.remove(worst)
        if not active:
            rate = 0.0
            break
    active_names = {d.name for d in active}
    for demand in demands:
        if demand.name in active_names:
            allocation.rates[demand.name] = rate
            allocation.cycles[demand.name] = rate * demand.predicted_cycles
        else:
            allocation.rates[demand.name] = 0.0
            allocation.cycles[demand.name] = 0.0
            allocation.disabled.append(demand.name)
    return allocation


def _mmfs_scalar(demands: Sequence[QueryDemand], capacity: float,
                 packet_fair: bool) -> SimpleNamespace:
    allocation = _allocation()
    if capacity <= 0.0:
        allocation.disabled = [d.name for d in demands]
        allocation.rates = {d.name: 0.0 for d in demands}
        allocation.cycles = {d.name: 0.0 for d in demands}
        return allocation
    active = _disable_largest_min_demands(demands, capacity)
    active_names = {d.name for d in active}
    rates: Dict[str, float] = {}
    if active:
        pred = np.array([d.predicted_cycles for d in active])
        mins = np.array([d.min_sampling_rate for d in active])
        if packet_fair:
            levels = _water_fill(floors=mins, ceilings=np.ones(len(active)),
                                 weights=pred, capacity=capacity)
            for demand, rate in zip(active, levels):
                rates[demand.name] = float(rate)
        else:
            floors = mins * pred
            levels = _water_fill(floors=floors, ceilings=pred,
                                 weights=np.ones(len(active)),
                                 capacity=capacity)
            for demand, cycles in zip(active, levels):
                rate = 1.0 if demand.predicted_cycles <= 0 else \
                    min(1.0, cycles / demand.predicted_cycles)
                rates[demand.name] = float(rate)
    for demand in demands:
        if demand.name in active_names:
            rate = rates[demand.name]
            allocation.rates[demand.name] = rate
            allocation.cycles[demand.name] = rate * demand.predicted_cycles
        else:
            allocation.rates[demand.name] = 0.0
            allocation.cycles[demand.name] = 0.0
            allocation.disabled.append(demand.name)
    return allocation


def mmfs_cpu_scalar(demands: Sequence[QueryDemand],
                    capacity: float) -> SimpleNamespace:
    """The historical object-per-query ``mmfs_cpu`` (reference/baseline)."""
    return _mmfs_scalar(demands, capacity, packet_fair=False)


def mmfs_pkt_scalar(demands: Sequence[QueryDemand],
                    capacity: float) -> SimpleNamespace:
    """The historical object-per-query ``mmfs_pkt`` (reference/baseline)."""
    return _mmfs_scalar(demands, capacity, packet_fair=True)


#: Pre-vectorisation implementations: executable specification of the
#: kernels (bit-identical outputs) and the benchmark's object-per-bin
#: baseline.
SCALAR_REFERENCE: Dict[str, Callable] = {
    "eq_srates": eq_srates_scalar,
    "mmfs_cpu": mmfs_cpu_scalar,
    "mmfs_pkt": mmfs_pkt_scalar,
}



def two_tier_scalar(names: Sequence[str], predicted: np.ndarray,
                    min_rates: np.ndarray, tenant_ids: np.ndarray,
                    registry: TenantRegistry, capacity: float,
                    packet_fair: bool) -> SimpleNamespace:
    """Python reference for :func:`two_tier_allocate`: explicit per-tenant
    loops and one :func:`~repro.core.fairness._water_fill` per tenant.
    Property tests assert the columnar kernel matches this to bisection
    tolerance; the tenant benchmark uses it as the object-per-bin
    baseline."""
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return _allocation(rates={name: 0.0 for name in names},
                           cycles={name: 0.0 for name in names},
                           disabled=list(names))
    tenant_ids = np.asarray(tenant_ids, dtype=np.intp)
    caps_t = _capacity_caps(registry, capacity)
    floors, ceilings, costs = _tenant_boxes(predicted, min_rates, packet_fair)
    min_cost = costs * floors

    members: Dict[int, List[int]] = {}
    for index in range(count):
        members.setdefault(int(tenant_ids[index]), []).append(index)

    active: Dict[int, List[int]] = {}
    # Pass 1: per-tenant largest-minimum-first disabling against the cap.
    for slot, indices in members.items():
        ordered = sorted(indices,
                         key=lambda i: (min_cost[i], names[i]))
        while ordered and sum(min_cost[i] for i in ordered) > caps_t[slot]:
            ordered.pop()
        active[slot] = ordered
    # Pass 2: global largest-minimum-first disabling against the capacity.
    flat = sorted((i for indices in active.values() for i in indices),
                  key=lambda i: (min_cost[i], names[i]))
    while flat and sum(min_cost[i] for i in flat) > capacity:
        flat.pop()
    surviving = set(flat)
    active = {slot: [i for i in indices if i in surviving]
              for slot, indices in active.items()}
    active = {slot: indices for slot, indices in active.items() if indices}

    rates = {name: 0.0 for name in names}
    shares_out: Dict[str, float] = {}
    if active:
        slots = sorted(active)
        tenant_floor = np.array([sum(min_cost[i] for i in active[s])
                                 for s in slots])
        tenant_demand = np.array(
            [sum(costs[i] * ceilings[i] for i in active[s]) for s in slots])
        tenant_ceiling = np.maximum(
            np.minimum(np.array([caps_t[s] for s in slots]), tenant_demand),
            tenant_floor)
        weights_t = np.array([registry.weight[s] for s in slots])
        levels = _water_fill(tenant_floor / weights_t,
                             tenant_ceiling / weights_t,
                             weights_t, capacity)
        shares = weights_t * np.asarray(levels).reshape(-1)
        for slot, share in zip(slots, shares):
            indices = active[slot]
            shares_out[registry.names[slot]] = float(share)
            filled = _water_fill(
                np.array([floors[i] for i in indices]),
                np.array([ceilings[i] for i in indices]),
                np.array([costs[i] for i in indices]), float(share))
            filled = np.atleast_1d(np.asarray(filled, dtype=np.float64))
            if filled.shape == (1,) and len(indices) > 1:
                filled = np.full(len(indices), filled[0])
            for position, index in enumerate(indices):
                if packet_fair:
                    rates[names[index]] = float(filled[position])
                elif predicted[index] > 0.0:
                    rates[names[index]] = float(
                        min(1.0, filled[position] / predicted[index]))
                else:
                    rates[names[index]] = 1.0
    allocation = _allocation(
        rates=rates,
        cycles={name: rates[name] * float(predicted[i])
                for i, name in enumerate(names)},
        disabled=[name for i, name in enumerate(names)
                  if i not in surviving])
    allocation.tenant_shares = shares_out
    return allocation
