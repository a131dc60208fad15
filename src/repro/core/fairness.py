"""Load shedding strategies: where to shed and how much per query (Chapter 5).

Given the predicted cycle demand of each query, its minimum sampling rate
constraint ``m_q`` and the cycle capacity of the current time bin, a strategy
returns the sampling rate to apply to each query.  Three strategies from the
paper are implemented:

* ``eq_srates``  — the Chapter 4 baseline: one common sampling rate for all
  queries; queries whose minimum constraint cannot be met are disabled for
  the bin and the rate is recomputed for the survivors.
* ``mmfs_cpu``   — max-min fair share of the CPU cycles, with per-query
  floors ``m_q * d_q`` and ceilings ``d_q``.
* ``mmfs_pkt``   — max-min fair share of *packet access*: the sampling rates
  themselves are equalised (floors ``m_q``, ceiling 1), weighting each query
  by its cycle demand when charging the capacity.

When even the minimum demands do not fit, all strategies disable the queries
with the largest minimum demand first (Section 5.2.1), which is the rule that
gives the game its Nash equilibrium at ``C / |Q|``.

**Columnar hot path.**  Each strategy exists in two layers: an array kernel
(:data:`ARRAY_STRATEGIES`) operating on aligned ``names`` / ``predicted`` /
``min_rate`` float64 arrays, and the classic :class:`QueryDemand`-sequence
wrapper (:data:`STRATEGIES`) that converts once and calls the kernel.  Both
produce bit-identical results by construction — the wrapper *is* the kernel
— and the kernels themselves are bit-identical to the pre-vectorisation
implementations, which the tests keep verbatim as their oracle
(``tests/oracles/allocation.py``).  The per-system
:class:`QuerySlotTable` holds the per-query columns between bins so the
per-bin work is array gathers, not object construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


@dataclass
class QueryDemand:
    """Per-query inputs to the allocation strategies."""

    name: str
    predicted_cycles: float
    min_sampling_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.predicted_cycles < 0:
            raise ValueError("predicted_cycles must be non-negative")
        if not 0.0 <= self.min_sampling_rate <= 1.0:
            raise ValueError("min_sampling_rate must be in [0, 1]")

    @property
    def min_cycles(self) -> float:
        """Minimum cycle demand ``m_q * d_q``."""
        return self.min_sampling_rate * self.predicted_cycles


class Allocation:
    """Result of an allocation strategy for one time bin.

    Array-backed with lazy dict views: the kernels hand over the per-query
    ``names`` (input order) plus aligned rate/cycle arrays and a disabled
    mask; the classic ``rates`` / ``cycles`` dicts and ``disabled`` list are
    materialised on first access, in input order — so code that reads the
    dict surface sees exactly what the historical dict-building loops
    produced, while the hot path can keep everything columnar.

    The historical constructor (``Allocation(rates={...}, cycles={...},
    disabled=[...])``) still works for custom strategies.
    """

    __slots__ = ("_names", "_rates_arr", "_cycles_arr", "_disabled_mask",
                 "_rates", "_cycles", "_disabled", "tenant_shares")

    def __init__(self, rates: Optional[Dict[str, float]] = None,
                 cycles: Optional[Dict[str, float]] = None,
                 disabled: Optional[List[str]] = None) -> None:
        self._names: Optional[Sequence[str]] = None
        self._rates_arr: Optional[np.ndarray] = None
        self._cycles_arr: Optional[np.ndarray] = None
        self._disabled_mask: Optional[np.ndarray] = None
        self._rates: Optional[Dict[str, float]] = \
            dict(rates) if rates is not None else {}
        self._cycles: Optional[Dict[str, float]] = \
            dict(cycles) if cycles is not None else {}
        self._disabled: Optional[List[str]] = \
            list(disabled) if disabled is not None else []
        #: Per-tenant cycle shares granted by a two-tier allocation
        #: (``None`` for flat allocations); see :mod:`repro.core.tenancy`.
        self.tenant_shares: Optional[Dict[str, float]] = None

    @classmethod
    def from_arrays(cls, names: Sequence[str], rates: np.ndarray,
                    cycles: np.ndarray, disabled_mask: np.ndarray
                    ) -> "Allocation":
        """Array-backed construction used by the columnar kernels."""
        allocation = cls.__new__(cls)
        allocation._names = names
        allocation._rates_arr = rates
        allocation._cycles_arr = cycles
        allocation._disabled_mask = disabled_mask
        allocation._rates = None
        allocation._cycles = None
        allocation._disabled = None
        allocation.tenant_shares = None
        return allocation

    # -- lazy dict views ----------------------------------------------------
    @property
    def rates(self) -> Dict[str, float]:
        if self._rates is None:
            self._rates = {name: float(rate) for name, rate
                           in zip(self._names, self._rates_arr)}
        return self._rates

    @rates.setter
    def rates(self, value: Dict[str, float]) -> None:
        self._rates = dict(value)

    @property
    def cycles(self) -> Dict[str, float]:
        if self._cycles is None:
            self._cycles = {name: float(cycles) for name, cycles
                            in zip(self._names, self._cycles_arr)}
        return self._cycles

    @cycles.setter
    def cycles(self, value: Dict[str, float]) -> None:
        self._cycles = dict(value)

    @property
    def disabled(self) -> List[str]:
        if self._disabled is None:
            self._disabled = [name for name, off
                              in zip(self._names, self._disabled_mask) if off]
        return self._disabled

    @disabled.setter
    def disabled(self, value: List[str]) -> None:
        self._disabled = list(value)

    # -- array views (hot path; None when dict-constructed) -----------------
    @property
    def rate_array(self) -> Optional[np.ndarray]:
        return self._rates_arr

    @property
    def cycle_array(self) -> Optional[np.ndarray]:
        return self._cycles_arr

    # -- classic surface ----------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return float(sum(self.cycles.values()))

    def rate(self, name: str) -> float:
        return self.rates.get(name, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (self.rates == other.rates and self.cycles == other.cycles
                and self.disabled == other.disabled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Allocation(rates={self.rates!r}, cycles={self.cycles!r}, "
                f"disabled={self.disabled!r})")


#: Signature of an allocation strategy.
Strategy = Callable[[Sequence[QueryDemand], float], Allocation]


# ----------------------------------------------------------------------
# Shared numeric helpers
# ----------------------------------------------------------------------
def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum, bit-identical to python ``sum`` over the values.

    ``np.sum`` uses pairwise accumulation for eight elements and more, which
    rounds differently from the sequential python sums of the historical
    scalar code.  ``np.cumsum`` accumulates strictly left to right, so its
    last element reproduces ``sum()`` exactly — which is what keeps the
    columnar kernels bit-identical to the scalar reference at any size.
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def name_ranks(names: Sequence[str]) -> np.ndarray:
    """Dense lexicographic ranks: ``rank[i]`` = position of ``names[i]``
    among the sorted names.  Precomputable (names change only on query
    add/remove), so the per-bin kernels can tie-break by name without
    sorting strings in the hot path."""
    order = sorted(range(len(names)), key=lambda index: names[index])
    ranks = np.empty(len(names), dtype=np.int64)
    for position, index in enumerate(order):
        ranks[index] = position
    return ranks


def disable_priority_order(values: Sequence[float],
                           names: Optional[Sequence[str]] = None,
                           ranks: Optional[np.ndarray] = None) -> np.ndarray:
    """Ascending ``(value, name)`` index order shared by the allocator and
    the game.

    The system disables the *largest* minimum demands first; this helper is
    the one place that fixes what happens at ties.  With ``names`` (or
    precomputed ``ranks``) equal demands order lexicographically by query
    name — the convention of the allocator's disabling rule — so
    :func:`repro.core.game.active_players` and the allocator agree on which
    of two equal demands straddling the capacity boundary survives.
    Without names the order falls back to stable input order.
    """
    values = np.asarray(values, dtype=np.float64)
    if ranks is None and names is not None:
        ranks = name_ranks(names)
    if ranks is None:
        return np.argsort(values, kind="stable")
    return np.lexsort((np.asarray(ranks), values))


def _validate_columns(predicted: np.ndarray, min_rates: np.ndarray) -> None:
    """The eager validation :class:`QueryDemand` used to perform."""
    if np.any(predicted < 0):
        raise ValueError("predicted_cycles must be non-negative")
    if np.any((min_rates < 0.0) | (min_rates > 1.0)):
        raise ValueError("min_sampling_rate must be in [0, 1]")


def _demand_columns(demands: Sequence[QueryDemand]):
    names = [demand.name for demand in demands]
    predicted = np.array([demand.predicted_cycles for demand in demands],
                         dtype=np.float64)
    min_rates = np.array([demand.min_sampling_rate for demand in demands],
                         dtype=np.float64)
    return names, predicted, min_rates


def _all_disabled(names: Sequence[str], count: int) -> Allocation:
    return Allocation.from_arrays(
        names, np.zeros(count), np.zeros(count), np.ones(count, dtype=bool))


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


# ----------------------------------------------------------------------
# Columnar kernels — the actual strategy implementations
# ----------------------------------------------------------------------
def eq_srates_arrays(names: Sequence[str], predicted: np.ndarray,
                     min_rates: np.ndarray, capacity: float,
                     rank: Optional[np.ndarray] = None) -> Allocation:
    """Columnar ``eq_srates``: one common rate over aligned demand columns.

    ``rank`` is the precomputed :func:`name_ranks` tie-break column; omit it
    to have the kernel derive it from ``names``.
    """
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return _all_disabled(names, count)
    if rank is None:
        rank = name_ranks(names)
    min_cycles = min_rates * predicted
    mask = np.ones(count, dtype=bool)
    rate = 0.0
    while True:
        total = sequential_sum(predicted[mask])
        rate = 1.0 if total <= 0 else min(1.0, capacity / total)
        violators = mask & (min_rates > rate + 1e-12)
        if not violators.any():
            break
        # Disable the most constrained query that cannot live with the rate
        # (largest (min_cycles, name), the Section 5.2.1 tie-break).
        indices = np.flatnonzero(violators)
        worst = indices[np.lexsort((rank[indices], min_cycles[indices]))[-1]]
        mask[worst] = False
        if not mask.any():
            rate = 0.0
            break
    rates = np.where(mask, rate, 0.0)
    return Allocation.from_arrays(names, rates, rates * predicted, ~mask)


def _mmfs_arrays(names: Sequence[str], predicted: np.ndarray,
                 min_rates: np.ndarray, capacity: float, packet_fair: bool,
                 rank: Optional[np.ndarray] = None) -> Allocation:
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return _all_disabled(names, count)
    if rank is None:
        rank = name_ranks(names)
    min_cycles = min_rates * predicted
    # Disable the largest minimum demands first until the minimums fit —
    # one sort, a sequential cumsum and a searchsorted: the survivors are
    # the largest prefix of the ``(min_cycles, name)`` order that fits.
    order = np.lexsort((rank, min_cycles))
    cumulative = np.cumsum(min_cycles[order])
    keep = int(np.searchsorted(cumulative, capacity, side="right"))
    active_sorted = order[:keep]
    rates = np.zeros(count)
    if keep:
        # Water-fill over the active set in (min_cycles, name) order — the
        # order the scalar implementation built its arrays in, which pins
        # the float summation order inside _water_fill.
        pred_active = predicted[active_sorted]
        mins_active = min_rates[active_sorted]
        if packet_fair:
            # Equalise sampling rates; a query's rate consumes cycles in
            # proportion to its predicted demand.
            levels = _water_fill(floors=mins_active,
                                 ceilings=np.ones(keep),
                                 weights=pred_active, capacity=capacity)
            rates[active_sorted] = levels
        else:
            # Equalise allocated cycles between floors m_q*d_q and ceilings
            # d_q.
            levels = _water_fill(floors=mins_active * pred_active,
                                 ceilings=pred_active,
                                 weights=np.ones(keep), capacity=capacity)
            with np.errstate(divide="ignore", invalid="ignore"):
                rates[active_sorted] = np.where(
                    pred_active > 0.0,
                    np.minimum(1.0, levels / pred_active), 1.0)
    disabled_mask = np.ones(count, dtype=bool)
    disabled_mask[active_sorted] = False
    return Allocation.from_arrays(names, rates, rates * predicted,
                                  disabled_mask)


def mmfs_cpu_arrays(names: Sequence[str], predicted: np.ndarray,
                    min_rates: np.ndarray, capacity: float,
                    rank: Optional[np.ndarray] = None) -> Allocation:
    """Columnar max-min fair share of CPU cycles (Section 5.2.1)."""
    return _mmfs_arrays(names, predicted, min_rates, capacity,
                        packet_fair=False, rank=rank)


def mmfs_pkt_arrays(names: Sequence[str], predicted: np.ndarray,
                    min_rates: np.ndarray, capacity: float,
                    rank: Optional[np.ndarray] = None) -> Allocation:
    """Columnar max-min fair share of packet access (Section 5.2.2)."""
    return _mmfs_arrays(names, predicted, min_rates, capacity,
                        packet_fair=True, rank=rank)


# ----------------------------------------------------------------------
# Classic QueryDemand-sequence surface (thin wrappers over the kernels)
# ----------------------------------------------------------------------
def eq_srates(demands: Sequence[QueryDemand], capacity: float) -> Allocation:
    """Single common sampling rate for every query (Chapter 4 strategy).

    The rate is ``capacity / total_demand`` clamped to ``[0, 1]``.  Queries
    whose minimum sampling rate exceeds the common rate are disabled for the
    bin and the rate is recomputed for the remaining ones, as in the
    ``eq_srates`` system of Section 5.5.3.
    """
    return eq_srates_arrays(*_demand_columns(demands), capacity)


def mmfs_cpu(demands: Sequence[QueryDemand], capacity: float) -> Allocation:
    """Max-min fair share in terms of CPU cycles (Section 5.2.1)."""
    return mmfs_cpu_arrays(*_demand_columns(demands), capacity)


def mmfs_pkt(demands: Sequence[QueryDemand], capacity: float) -> Allocation:
    """Max-min fair share in terms of packet access (Section 5.2.2)."""
    return mmfs_pkt_arrays(*_demand_columns(demands), capacity)


# ----------------------------------------------------------------------
# Per-system slot table backing the columnar path
# ----------------------------------------------------------------------
class QuerySlotTable:
    """Stable per-query slot table: demand columns maintained across bins.

    One slot per registered query.  Slots are assigned on add, recycled on
    remove, and the columns (``predicted``, ``min_rate``, ``name_rank``,
    ``tenant_slot``) are rewritten only on membership changes; the per-bin
    hot path writes predictions into ``predicted[slot]`` and gathers rows by
    slot index — no per-bin object construction, no per-bin string sorting
    (``name_rank`` keeps the Section 5.2.1 tie-break precomputed).
    """

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(1, int(capacity))
        self.names: List[Optional[str]] = [None] * capacity
        self.predicted = np.zeros(capacity, dtype=np.float64)
        self.min_rate = np.zeros(capacity, dtype=np.float64)
        self.name_rank = np.zeros(capacity, dtype=np.int64)
        self.tenant_slot = np.zeros(capacity, dtype=np.intp)
        self._slot_of: Dict[str, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, name: str) -> bool:
        return name in self._slot_of

    def slot(self, name: str) -> int:
        return self._slot_of[name]

    def add(self, name: str, min_rate: float = 0.0,
            tenant_slot: int = 0) -> int:
        """Assign a slot for ``name`` and return it."""
        if name in self._slot_of:
            raise ValueError(f"query {name!r} already has a slot")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.names[slot] = name
        self.predicted[slot] = 0.0
        self.min_rate[slot] = float(min_rate)
        self.tenant_slot[slot] = int(tenant_slot)
        self._slot_of[name] = slot
        self._recompute_ranks()
        return slot

    def remove(self, name: str) -> None:
        slot = self._slot_of.pop(name, None)
        if slot is None:
            return
        self.names[slot] = None
        self.predicted[slot] = 0.0
        self.min_rate[slot] = 0.0
        self.tenant_slot[slot] = 0
        self._free.append(slot)
        self._recompute_ranks()

    def _grow(self) -> None:
        old = len(self.names)
        new = old * 2
        self.names.extend([None] * (new - old))
        for attr in ("predicted", "min_rate", "name_rank", "tenant_slot"):
            column = getattr(self, attr)
            grown = np.zeros(new, dtype=column.dtype)
            grown[:old] = column
            setattr(self, attr, grown)
        self._free.extend(range(new - 1, old - 1, -1))

    def _recompute_ranks(self) -> None:
        occupied = sorted(self._slot_of.items())  # (name, slot) by name
        for position, (_, slot) in enumerate(occupied):
            self.name_rank[slot] = position


#: Registry of the named strategies used throughout experiments.
STRATEGIES: Dict[str, Strategy] = {
    "eq_srates": eq_srates,
    "mmfs_cpu": mmfs_cpu,
    "mmfs_pkt": mmfs_pkt,
}

#: Columnar kernels behind the named strategies: same names, signature
#: ``kernel(names, predicted, min_rates, capacity, rank=None)``.
ARRAY_STRATEGIES: Dict[str, Callable] = {
    "eq_srates": eq_srates_arrays,
    "mmfs_cpu": mmfs_cpu_arrays,
    "mmfs_pkt": mmfs_pkt_arrays,
}

def get_strategy(name_or_fn) -> Strategy:
    """Resolve a strategy by name or pass a callable through unchanged."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return STRATEGIES[name_or_fn]
    except KeyError:
        raise KeyError(f"unknown strategy {name_or_fn!r}; "
                       f"available: {sorted(STRATEGIES)}") from None


def strategy_key(name_or_fn) -> Optional[str]:
    """The registry name of a strategy, or ``None`` for custom callables."""
    if isinstance(name_or_fn, str):
        return name_or_fn if name_or_fn in STRATEGIES else None
    for key, fn in STRATEGIES.items():
        if fn is name_or_fn:
            return key
    return None
