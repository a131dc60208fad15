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

**One shape.**  A strategy is a kernel registered under a name in
:data:`STRATEGIES`, with the signature ``kernel(names, predicted, min_rates,
capacity, rank=None) -> Allocation``: aligned per-query columns in (float64
``predicted`` / ``min_rates``, plus the optional precomputed
:func:`name_ranks` tie-break column), an :class:`Allocation` of aligned
columns out.  A config names its strategy; registering a kernel under a new
name is how a custom one is added.  The kernels are bit-identical to the
object-per-query implementations the tests keep verbatim as their oracle
(``tests/oracles/allocation.py``).  The per-system :class:`QuerySlotTable`
holds the per-query columns between bins, so the per-bin work is array
gathers, not object construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


class Allocation:
    """What a strategy decided for one time bin: aligned per-query columns.

    ``names`` is the input order; ``rate_array`` / ``cycle_array`` hold each
    query's sampling rate and the cycles it was granted, ``disabled_mask``
    marks the queries switched off for the bin, ``tenant_shares`` the cycle
    share of each tenant when a two-tier allocation ran (``None`` for flat
    ones; see :mod:`repro.core.tenancy`).  The value is immutable — the
    arrays it is built from become read-only — and :attr:`rates`,
    :attr:`cycles` and :attr:`disabled` are per-name views of the columns.
    """

    __slots__ = ("names", "rate_array", "cycle_array", "disabled_mask",
                 "tenant_shares")

    def __init__(self, names: Sequence[str], rates: np.ndarray,
                 cycles: np.ndarray, disabled: np.ndarray,
                 tenant_shares: Optional[Dict[str, float]] = None) -> None:
        for column in (rates, cycles, disabled):
            column.flags.writeable = False
        set_ = object.__setattr__  # the value is immutable from here on
        set_(self, "names", tuple(names))
        set_(self, "rate_array", rates)
        set_(self, "cycle_array", cycles)
        set_(self, "disabled_mask", disabled)
        set_(self, "tenant_shares", tenant_shares)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"an Allocation is immutable: cannot set {attr!r}")

    @property
    def rates(self) -> Dict[str, float]:
        return dict(zip(self.names, self.rate_array.tolist()))

    @property
    def disabled(self) -> List[str]:
        return [name for name, off in zip(self.names, self.disabled_mask)
                if off]

    @property
    def total_cycles(self) -> float:
        return sequential_sum(self.cycle_array)


# ----------------------------------------------------------------------
# Shared numeric helpers
# ----------------------------------------------------------------------
def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum, bit-identical to python ``sum`` over the values.

    ``np.sum`` accumulates pairwise from eight elements on and rounds
    differently; ``np.cumsum`` accumulates strictly left to right, so its
    last element is ``sum()`` exactly — which keeps the kernels bit-identical
    to the scalar reference at any size.
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
    """Demands are non-negative, minimum sampling rates lie in [0, 1]."""
    if np.any(predicted < 0):
        raise ValueError("predicted_cycles must be non-negative")
    if np.any((min_rates < 0.0) | (min_rates > 1.0)):
        raise ValueError("min_sampling_rate must be in [0, 1]")


def all_disabled(names: Sequence[str],
                 tenant_shares: Optional[Dict[str, float]] = None
                 ) -> Allocation:
    """Every query switched off: what any strategy answers to no capacity."""
    count = len(names)
    return Allocation(names, np.zeros(count), np.zeros(count),
                      np.ones(count, dtype=bool), tenant_shares)


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
# The strategies
# ----------------------------------------------------------------------
def eq_srates(names: Sequence[str], predicted: np.ndarray,
              min_rates: np.ndarray, capacity: float,
              rank: Optional[np.ndarray] = None) -> Allocation:
    """Single common sampling rate for every query (Chapter 4 strategy).

    The rate is ``capacity / total_demand`` clamped to ``[0, 1]``.  Queries
    whose minimum sampling rate exceeds the common rate are disabled for the
    bin and the rate is recomputed for the remaining ones, as in the
    ``eq_srates`` system of Section 5.5.3.  ``rank`` is the precomputed
    :func:`name_ranks` tie-break column; omit it to have the kernel derive
    it from ``names``.
    """
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return all_disabled(names)
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
    return Allocation(names, rates, rates * predicted, ~mask)


def _mmfs(names: Sequence[str], predicted: np.ndarray,
          min_rates: np.ndarray, capacity: float, packet_fair: bool,
          rank: Optional[np.ndarray] = None) -> Allocation:
    count = len(predicted)
    _validate_columns(predicted, min_rates)
    if capacity <= 0.0:
        return all_disabled(names)
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
    return Allocation(names, rates, rates * predicted, disabled_mask)


def mmfs_cpu(names: Sequence[str], predicted: np.ndarray,
             min_rates: np.ndarray, capacity: float,
             rank: Optional[np.ndarray] = None) -> Allocation:
    """Max-min fair share in terms of CPU cycles (Section 5.2.1)."""
    return _mmfs(names, predicted, min_rates, capacity, packet_fair=False,
                 rank=rank)


def mmfs_pkt(names: Sequence[str], predicted: np.ndarray,
             min_rates: np.ndarray, capacity: float,
             rank: Optional[np.ndarray] = None) -> Allocation:
    """Max-min fair share in terms of packet access (Section 5.2.2)."""
    return _mmfs(names, predicted, min_rates, capacity, packet_fair=True,
                 rank=rank)


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


#: The strategies a config can name: ``kernel(names, predicted, min_rates,
#: capacity, rank=None) -> Allocation``.  Register a kernel here to add one.
STRATEGIES: Dict[str, Callable[..., Allocation]] = {
    "eq_srates": eq_srates,
    "mmfs_cpu": mmfs_cpu,
    "mmfs_pkt": mmfs_pkt,
}
