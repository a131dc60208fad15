"""The predictive load shedding controller (Chapter 4, Algorithm 1).

The controller answers the three questions of the paper for every batch:

* **when** to shed — whenever the predicted cycles of all queries (inflated
  by an EWMA of the recent prediction error) exceed the cycles available in
  the time bin, after subtracting the system and prediction overhead and
  adding the slack discovered by the buffer-discovery mechanism;
* **where / how** to shed — per-query sampling rates chosen by an allocation
  strategy from :mod:`repro.core.fairness` (``eq_srates`` reproduces the
  single global rate of Chapter 4), applied with packet or flow sampling, or
  delegated to the query itself when it registered a custom method;
* **how much** to shed — the sampling rate that brings the corrected
  prediction under the available cycles, accounting for the cycles the
  shedding machinery itself will consume.

The controller is deliberately independent from the queries' internals: its
inputs are feature vectors, predicted cycles and measured cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .fairness import STRATEGIES, Allocation, sequential_sum

#: Weight of the EWMAs tracking prediction error and shedding overhead
#: (Section 4.3 sets alpha = 0.9 to react quickly).
EWMA_WEIGHT = 0.9


class BufferDiscovery:
    """Slow-start style discovery of how far the system may fall behind.

    Capture devices buffer packets, so the system can occasionally use more
    cycles than one time bin provides as long as it remains stable.  The
    ``rtthresh`` threshold grows exponentially while the system keeps up,
    switches to linear growth past the last known safe value, and collapses
    to zero whenever the buffers exceed the occupation limit (Section 4.1).
    """

    #: Default probe step, as a fraction of the per-bin cycle budget.
    DEFAULT_INCREMENT_FRACTION = 0.01

    def __init__(self, initial_increment: float = 1e6,
                 occupation_limit: float = 0.5) -> None:
        self.rtthresh = 0.0
        self.initial_increment = float(initial_increment)
        self.occupation_limit = float(occupation_limit)
        self.max_rtthresh: Optional[float] = None
        self._ssthresh = np.inf
        self._increment = float(initial_increment)

    def configure_budget(self, per_bin_budget: float,
                         buffer_cycles: Optional[float] = None) -> None:
        """Scale the probe step (and cap) to the per-bin budget and buffer.

        The probe step must be small compared with both the bin budget and
        the capture-buffer size, otherwise a single probe can blow straight
        through the buffer and cause the very drops it tries to avoid; the
        cap keeps the discovered allowance well inside the buffer so that
        normal traffic bursts never translate into losses.
        """
        self.initial_increment = self.DEFAULT_INCREMENT_FRACTION * float(
            per_bin_budget)
        self._increment = self.initial_increment
        cap = float(per_bin_budget)
        if buffer_cycles is not None and np.isfinite(buffer_cycles):
            cap = min(cap, 0.3 * float(buffer_cycles))
        self.max_rtthresh = cap

    def allowance(self) -> float:
        """Extra cycles the system may currently spend beyond the bin budget."""
        if self.max_rtthresh is not None:
            return min(self.rtthresh, self.max_rtthresh)
        return self.rtthresh

    def update(self, used_cycles: float, available_cycles: float,
               buffer_occupation: float) -> None:
        """Adjust ``rtthresh`` after a bin.

        ``buffer_occupation`` is the capture-buffer fill fraction in [0, 1].
        """
        if buffer_occupation > self.occupation_limit:
            # The system is turning unstable: back off.
            self._ssthresh = max(self.rtthresh / 2.0, self.initial_increment)
            self.rtthresh = 0.0
            self._increment = self.initial_increment
            return
        if used_cycles <= available_cycles:
            # Queries used less than available: probe for more slack.
            if self.rtthresh < self._ssthresh:
                self.rtthresh = max(self.rtthresh * 2.0,
                                    self.rtthresh + self._increment)
            else:
                self.rtthresh += self._increment


@dataclass
class ShedPlan:
    """Decision taken for one time bin, with the controller state it read:
    the buffer ``allowance`` and the two EWMAs, as they stood before the
    bin updated them."""

    available_cycles: float
    predicted_cycles: float
    corrected_prediction: float
    overload: bool
    allowance: float
    error_ewma: float
    shedding_overhead_ewma: float
    rates: Dict[str, float] = field(default_factory=dict)
    allocation: Optional[Allocation] = None

    @property
    def usable_cycles(self) -> float:
        """Cycles the strategy splits once the shedding machinery has
        taken its own share (Algorithm 1, line 9)."""
        return max(0.0, self.available_cycles - self.shedding_overhead_ewma)


class LoadSheddingController:
    """Implements the per-bin decisions of Algorithm 1.

    ``strategy`` names the allocation strategy, a key of
    :data:`repro.core.fairness.STRATEGIES`.
    """

    def __init__(self, strategy: str = "eq_srates") -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; valid "
                             f"strategies: {sorted(STRATEGIES)}")
        self.strategy = strategy
        self.error_ewma = 0.0
        self.shedding_overhead_ewma = 0.0
        self.buffer_discovery = BufferDiscovery()

    def configure_budget(self, per_bin_budget: float,
                         buffer_cycles: Optional[float] = None) -> None:
        """Adapt internal step sizes to the host's per-bin cycle budget."""
        self.buffer_discovery.configure_budget(per_bin_budget, buffer_cycles)

    # ------------------------------------------------------------------
    # When / where / how much
    # ------------------------------------------------------------------
    def available_cycles(self, bin_budget: float, overhead_cycles: float,
                         delay: float) -> float:
        """Cycles left for query processing in this bin (Algorithm 1, line 7)."""
        return (bin_budget - overhead_cycles +
                (self.buffer_discovery.allowance() - delay))

    def plan_arrays(self, names: Sequence[str], predicted: np.ndarray,
                    min_rates: np.ndarray, bin_budget: float,
                    overhead_cycles: float, delay: float,
                    tenants=None, rank: Optional[np.ndarray] = None
                    ) -> ShedPlan:
        """Decide the sampling rate of every query for the current bin.

        ``names`` / ``predicted`` / ``min_rates`` are aligned per-query
        columns (typically gathered from the system's
        :class:`~repro.core.fairness.QuerySlotTable`).  ``tenants`` is an
        optional :class:`~repro.core.tenancy.TenantAssignment` routing the
        strategy through the two-tier tenant allocator; ``rank`` is the
        precomputed name-rank tie-break column.
        """
        predicted = np.asarray(predicted, dtype=np.float64)
        min_rates = np.asarray(min_rates, dtype=np.float64)
        avail = self.available_cycles(bin_budget, overhead_cycles, delay)
        predicted_total = sequential_sum(predicted)
        correction = 1.0 + self.error_ewma
        corrected = predicted_total * correction
        overload = avail < corrected
        plan = ShedPlan(available_cycles=avail,
                        predicted_cycles=predicted_total,
                        corrected_prediction=corrected, overload=overload,
                        allowance=self.buffer_discovery.allowance(),
                        error_ewma=self.error_ewma,
                        shedding_overhead_ewma=self.shedding_overhead_ewma)
        if not overload or not len(names):
            plan.rates = {name: 1.0 for name in names}
            return plan
        usable = plan.usable_cycles
        # Scale each query's demand by the error correction and let the
        # strategy split the usable cycles.
        corrected_pred = predicted * correction
        if tenants is not None:
            allocation = tenants.allocate(self.strategy, names,
                                          corrected_pred, min_rates, usable,
                                          rank=rank)
        else:
            allocation = STRATEGIES[self.strategy](
                names, corrected_pred, min_rates, usable, rank=rank)
        plan.allocation = allocation
        plan.rates = allocation.rates
        return plan

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def record_shedding_overhead(self, cycles: float) -> None:
        """Update the EWMA of the shedding subsystem's own cycles (line 13)."""
        self.shedding_overhead_ewma = (
            EWMA_WEIGHT * float(cycles) +
            (1.0 - EWMA_WEIGHT) * self.shedding_overhead_ewma)

    def record_prediction_error(self, predicted_after_shedding: float,
                                actual_cycles: float) -> None:
        """Update the EWMA of the (under-)prediction error (line 17).

        Only under-prediction is penalised: the correction exists to avoid
        exceeding the capacity, over-prediction is already conservative.
        """
        if actual_cycles <= 0.0:
            under_error = 0.0
        else:
            under_error = max(0.0, 1.0 - predicted_after_shedding / actual_cycles)
        self.error_ewma = (EWMA_WEIGHT * under_error +
                           (1.0 - EWMA_WEIGHT) * self.error_ewma)

    def end_bin(self, used_cycles: float, available_cycles: float,
                buffer_occupation: float) -> None:
        """Feed the bin outcome to the buffer-discovery mechanism."""
        self.buffer_discovery.update(used_cycles, available_cycles,
                                     buffer_occupation)

    def reset(self) -> None:
        initial_increment = self.buffer_discovery.initial_increment
        self.error_ewma = 0.0
        self.shedding_overhead_ewma = 0.0
        self.buffer_discovery = BufferDiscovery(
            initial_increment=initial_increment)


def reactive_rate(previous_rate: float, consumed_cycles: float,
                  available_cycles: float, delay: float) -> float:
    """Sampling rate of the *reactive* baseline (Equation 4.1).

    The reactive system has no prediction: it scales the previous rate by the
    ratio of available to consumed cycles of the previous bin, clamped to
    ``[0, 1]``.
    """
    if consumed_cycles <= 0.0:
        return 1.0
    rate = previous_rate * (available_cycles - delay) / consumed_cycles
    return float(min(1.0, max(0.0, rate)))
