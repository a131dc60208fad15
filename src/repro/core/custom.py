"""Custom load shedding with enforcement (Chapter 6).

Queries that are not robust to packet or flow sampling (e.g. the
signature-based P2P detector) may implement their own load shedding method.
The system then only tells the query the *fraction* of its full-batch
resource usage it is allowed to consume and delegates the actual shedding.

Delegation is safe only if the system polices the queries: a selfish query
could ignore the request and a buggy one could shed the wrong amount.  The
enforcement policy implemented here mirrors Section 6.1.1:

* for every batch the expected consumption is ``predicted_cycles * fraction``;
* a per-query *correction factor* (EWMA of actual / expected) compensates
  queries whose custom method consistently sheds too little or too much, so a
  well-meaning but imprecise method converges to the right usage
  (Figure 6.3);
* queries that keep exceeding their allocation even after correction are
  considered non-cooperative and are disabled for an exponentially growing
  number of bins (Figures 6.10 and 6.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: EWMA weight of the correction factor.
CORRECTION_EWMA = 0.9


@dataclass
class EnforcementState:
    """Per-query bookkeeping of the enforcement policy."""

    correction: float = 1.0
    violations: int = 0
    disabled_until_bin: int = -1
    penalty_bins: int = 0
    total_violations: int = 0
    total_disables: int = 0


class CustomShedEnforcer:
    """Polices queries that perform their own load shedding.

    Parameters
    ----------
    tolerance:
        Fractional excess over the (corrected) expected consumption that is
        tolerated before counting a violation.
    violation_limit:
        Number of consecutive violations after which a query is disabled.
    base_penalty_bins:
        Length of the first disable period, in time bins; it doubles at every
        subsequent offence.
    max_correction:
        Upper bound on the correction factor, so a query reporting absurd
        costs cannot push the factor to infinity.
    """

    def __init__(self, tolerance: float = 0.25, violation_limit: int = 3,
                 base_penalty_bins: int = 20,
                 max_correction: float = 20.0) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if violation_limit < 1:
            raise ValueError("violation_limit must be >= 1")
        self.tolerance = float(tolerance)
        self.violation_limit = int(violation_limit)
        self.base_penalty_bins = int(base_penalty_bins)
        self.max_correction = float(max_correction)
        self._states: Dict[str, EnforcementState] = {}

    # ------------------------------------------------------------------
    def state(self, name: str) -> EnforcementState:
        if name not in self._states:
            self._states[name] = EnforcementState()
        return self._states[name]

    def is_disabled(self, name: str, bin_index: int) -> bool:
        """Whether the query is currently serving a penalty."""
        return bin_index <= self.state(name).disabled_until_bin

    def allowed_fraction(self, name: str, requested_fraction: float) -> float:
        """Fraction of its full-batch usage the query may actually consume.

        The requested fraction (the sampling rate the allocation strategy
        chose) is divided by the query's correction factor, so a query whose
        custom method historically consumed twice what it was asked is now
        asked for half as much.
        """
        state = self.state(name)
        fraction = requested_fraction / max(state.correction, 1e-6)
        return float(min(1.0, max(0.0, fraction)))

    # ------------------------------------------------------------------
    def record(self, name: str, expected_cycles: float, actual_cycles: float,
               bin_index: int) -> EnforcementState:
        """Record the outcome of one batch and update the policy state.

        ``expected_cycles`` is what the system granted (prediction times the
        *requested* fraction); ``actual_cycles`` is what the query consumed.
        """
        state = self.state(name)
        if expected_cycles > 0.0:
            ratio = actual_cycles / expected_cycles
            state.correction = min(
                self.max_correction,
                CORRECTION_EWMA * ratio +
                (1.0 - CORRECTION_EWMA) * state.correction)
            exceeded = actual_cycles > expected_cycles * (1.0 + self.tolerance)
        else:
            exceeded = actual_cycles > 0.0
        if exceeded:
            state.violations += 1
            state.total_violations += 1
            if state.violations >= self.violation_limit:
                # Disable with exponentially growing penalties.
                state.penalty_bins = (self.base_penalty_bins
                                      if state.penalty_bins == 0
                                      else state.penalty_bins * 2)
                state.disabled_until_bin = bin_index + state.penalty_bins
                state.violations = 0
                state.total_disables += 1
        else:
            state.violations = max(0, state.violations - 1)
        return state

    def reset(self, name: Optional[str] = None) -> None:
        """Forget enforcement state for one query (or all)."""
        if name is None:
            self._states.clear()
        else:
            self._states.pop(name, None)
