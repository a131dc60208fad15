"""Simulated CPU-cycle accounting.

The paper measures query cost with the x86 time-stamp counter (TSC) on a
3 GHz machine, so each 100 ms time bin offers ``3e8`` cycles to process a
batch.  This module provides the equivalent substrate for the reproduction:

* :class:`OperationCosts` — per-operation cycle weights queries use to charge
  for the real work they perform (per packet, per byte, per hash insert, ...).
  Deriving the cycle cost from actual operation counts reproduces the paper's
  core empirical observation that query cost is dominated by basic
  state-maintenance operations driven by traffic features.
* :class:`CycleMeter` — accumulates charges for one batch and adds optional
  measurement noise (the paper's context switches / cache effects).
* :class:`CycleClock` — the per-bin budget and the delay carried across
  bins, the two quantities of Algorithm 1 that outlive a bin.

The prediction and shedding code never looks inside a query's cost model; it
only observes the total cycles a query reports for a batch, which preserves
the black-box property of the original system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - loaded at a meter's first noisy draw
    from numpy.random import Generator

#: Default cycle cost of each basic operation.  The absolute values are
#: arbitrary (the algorithms only care about relative magnitudes); they are
#: chosen so that the standard query set on the default CESCA-like trace
#: reproduces the cost ranking of Figure 2.2 (pattern-search and p2p-detector
#: the most expensive, counter-style queries the cheapest).
DEFAULT_OPERATION_COSTS: Dict[str, float] = {
    "packet": 60.0,          # touching one packet header
    "byte": 2.5,             # scanning / copying one payload byte
    "hash_lookup": 180.0,    # hash-table lookup of an existing entry
    "hash_insert": 420.0,    # creating a new hash-table entry
    "hash_update": 90.0,     # updating an existing entry in place
    "counter_update": 25.0,  # bumping a simple array counter
    "sort_op": 55.0,         # one comparison/swap in a ranking structure
    "tree_op": 240.0,        # one node visit in a tree/cluster structure
    "regex_byte": 4.0,       # signature matching per byte
    "store_byte": 1.2,       # writing one byte to the storage process
    "flush": 5000.0,         # per measurement-interval bookkeeping
}


class OperationCosts:
    """Mapping of basic operation names to cycle weights.

    Unknown operations raise ``KeyError`` so typos in query cost models are
    caught by tests rather than silently charged zero cycles.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights = dict(DEFAULT_OPERATION_COSTS)
        if weights:
            self._weights.update(weights)

    def cost(self, operation: str, count: float = 1.0) -> float:
        """Cycles for ``count`` repetitions of ``operation``."""
        return self._weights[operation] * count


class CycleMeter:
    """Accumulates cycle charges for the batch currently being processed.

    A query calls :meth:`charge` while it processes a batch; the monitoring
    system then calls :meth:`consume` to read (and reset) the total, adding
    multiplicative measurement noise if configured.  Noise models the TSC
    measurement artefacts described in Section 3.2.4.
    """

    def __init__(
        self,
        costs: Optional[OperationCosts] = None,
        noise_std: float = 0.0,
        rng: Optional[Generator] = None,
    ) -> None:
        self.costs = costs if costs is not None else OperationCosts()
        self.noise_std = float(noise_std)
        #: The noise generator; ``None`` until the first noisy draw makes
        #: it from ``_seed``, so a noise-free meter never imports
        #: ``numpy.random``.
        self._rng = rng
        self._seed = 0
        self._accumulated = 0.0

    def reseed(self, seed: int) -> None:
        """Re-seed the measurement-noise generator deterministically.

        The generator is made from ``seed`` at the next noisy draw.  The
        monitoring system seeds each query's meter from the system seed and
        the query's name, so its noise does not depend on which queries
        were registered before it.
        """
        self._seed = seed
        self._rng = None

    def charge(self, operation: str, count: float = 1.0) -> float:
        """Charge ``count`` repetitions of ``operation``; returns the cycles."""
        cycles = self.costs.cost(operation, count)
        self._accumulated += cycles
        return cycles

    def consume(self) -> float:
        """Return the accumulated cycles (with noise) and reset the meter."""
        cycles = self._accumulated
        self._accumulated = 0.0
        if self.noise_std > 0.0 and cycles > 0.0:
            if self._rng is None:
                self._rng = np.random.default_rng(self._seed)
            cycles *= max(0.0, 1.0 + self._rng.normal(0.0, self.noise_std))
        return cycles

    def reset(self) -> None:
        self._accumulated = 0.0


@dataclass
class CycleBudget:
    """Cycle capacity of the simulated monitoring host.

    ``cycles_per_second`` plays the role of the CPU frequency; the per-bin
    budget is ``cycles_per_second * time_bin``, exactly as in Algorithm 1.
    """

    cycles_per_second: float = 3e8
    time_bin: float = 0.1

    @property
    def per_bin(self) -> float:
        return self.cycles_per_second * self.time_bin


class CycleClock:
    """The per-bin budget and the delay carried across bins.

    A bin's cycles are accounted in its
    :class:`~repro.monitor.pipeline.BinContext`; the clock only learns each
    bin's total when the bin closes, and keeps the *delay*: the cycles by
    which previous bins overran their budget (``delay`` in Algorithm 1,
    also what the capture buffer holds).
    """

    def __init__(self, budget: Optional[CycleBudget] = None) -> None:
        self.budget = budget if budget is not None else CycleBudget()
        #: Cycles by which the system is currently behind real time.
        self.delay = 0.0

    def close_bin(self, total_cycles: float) -> float:
        """Close a bin that spent ``total_cycles``; returns the new delay.

        Delay only accumulates; spare cycles in a bin are lost (a capture
        system cannot bank idle time), but they do pay down existing delay.
        """
        self.delay = max(0.0, self.delay + (total_cycles - self.budget.per_bin))
        return self.delay

    @property
    def per_bin_budget(self) -> float:
        return self.budget.per_bin
