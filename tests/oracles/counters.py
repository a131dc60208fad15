"""The counter interface and the generic counter bank, kept as test oracles.

:class:`DistinctCounter` and :class:`CounterBank` are copied verbatim from
:mod:`repro.core.distinct`, so that the oracle counters
(``oracles.bitmap``, ``oracles.exact_counter``) and the oracle extractor
(``oracles.private_extractor``) run none of the code they are compared
with: a fault in the product's default ``new_estimate`` or in its bank
cannot move an oracle along with it.  Test code only — nothing under
``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class DistinctCounter:
    """Interface shared by the distinct-counting backends."""

    def add_hashes(self, hashes: np.ndarray) -> None:
        raise NotImplementedError

    def estimate(self) -> float:
        raise NotImplementedError

    def merge(self, other: "DistinctCounter") -> None:
        raise NotImplementedError

    def new_estimate(self, other: "DistinctCounter") -> float:
        """Estimated number of items of ``other`` not yet counted here.

        Neither counter is modified.  Equals ``union.estimate() -
        self.estimate()``; backends override this when they can compute it
        without materialising the union.
        """
        union = self.copy()
        union.merge(other)
        return max(0.0, union.estimate() - self.estimate())

    def copy(self) -> "DistinctCounter":
        raise NotImplementedError


class CounterBank:
    """A fixed group of distinct counters that are updated and read together.

    Row ``i`` behaves exactly like a stand-alone counter of the backend: the
    ``estimates`` / ``new_estimates`` arrays hold what ``estimate`` /
    ``new_estimate`` of each row would return.  This generic bank keeps one
    counter object per row (the exact backend); :class:`BitmapBank`
    overrides every operation with a kernel over all rows at once.
    """

    #: Set by :meth:`freeze`.
    _read_only = False

    def __init__(self, counters: Sequence[DistinctCounter]) -> None:
        self.counters: List[DistinctCounter] = list(counters)

    def freeze(self) -> "CounterBank":
        """Make this bank a read-only value and return it.

        ``add_hashes`` and ``merge`` raise ``ValueError`` from now on;
        ``copy()`` and ``union()`` still give new banks.
        """
        self._read_only = True
        return self

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError("this bank is read-only")

    def add_hashes(self, index: int, hashes: np.ndarray) -> None:
        """Register ``hashes`` with row ``index``."""
        self._check_writable()
        self.counters[index].add_hashes(hashes)

    def estimates(self) -> np.ndarray:
        """Per-row distinct estimates (read-only for the caller)."""
        return np.array([counter.estimate() for counter in self.counters])

    def new_estimates(self, other: "CounterBank") -> np.ndarray:
        """Per row, the items of ``other``'s row not yet counted here.

        Neither bank is modified; the values are never negative.
        """
        return np.array([
            counter.new_estimate(incoming)
            for counter, incoming in zip(self.counters, other.counters)])

    def merge(self, other: "CounterBank") -> None:
        """Row-wise in-place union with ``other``."""
        self._check_writable()
        for counter, incoming in zip(self.counters, other.counters):
            counter.merge(incoming)

    def union(self, other: "CounterBank") -> "CounterBank":
        """The row-wise union as a new read-only bank; neither operand
        changes."""
        merged = self.copy()
        merged.merge(other)
        return merged.freeze()

    def copy(self) -> "CounterBank":
        return CounterBank([counter.copy() for counter in self.counters])
