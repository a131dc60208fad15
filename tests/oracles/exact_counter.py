"""The ``set``-based exact distinct counter, kept as a test oracle.

This is the implementation :class:`repro.core.distinct.ExactDistinctCounter`
had before its state became one sorted ``uint64`` array: a Python ``set`` of
boxed ints, ``copy()`` a full copy of it.  The class body is verbatim; the
array kernel must return the same numbers exactly
(``tests/test_hashing_distinct.py``).  Test code only — nothing under
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from oracles.counters import DistinctCounter


class ExactDistinctCounter(DistinctCounter):
    """Exact distinct counting over 64-bit item hashes (hash collisions are
    negligible for the cardinalities involved)."""

    def __init__(self) -> None:
        self._items: set = set()

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        self._items.update(np.unique(hashes).tolist())

    def estimate(self) -> float:
        return float(len(self._items))

    def merge(self, other: "ExactDistinctCounter") -> None:
        self._items |= other._items

    def new_estimate(self, other: "ExactDistinctCounter") -> float:
        # Exact backend: count the batch items missing from this counter
        # directly, without copying the (much larger) interval set.
        return float(len(other._items.difference(self._items)))

    def copy(self) -> "ExactDistinctCounter":
        clone = ExactDistinctCounter()
        clone._items = set(self._items)
        return clone

    def reset(self) -> None:
        self._items.clear()
