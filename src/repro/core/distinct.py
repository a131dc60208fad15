"""Distinct-item counting.

The feature extraction stage needs, for every traffic aggregate of Table 3.1,
the number of *unique* items in a batch and the number of *new* items with
respect to the current measurement interval.  The paper uses the
multi-resolution bitmap algorithm of Estan, Varghese and Fisk because it has
a deterministic, small per-packet cost and a bounded memory footprint; we
implement the same structure (:class:`MultiResolutionBitmap`) plus an exact
counter (:class:`ExactDistinctCounter`) used as ground truth in tests and as
an optional extraction backend.  The exact counter's state is one sorted,
duplicate-free ``uint64`` array; :func:`locate_sorted` is the membership
primitive over such an array and :func:`sorted_unique` the reduction that
produces one, both shared with the keyed tables of
:mod:`repro.core.aggregate`.

Both counters share a small interface:

``add_hashes(hashes)``      register an array of 64-bit item hashes
``estimate()``              estimated number of distinct items added so far
``new_estimate(other)``     items of ``other`` not yet counted here
``merge(other)``            in-place union with another counter
``copy() / reset()``        bookkeeping helpers

Feature extraction always handles the ten aggregates' counters together, so
it holds them as one :class:`CounterBank` (the same interface, one row per
counter).  For bitmaps that is a :class:`BitmapBank`: all rows bit-packed in
one ``uint64`` array, every read one popcount over the whole bank.  A
bitmap bank splits ``add_hashes`` in two: :meth:`BitmapBank.addresses`
maps hashes to the bits they set (the one float path) and
:meth:`BitmapBank.add_addresses` sets them, so addresses computed once can
fill any number of banks of the geometry.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

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


def locate_sorted(table: np.ndarray, keys: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Look ``keys`` up in ``table``, a sorted duplicate-free key array.

    Returns ``(positions, known)``: ``known[i]`` says whether ``keys[i]`` is
    in the table, and ``positions[i]`` is its index there — or, for an
    unknown key, the index it has to be inserted at to keep the order.
    """
    positions = np.searchsorted(table, keys)
    if table.size == 0:
        return positions, np.zeros(len(keys), dtype=bool)
    # A key beyond the last entry gets position ``size``; clipped, it is
    # compared with that last entry, which it cannot equal.
    return positions, table.take(positions, mode="clip") == keys


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal neighbours."""
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def sorted_unique(values: np.ndarray, return_index: bool = False,
                  return_inverse: bool = False, return_counts: bool = False):
    """``np.unique`` of a 1-D integer array by sort plus neighbour mask.

    Value for value what ``np.unique`` returns for the same flags (the
    first occurrence for ``return_index``, ``intp`` index arrays), several
    times faster at bin sizes: since NumPy 2.3 ``np.unique`` hashes before
    it sorts.  Equality is plain ``!=`` between neighbours, so this is for
    the integer keys the tables hold, not for floats with NaNs.
    """
    values = np.asarray(values)
    if return_index or return_inverse:
        # Unstable on purpose (the stable kinds take four times as long):
        # neither the inverse nor a run's smallest index depends on how
        # equal keys are ordered among themselves.
        order = values.argsort()
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = _run_starts(ordered)
    starts = np.flatnonzero(first)
    out = [ordered[first]]
    if return_index:
        out.append(np.minimum.reduceat(order, starts) if starts.size
                   else order)
    if return_inverse:
        inverse = np.empty(ordered.shape, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        out.append(inverse)
    if return_counts:
        out.append(np.diff(starts, append=ordered.size))
    return out[0] if len(out) == 1 else tuple(out)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_ITEMS = _frozen(np.empty(0, dtype=np.uint64))


class ExactDistinctCounter(DistinctCounter):
    """Exact distinct counting over 64-bit item hashes (hash collisions are
    negligible for the cardinalities involved).

    The state, ``_items``, is one sorted, duplicate-free, read-only
    ``uint64`` array: 8 bytes per item, in memory and in a pickle, and
    nothing boxed.  It is never written in place — ``add_hashes``,
    ``merge`` and ``reset`` replace it with another array — so counters may
    share one: ``copy()`` hands the clone the same array in O(1), and
    whichever of the two changes next moves on to a new array and leaves
    the other's behind.
    """

    def __init__(self) -> None:
        self._items = _NO_ITEMS

    def __setstate__(self, state: dict) -> None:
        # (A pickle does not keep an array read-only.)
        self._items = _frozen(state["_items"])

    def _union(self, items: np.ndarray) -> None:
        """Take in ``items``, a sorted array (duplicates allowed)."""
        if items.size == 0:
            return
        # Two sorted runs, which the stable sort merges in one pass; then
        # keep the first of each run of equal items.
        merged = np.concatenate([self._items, items])
        merged.sort(kind="stable")
        self._items = _frozen(merged[_run_starts(merged)])

    def add_hashes(self, hashes: np.ndarray) -> None:
        # (``np.unique`` would do for a new counter, but since NumPy 2.3 it
        # hashes before it sorts and takes several times longer.)
        self._union(np.sort(np.asarray(hashes, dtype=np.uint64)))

    def estimate(self) -> float:
        return float(self._items.size)

    def merge(self, other: "ExactDistinctCounter") -> None:
        self._union(other._items)

    def new_estimate(self, other: "ExactDistinctCounter") -> float:
        known = locate_sorted(self._items, other._items)[1]
        return float(other._items.size - np.count_nonzero(known))

    def copy(self) -> "ExactDistinctCounter":
        clone = ExactDistinctCounter()
        clone._items = self._items
        return clone


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


#: The hash bits that pick the position inside a component: independent of
#: the (high) bits that pick the component.
_POSITION_MASK = np.uint64(0xFFFFFFFF)


@lru_cache(maxsize=None)
def _tail_coverage(num_components: int) -> np.ndarray:
    """``tails[base]``: fraction of the hash space components ``base..`` cover.

    Component ``i`` covers ``2^-(i+1)`` of the space and the last one the
    remaining tail.  Each entry is the sum of a contiguous slice, the order
    the estimator has always added them in.
    """
    coverage = [2.0 ** -(i + 1) for i in range(num_components - 1)]
    coverage.append(2.0 ** -(num_components - 1))
    coverage = np.array(coverage)
    tails = np.array([coverage[base:].sum()
                      for base in range(num_components)])
    tails.flags.writeable = False
    return tails


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack a bool array whose last axis is a multiple of 64 into words.

    Which bit of a word a position lands on depends on the host's byte
    order; only OR and popcount ever look at the words, and neither cares.
    """
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


class BitmapBank(CounterBank):
    """``size`` multi-resolution bitmaps of one geometry in one packed array.

    ``_words[row, component]`` holds the component's bits in ``uint64``
    words (``bits_per_component`` rounded up to whole words; the pad bits
    stay zero), so a default-geometry row is 4 KiB.  A component's set-bit
    count is a popcount, a union is a word-wise OR, and both run over every
    row of the bank in one call.  A row is written through bit addresses:
    a hash's address is its component times the padded width plus its
    position, at most 32,767 (``uint16``) at the default 8 x 4096, and
    ``add_addresses`` sets a row's bits in one bool-and-pack.  See
    :class:`MultiResolutionBitmap` for the estimator itself.
    """

    #: A component is considered saturated once this fraction of bits is set.
    SATURATION = 0.93

    def __init__(self, size: int, num_components: int = 8,
                 bits_per_component: int = 4096) -> None:
        if num_components < 1:
            raise ValueError("num_components must be >= 1")
        if bits_per_component < 8:
            raise ValueError("bits_per_component must be >= 8")
        self.num_components = num_components
        self.bits_per_component = bits_per_component
        self._words = np.zeros(
            (size, num_components, -(-bits_per_component // 64)),
            dtype=np.uint64)
        #: ``estimates()`` of the current words; dropped by every write.
        self._estimates = None

    def freeze(self) -> "BitmapBank":
        self._words.flags.writeable = False  # NumPy raises the ValueError
        return super().freeze()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._read_only:  # a pickle does not keep an array read-only
            self._words.flags.writeable = False

    def _check_geometry(self, other: "BitmapBank") -> None:
        if (other._words.shape != self._words.shape or
                other.bits_per_component != self.bits_per_component):
            raise ValueError("cannot merge bitmaps with different geometry")

    # ------------------------------------------------------------------
    def addresses(self, hashes: np.ndarray) -> np.ndarray:
        """The bit each hash sets in a row: its component times the padded
        component width plus its position there.

        Returned in the smallest unsigned dtype that holds every address
        of the geometry (``uint16`` for the default 8 x 4096).  What
        :meth:`add_addresses` takes; a row's bits depend on nothing else,
        so a batch's addresses can be computed once and gathered for every
        selection of it.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        width = self._words.shape[2] * 64
        dtype = np.min_scalar_type(self.num_components * width - 1)
        # Component i covers [1 - 2^-i, 1 - 2^-(i+1)) of the hash space
        # mapped to [0, 1); the last component absorbs the tail.
        # -log2(1 - v) gives the index directly (the float path decides
        # which side of a boundary a hash falls on; the floor of 1e-300
        # keeps a hash that rounds to v = 1 finite).
        unit = hashes.astype(np.float64) / float(2 ** 64)
        index_f = np.floor(-np.log2(np.maximum(1.0 - unit, 1e-300)))
        position = (hashes & _POSITION_MASK) % \
            np.uint64(self.bits_per_component)
        position += np.minimum(index_f, self.num_components - 1
                               ).astype(np.uint64) * np.uint64(width)
        return position.astype(dtype)

    def add_addresses(self, index: int, addresses: np.ndarray) -> None:
        """Set the bits at ``addresses`` (from :meth:`addresses`) in row
        ``index``."""
        if len(addresses) == 0:
            return
        words = self._words[index]
        bits = np.zeros(words.size * 64, dtype=bool)
        bits[addresses] = True
        words |= _pack(bits).reshape(words.shape)
        self._estimates = None

    def _estimate(self, words: np.ndarray) -> np.ndarray:
        """Estimate per row of a ``(rows, components, words)`` array."""
        b = float(self.bits_per_component)
        set_bits = np.bitwise_count(words).sum(axis=2)
        # Linear counting: n ~= -b * ln(unset / b); saturated components
        # (all bits set) get an effectively infinite estimate.
        estimates = -b * np.log(np.maximum(b - set_bits, 0.5) / b)
        # Base component: the first (widest-coverage) one that is not
        # saturated, or the last one when all are; it and every component
        # after it are usable.
        usable = set_bits / b < self.SATURATION
        usable[:, -1] = True
        base = usable.argmax(axis=1)
        if base.any():
            # Contiguous 1-D slices keep the summation order of a
            # stand-alone counter whatever the slice length.
            totals = np.array([row[start:].sum() for row, start
                               in zip(estimates, base.tolist())])
        else:
            totals = estimates.sum(axis=1)
        return totals / _tail_coverage(self.num_components)[base]

    def estimates(self) -> np.ndarray:
        if self._estimates is None:
            self._estimates = self._estimate(self._words)
            self._estimates.flags.writeable = False
        return self._estimates

    def new_estimates(self, other: "BitmapBank") -> np.ndarray:
        self._check_geometry(other)
        union = self._estimate(self._words | other._words)
        return np.maximum(union - self.estimates(), 0.0)

    def merge(self, other: "BitmapBank") -> None:
        self._check_geometry(other)
        self._words |= other._words
        self._estimates = None

    def copy(self) -> "BitmapBank":
        clone = BitmapBank.__new__(BitmapBank)
        clone.__dict__.update(self.__dict__)
        clone._words = self._words.copy()
        return clone


class MultiResolutionBitmap(DistinctCounter):
    """Multi-resolution bitmap distinct counter.

    The hash space ``[0, 1)`` is split into ``num_components`` geometrically
    shrinking slices; component ``i`` covers a fraction ``2^-(i+1)`` of the
    space (the last component covers the remaining tail).  Each component is
    a plain linear-counting bitmap of ``bits_per_component`` bits.  The
    estimator picks the *base*: the first (widest-coverage) component that
    is not saturated.  It adds up the linear-counting estimates of the base
    and of every finer component after it, and divides by the fraction of
    the hash space those components cover together.

    With the default dimensioning (8 components of 4096 bits, 4 KiB of
    state) the estimation error stays around 1% for cardinalities up to
    several hundred thousand, matching the dimensioning reported in
    Section 3.2.1.

    The counter is a :class:`BitmapBank` of one row, which holds the
    bit-packed storage and the popcount kernel.
    """

    def __init__(self, num_components: int = 8, bits_per_component: int = 4096,
                 ) -> None:
        self._bank = BitmapBank(1, num_components, bits_per_component)

    @property
    def num_components(self) -> int:
        return self._bank.num_components

    @property
    def bits_per_component(self) -> int:
        return self._bank.bits_per_component

    def add_hashes(self, hashes: np.ndarray) -> None:
        self._bank.add_addresses(0, self._bank.addresses(hashes))

    def estimate(self) -> float:
        return float(self._bank.estimates()[0])

    def new_estimate(self, other: "MultiResolutionBitmap") -> float:
        return float(self._bank.new_estimates(other._bank)[0])

    def merge(self, other: "MultiResolutionBitmap") -> None:
        self._bank.merge(other._bank)

    def copy(self) -> "MultiResolutionBitmap":
        clone = MultiResolutionBitmap.__new__(MultiResolutionBitmap)
        clone._bank = self._bank.copy()
        return clone

    def reset(self) -> None:
        self._bank = BitmapBank(1, self.num_components,
                                self.bits_per_component)

    @property
    def memory_bits(self) -> int:
        """Total number of bits of state (for overhead reporting)."""
        return self.num_components * self.bits_per_component


def make_counter(method: str = "bitmap", **kwargs) -> DistinctCounter:
    """Factory for distinct counters.

    ``method`` is ``"bitmap"`` (multi-resolution bitmap, the paper's choice)
    or ``"exact"``.
    """
    if method == "bitmap":
        return MultiResolutionBitmap(**kwargs)
    if method == "exact":
        return ExactDistinctCounter()
    raise ValueError(f"unknown distinct-counting method {method!r}")


def make_bank(method: str, size: int, **kwargs) -> CounterBank:
    """A bank of ``size`` empty counters of backend ``method``."""
    if method == "bitmap":
        return BitmapBank(size, **kwargs)
    return CounterBank([make_counter(method, **kwargs) for _ in range(size)])

