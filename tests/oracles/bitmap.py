"""The ``bool``-matrix multi-resolution bitmap, kept as a test oracle.

This is the implementation :class:`repro.core.distinct.MultiResolutionBitmap`
had before its rows were bit-packed: one NumPy ``bool`` byte per bit, every
read a full reduction, ``new_estimate`` through the base-class
copy/merge/estimate default (the oracles' own copy of the base class,
``oracles.counters``).  The class body is verbatim; the packed kernel must
reproduce its floats exactly (``tests/test_hashing_distinct.py``).  Test
code only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from oracles.counters import DistinctCounter


def unpack_words(words: np.ndarray, bits_per_component: int) -> np.ndarray:
    """One packed bitmap row, ``(components, words)`` uint64, as the bool
    matrix the oracle holds in ``_bits``."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little"
                         )[:, :bits_per_component].astype(bool)


class MultiResolutionBitmap(DistinctCounter):
    """Multi-resolution bitmap distinct counter.

    The hash space ``[0, 1)`` is split into ``num_components`` geometrically
    shrinking slices; component ``i`` covers a fraction ``2^-(i+1)`` of the
    space (the last component covers the remaining tail).  Each component is
    a plain linear-counting bitmap of ``bits_per_component`` bits.  The
    estimator picks the lowest-resolution *base* component that is not
    saturated and scales the linear-counting estimates of the base and all
    finer... coarser components by the fraction of hash space they cover.

    With the default dimensioning (8 components of 4096 bits) the estimation
    error stays around 1% for cardinalities up to several hundred thousand,
    matching the dimensioning reported in Section 3.2.1.
    """

    #: A component is considered saturated once this fraction of bits is set.
    SATURATION = 0.93

    def __init__(self, num_components: int = 8, bits_per_component: int = 4096,
                 ) -> None:
        if num_components < 1:
            raise ValueError("num_components must be >= 1")
        if bits_per_component < 8:
            raise ValueError("bits_per_component must be >= 8")
        self.num_components = num_components
        self.bits_per_component = bits_per_component
        self._bits = np.zeros((num_components, bits_per_component), dtype=bool)
        # Fraction of the hash space covered by each component.
        coverage = [2.0 ** -(i + 1) for i in range(num_components - 1)]
        coverage.append(2.0 ** -(num_components - 1))
        self._coverage = np.array(coverage)

    # ------------------------------------------------------------------
    def _component_of(self, unit: np.ndarray) -> np.ndarray:
        """Component index for hash values mapped to [0, 1)."""
        # Component i covers [1 - 2^-i, 1 - 2^-(i+1)); the last component
        # absorbs the tail.  -log2(1 - v) gives the index directly.
        with np.errstate(divide="ignore"):
            idx = np.floor(-np.log2(np.clip(1.0 - unit, 1e-300, 1.0)))
        return np.minimum(idx.astype(np.int64), self.num_components - 1)

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        hashes = np.asarray(hashes, dtype=np.uint64)
        unit = hashes.astype(np.float64) / float(2 ** 64)
        comp = self._component_of(unit)
        # Use independent bits of the hash for the within-component position
        # so the position is not correlated with the component choice.
        position = (hashes & np.uint64(0xFFFFFFFF)).astype(np.int64) \
            % self.bits_per_component
        self._bits[comp, position] = True

    def _component_estimates(self) -> np.ndarray:
        """Per-component linear-counting estimates."""
        b = float(self.bits_per_component)
        set_bits = self._bits.sum(axis=1).astype(np.float64)
        # Linear counting: n ~= -b * ln(unset / b); saturated components
        # (all bits set) get an effectively infinite estimate.
        unset = np.maximum(b - set_bits, 0.5)
        return -b * np.log(unset / b)

    def estimate(self) -> float:
        estimates = self._component_estimates()
        fill = self._bits.mean(axis=1)
        # Base component: the first (coarsest-coverage) component that is not
        # saturated; all components from it onwards are usable.
        usable = np.flatnonzero(fill < self.SATURATION)
        if len(usable) == 0:
            base = self.num_components - 1
        else:
            base = int(usable[0])
        covered = self._coverage[base:].sum()
        return float(estimates[base:].sum() / covered)

    def merge(self, other: "MultiResolutionBitmap") -> None:
        if (other.num_components != self.num_components or
                other.bits_per_component != self.bits_per_component):
            raise ValueError("cannot merge bitmaps with different geometry")
        self._bits |= other._bits

    def copy(self) -> "MultiResolutionBitmap":
        clone = MultiResolutionBitmap(self.num_components,
                                      self.bits_per_component)
        clone._bits = self._bits.copy()
        return clone

    def reset(self) -> None:
        self._bits[:] = False

    @property
    def memory_bits(self) -> int:
        """Total number of bits of state (for overhead reporting)."""
        return self.num_components * self.bits_per_component
