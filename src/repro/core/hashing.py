"""Hash functions used by the load shedding scheme.

Two families are provided:

* :class:`H3Hash` — the classical H3 universal hash family used by the
  flowwise flow-sampling load shedder (Section 4.2).  A fresh H3 function is
  drawn every measurement interval so that flow selection cannot be predicted
  or evaded by an adversary.
* :func:`mix64` / :func:`combine_columns` — a fast 64-bit mixing hash used to
  map traffic-aggregate keys (combinations of header fields, Table 3.1) to
  uniformly distributed values for the distinct counters.

All functions are vectorised over NumPy arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MUL_1 = _U64(0xBF58476D1CE4E5B9)
_MUL_2 = _U64(0x94D049BB133111EB)
_SHIFT_30, _SHIFT_27, _SHIFT_31 = _U64(30), _U64(27), _U64(31)
_COLUMN_SALT = _U64(0x9E3779B9)


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer applied to (and returned in) ``z``.

    ``uint64`` array arithmetic wraps modulo 2**64 silently, so there is
    nothing to mask; working in place keeps it to nine ufunc calls and no
    temporaries besides the two shifted copies — on a sub-batch of a few
    hundred packets the call overhead, not the arithmetic, is the cost.
    """
    z += _GOLDEN
    z ^= z >> _SHIFT_30
    z *= _MUL_1
    z ^= z >> _SHIFT_27
    z *= _MUL_2
    z ^= z >> _SHIFT_31
    return z


def mix64(keys: np.ndarray) -> np.ndarray:
    """SplitMix64-style finalizer: map 64-bit keys to well-mixed 64-bit hashes."""
    with np.errstate(over="ignore"):  # a NumPy scalar key does warn
        return _mix64_in_place(keys.astype(np.uint64, copy=True))


def combine_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Combine several integer header columns into one 64-bit key per packet.

    The combination hashes each column and mixes it into an accumulator so
    that e.g. ``(src_ip, dst_ip)`` and ``(dst_ip, src_ip)`` produce different
    keys.
    """
    if not columns:
        raise ValueError("at least one column is required")
    acc = None
    for col in columns:
        mixed = col.astype(np.uint64)  # always a copy: mixed in place below
        mixed += _COLUMN_SALT
        if acc is not None:  # the accumulator starts at zero
            mixed ^= acc
        acc = _mix64_in_place(mixed)
    return acc


class H3Hash:
    """An H3 universal hash function over fixed-width integer keys.

    H3 treats the key as a bit vector and XORs together the rows of a random
    matrix selected by the set key bits.  The family is 2-universal, which is
    what the flowwise sampler relies on for unbiased flow selection.

    Parameters
    ----------
    key_bits:
        Width of the input keys in bits (the 5-tuple key uses 104 bits in the
        paper; here keys are pre-mixed to 64 bits).
    out_bits:
        Width of the produced hash values.
    rng:
        Generator used to draw the random matrix; pass a seeded generator for
        reproducibility.
    """

    def __init__(self, key_bits: int = 64, out_bits: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 1 <= out_bits <= 64:
            raise ValueError("out_bits must be in [1, 64]")
        if not 1 <= key_bits <= 64:
            raise ValueError("key_bits must be in [1, 64]")
        rng = rng if rng is not None else np.random.default_rng()
        self.key_bits = key_bits
        self.out_bits = out_bits
        max_val = (1 << out_bits) - 1
        self._matrix = rng.integers(0, max_val + 1, size=key_bits,
                                    dtype=np.uint64)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """Hash an array of integer keys to ``out_bits``-bit values."""
        keys = np.asarray(keys, dtype=np.uint64)
        result = np.zeros(keys.shape, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for bit in range(self.key_bits):
                bit_set = (keys >> np.uint64(bit)) & np.uint64(1)
                result ^= bit_set * self._matrix[bit]
        return result

    def unit_interval(self, keys: np.ndarray) -> np.ndarray:
        """Hash keys and map the result uniformly to ``[0, 1)``."""
        return self(keys).astype(np.float64) / float(1 << self.out_bits)
