"""Hash functions used by the load shedding scheme.

Three families are provided:

* :class:`H3Hash` — the classical H3 universal hash family used by the
  flowwise flow-sampling load shedder (Section 4.2).  A fresh H3 function is
  drawn every measurement interval so that flow selection cannot be predicted
  or evaded by an adversary.
* :func:`combine_columns` — a fast 64-bit mixing hash (the SplitMix64
  finalizer) used to map traffic-aggregate keys (combinations of header
  fields, Table 3.1) to uniformly distributed values for the distinct
  counters.
* :func:`splitmix_stream` / :func:`stream_key` — the counter-based SplitMix64
  generator (Steele, Lea & Flood, OOPSLA 2014) the load shedders draw from:
  a query's packet-sampling coins and its H3 matrices are outputs of one
  stream keyed by the system seed and the query's name, so they do not
  depend on which other queries run.

All functions are vectorised over NumPy arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MUL_1 = _U64(0xBF58476D1CE4E5B9)
_MUL_2 = _U64(0x94D049BB133111EB)
_SHIFT_30, _SHIFT_27, _SHIFT_31 = _U64(30), _U64(27), _U64(31)
_COLUMN_SALT = _U64(0x9E3779B9)
_MASK_64 = (1 << 64) - 1
_FNV_OFFSET, _FNV_PRIME = 0xCBF29CE484222325, 0x100000001B3


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


def splitmix_stream(key: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start + count - 1`` of SplitMix64 seeded by ``key``.

    Output ``i`` is the finalizer of ``key + (i + 1) * golden``, so any
    stretch of the stream is computed directly from its position: a
    consumer keeps a counter, not a generator.
    """
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _GOLDEN
    z += _U64(key & _MASK_64)
    return _mix64_in_place(z)


def stream_key(seed: int, name: str) -> int:
    """The 64-bit key of the stream named ``name`` under ``seed``.

    The name's 64-bit FNV-1a digest is mixed with the seed by
    :func:`combine_columns`.  Both are full 64-bit values, so two names'
    streams start ~2**63 outputs apart on average and never meet in a run.
    """
    digest = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        digest = ((digest ^ byte) * _FNV_PRIME) & _MASK_64
    key = combine_columns((np.array([seed & _MASK_64], dtype=np.uint64),
                           np.array([digest], dtype=np.uint64)))
    return int(key[0])


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
    key, draw:
        The matrix is draw ``draw`` of the stream keyed by ``key``
        (:func:`splitmix_stream`): its rows are the top ``out_bits`` bits of
        outputs ``draw * key_bits .. draw * key_bits + key_bits - 1``.
    """

    def __init__(self, key_bits: int = 64, out_bits: int = 32,
                 key: int = 0, draw: int = 0) -> None:
        if not 1 <= out_bits <= 64:
            raise ValueError("out_bits must be in [1, 64]")
        if not 1 <= key_bits <= 64:
            raise ValueError("key_bits must be in [1, 64]")
        self.key_bits = key_bits
        self.out_bits = out_bits
        self._matrix = splitmix_stream(key, draw * key_bits, key_bits) \
            >> _U64(64 - out_bits)

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
