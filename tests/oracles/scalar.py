"""Scalar reference twins of vectorised kernels, kept as test oracles.

* :func:`boyer_moore_horspool` — the search algorithm whose cost structure
  the pattern-search query charges; the query scans with ``bytes.find``
  over joined payloads (:func:`repro.core.aggregate.payload_hits`).
* :func:`linear_correlation` and :func:`fcbf_select_scalar` — FCBF
  feature selection with every correlation computed from scratch, the
  specification :func:`repro.core.fcbf.fcbf_select` reproduces with its
  hoisted, vectorised correlations.
* :func:`aggregate_batch` — per-batch ``(sorted keys, sums)``, the input
  shape :meth:`repro.core.aggregate.KeyedAccumulator.observe` takes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.distinct import sorted_unique


def boyer_moore_horspool(haystack: bytes, needle: bytes) -> int:
    """Return the index of ``needle`` in ``haystack`` or -1 if absent."""
    n, m = len(haystack), len(needle)
    if m == 0:
        return 0
    if m > n:
        return -1
    shift = {byte: m - index - 1 for index, byte in enumerate(needle[:-1])}
    default_shift = m
    position = 0
    while position <= n - m:
        if haystack[position:position + m] == needle:
            return position
        next_char = haystack[position + m - 1]
        position += shift.get(next_char, default_shift)
    return -1


def linear_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson linear correlation coefficient, with degenerate-input care.

    Constant series have zero variance; their correlation with anything is
    defined here as 0 so that constant features are never selected.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError("series must have the same length")
    if len(x) < 2:
        return 0.0
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom <= 0.0:
        return 0.0
    return float(np.clip((xd * yd).sum() / denom, -1.0, 1.0))


def fcbf_select_scalar(features: np.ndarray, response: np.ndarray,
                       threshold: float = 0.6) -> List[int]:
    """FCBF (Section 3.2.3) with one :func:`linear_correlation` per pair."""
    features = np.asarray(features, dtype=np.float64)
    n, p = features.shape
    if n < 2:
        return [0]
    relevance = [abs(linear_correlation(features[:, j], response))
                 for j in range(p)]
    candidates = [j for j in range(p) if relevance[j] >= threshold]
    if not candidates:
        return [int(np.argmax(relevance))]
    candidates.sort(key=lambda j: relevance[j], reverse=True)
    selected: List[int] = []
    remaining = list(candidates)
    while remaining:
        best = remaining.pop(0)
        selected.append(best)
        remaining = [j for j in remaining
                     if abs(linear_correlation(features[:, best],
                                               features[:, j]))
                     < relevance[j]]
    return selected


def aggregate_batch(keys: np.ndarray, weights: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate per-packet values by key within one batch.

    Returns ``(unique_keys, sums)`` where ``unique_keys`` is sorted and
    ``sums[i]`` is the total weight (or the occurrence count when
    ``weights`` is None) of ``unique_keys[i]``.
    """
    if weights is None:
        unique, counts = sorted_unique(keys, return_counts=True)
        return unique, counts.astype(np.float64)
    unique, inverse = sorted_unique(keys, return_inverse=True)
    return unique, np.bincount(inverse, weights=weights,
                               minlength=len(unique))
