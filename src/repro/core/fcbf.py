"""Feature selection with a Fast Correlation-Based Filter variant.

Section 3.2.3: before fitting the multiple linear regression, the system
selects the subset of traffic features that is relevant and non-redundant for
predicting a query's CPU usage.  The paper uses a variant of FCBF (Yu & Liu)
with the absolute linear correlation coefficient as the goodness measure
instead of symmetrical uncertainty:

1. *Relevance*: keep the predictors whose ``|corr(X_i, Y)|`` is at least the
   FCBF threshold.
2. *Redundancy removal*: walk the surviving predictors in decreasing order of
   relevance; a predictor is dropped if its correlation with an
   already-accepted predictor exceeds its own correlation with the response.

The default threshold (0.6) is the trade-off point identified in
Section 3.3.1.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def fcbf_select(
    features: np.ndarray,
    response: np.ndarray,
    threshold: float = 0.6,
    feature_names: Sequence[str] = None,
) -> List[int]:
    """Select relevant, non-redundant predictor columns.

    Parameters
    ----------
    features:
        ``(n, p)`` matrix of feature observations.
    response:
        Length-``n`` response vector (measured CPU cycles).
    threshold:
        FCBF relevance threshold in ``[0, 1)``.
    feature_names:
        Unused except for validation of dimensions; kept so call sites read
        naturally.

    Returns
    -------
    list of int
        Indices of the selected feature columns, ordered by decreasing
        relevance.  If no feature passes the threshold the single most
        correlated feature is returned, so the regression always has at
        least one predictor.
    """
    features = np.asarray(features, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n, p = features.shape
    if len(response) != n:
        raise ValueError("response length must match number of observations")
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    if feature_names is not None and len(feature_names) != p:
        raise ValueError("feature_names length must match feature columns")

    # FCBF runs on every prediction of every query (Section 3.2.3), so the
    # per-pair work must be minimal.  The centered columns and their sums of
    # squares are hoisted out of the correlation loops; each individual
    # operation keeps the exact order of the scalar Pearson correlation, so
    # the selection is bit-identical to computing every correlation from
    # scratch (``tests/oracles/scalar.py``, held to it by the tests).
    if n < 2:
        return [0]
    # One centered, contiguous row per feature; the axis-1 reductions below
    # visit elements in the same order as the per-column scalar ops, so
    # every correlation is bit-identical to the scalar one.
    columns = np.ascontiguousarray(features.T)
    centered = columns - columns.mean(axis=1)[:, None]
    ssq = (centered * centered).sum(axis=1)
    yd = response - response.mean()
    y_ssq = (yd * yd).sum()

    def _correlations(vector: np.ndarray, vector_ssq: float) -> np.ndarray:
        """|corr(vector, feature_j)| for every feature at once."""
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.sqrt(ssq * vector_ssq)
            corr = np.abs(np.clip((centered * vector).sum(axis=1) / denom,
                                  -1.0, 1.0))
        return np.where(denom > 0.0, corr, 0.0)

    relevance = _correlations(yd, y_ssq)

    # Phase 1: relevance filtering.
    candidates = [j for j in range(p) if relevance[j] >= threshold]
    if not candidates:
        # Fall back to the single best predictor so MLR can still run.
        return [int(np.argmax(relevance))]

    # Phase 2: redundancy removal, scanning by decreasing relevance.
    candidates.sort(key=lambda j: relevance[j], reverse=True)
    selected: List[int] = []
    remaining = list(candidates)
    while remaining:
        best = remaining.pop(0)
        selected.append(best)
        if not remaining:
            break
        cross = _correlations(centered[best], ssq[best])
        remaining = [j for j in remaining if cross[j] < relevance[j]]
    return selected


def selection_cost(n_observations: int, n_features: int,
                   cycles_per_correlation: float = 1.0) -> float:
    """Simulated cycle cost of running FCBF.

    The FCBF complexity is ``O(n p log p)``; the constant is tuned so that,
    relative to the query costs of the standard set, the selection overhead
    lands around the ~1.7% share reported in Table 3.4.
    """
    p = max(n_features, 1)
    return cycles_per_correlation * n_observations * p * (1.0 + np.log2(p)) / 10.0
