"""CPU-usage predictors (Chapter 3).

Three predictors share a common interface:

* :class:`MLRPredictor` — the paper's method: FCBF feature selection over a
  sliding history followed by multiple linear regression (fit via SVD).
* :class:`SLRPredictor` — simple linear regression on a single, fixed
  feature (the number of packets by default), the first baseline.
* :class:`EWMAPredictor` — exponentially weighted moving average of the past
  CPU usage, ignoring the traffic entirely, the second baseline.

The interface is deliberately tiny because the load shedding scheme treats
queries as black boxes: ``predict`` maps the features of the next batch to
expected cycles, and ``observe`` feeds back the measured cycles afterwards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from .fcbf import fcbf_select, selection_cost
from .features import FEATURE_NAMES, FeatureVector
from .regression import MultipleLinearRegression, SlidingHistory

#: Default history length: 60 batches = 6 s of traffic (Section 3.3.1).
DEFAULT_HISTORY = 60
#: Default FCBF threshold (Section 3.3.1).
DEFAULT_FCBF_THRESHOLD = 0.6
#: Default EWMA weight (Section 3.4.1, Figure 3.10).
DEFAULT_EWMA_ALPHA = 0.3


class CyclePredictor(ABC):
    """Interface of per-query CPU-cycle predictors."""

    @abstractmethod
    def predict(self, features: FeatureVector) -> float:
        """Predicted cycles the query will need for a batch with ``features``."""

    @abstractmethod
    def observe(self, features: FeatureVector, cycles: float) -> None:
        """Record the measured cycles for a batch with ``features``."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all history."""

    @property
    def overhead_cycles(self) -> float:
        """Simulated cycles consumed by the last ``predict`` call."""
        return 0.0

    @property
    def fitted(self) -> bool:
        """Whether :meth:`predict` answers from a model of the history, not
        from a warm-up fallback (a non-zero EWMA prediction always does)."""
        return True


class EWMAPredictor(CyclePredictor):
    """Exponentially weighted moving average of past CPU usage.

    ``prediction(t+1) = alpha * cycles(t) + (1 - alpha) * prediction(t)``.
    """

    def __init__(self, alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self._estimate: Optional[float] = None

    def predict(self, features: FeatureVector) -> float:
        return float(self._estimate) if self._estimate is not None else 0.0

    def observe(self, features: FeatureVector, cycles: float) -> None:
        if self._estimate is None:
            self._estimate = float(cycles)
        else:
            self._estimate = (self.alpha * float(cycles) +
                              (1.0 - self.alpha) * self._estimate)

    def reset(self) -> None:
        self._estimate = None


def _feature_values(features) -> np.ndarray:
    """Accept either a :class:`FeatureVector` or a plain array of values."""
    return np.asarray(getattr(features, "values", features), dtype=np.float64)


class SLRPredictor(CyclePredictor):
    """Simple linear regression on a single, fixed traffic feature."""

    def __init__(self, feature: str = "packets",
                 history: int = DEFAULT_HISTORY) -> None:
        if feature not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {feature!r}")
        self.feature = feature
        self._feature_index = FEATURE_NAMES.index(feature)
        self.history = SlidingHistory(history)
        self._model = MultipleLinearRegression()
        self._fit_version: Optional[int] = None

    def predict(self, features: FeatureVector) -> float:
        if len(self.history) < 2:
            # Not enough observations: fall back to the last measured value.
            responses = self.history.responses()
            return float(responses[-1]) if len(responses) else 0.0
        if self._fit_version != self.history.version \
                or not self._model.is_fitted:
            matrix = self.history.feature_matrix([self._feature_index])
            self._model.fit(matrix, self.history.responses())
            self._fit_version = self.history.version
        values = _feature_values(features)
        prediction = self._model.predict(
            np.array([values[self._feature_index]]))
        return max(0.0, float(prediction))

    def observe(self, features: FeatureVector, cycles: float) -> None:
        self.history.append(_feature_values(features), cycles)

    @property
    def fitted(self) -> bool:
        return len(self.history) >= 2

    def reset(self) -> None:
        self.history.clear()
        self._model = MultipleLinearRegression()
        self._fit_version = None


class MLRPredictor(CyclePredictor):
    """FCBF feature selection + multiple linear regression (the paper's method).

    Feature selection reruns whenever the history window changed since the
    last fit, so the model adapts when traffic changes make the previous
    feature set obsolete (Section 3.1).  When the window is *unchanged*
    (e.g. a fully shed query whose measurements never arrive), the selected
    set and the fitted model are reused — the memo only skips real CPU; the
    simulated overhead charge is computed identically either way, so results
    stay bit-identical.  The selected feature names are exposed through
    :attr:`selected_features` for reporting (Table 3.2).
    """

    def __init__(self, history: int = DEFAULT_HISTORY,
                 fcbf_threshold: float = DEFAULT_FCBF_THRESHOLD,
                 feature_names: Sequence[str] = FEATURE_NAMES) -> None:
        self.history = SlidingHistory(history)
        self.fcbf_threshold = float(fcbf_threshold)
        self.feature_names = tuple(feature_names)
        self._model = MultipleLinearRegression()
        self._selected: List[int] = []
        self._overhead = 0.0
        self._fit_version: Optional[int] = None
        #: Cycle cost charged per coefficient of the fitted MLR; with FCBF
        #: pruning this keeps the regression share of the overhead small
        #: (Table 3.4).
        self.cycles_per_mlr_term = 3.0

    # ------------------------------------------------------------------
    @property
    def selected_features(self) -> List[str]:
        """Names of the features used by the most recent prediction."""
        return [self.feature_names[i] for i in self._selected]

    @property
    def overhead_cycles(self) -> float:
        return self._overhead

    # ------------------------------------------------------------------
    def predict(self, features: FeatureVector) -> float:
        n = len(self.history)
        if n < 2:
            responses = self.history.responses()
            return float(responses[-1]) if len(responses) else 0.0
        if self._fit_version != self.history.version \
                or not self._model.is_fitted:
            matrix, responses = self.history.observations()
            self._selected = fcbf_select(matrix, responses,
                                         threshold=self.fcbf_threshold)
            selected_matrix = matrix[:, self._selected]
            self._model.fit(selected_matrix, responses)
            self._fit_version = self.history.version
        values = _feature_values(features)
        prediction = self._model.predict(values[self._selected])
        # The simulated charge models what the real system would pay each
        # bin; it must not depend on whether the memo hit.
        self._overhead = (
            selection_cost(n, self.history.width) +
            self.cycles_per_mlr_term * n * (len(self._selected) + 1))
        return max(0.0, float(prediction))

    def observe(self, features: FeatureVector, cycles: float) -> None:
        self.history.append(_feature_values(features), cycles)

    @property
    def fitted(self) -> bool:
        return len(self.history) >= 2

    def reset(self) -> None:
        self.history.clear()
        self._model = MultipleLinearRegression()
        self._selected = []
        self._overhead = 0.0
        self._fit_version = None


class PredictionErrorTracker:
    """Running statistics of relative prediction error.

    The relative error of one batch is ``|1 - predicted / actual|`` (the
    definition of Section 3.3); the tracker accumulates the series and
    provides the summary statistics used in the evaluation figures.
    """

    def __init__(self) -> None:
        self.errors: List[float] = []

    def record(self, predicted: float, actual: float) -> float:
        if actual <= 0.0:
            error = 0.0 if predicted <= 0.0 else 1.0
        else:
            error = abs(1.0 - predicted / actual)
        self.errors.append(error)
        return error

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors)) if self.errors else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.errors)) if self.errors else 0.0

    @property
    def maximum(self) -> float:
        return float(np.max(self.errors)) if self.errors else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.errors, q)) if self.errors else 0.0

    def series(self) -> np.ndarray:
        return np.array(self.errors, dtype=np.float64)


#: Valid predictor kinds accepted by :func:`make_predictor` (and validated
#: eagerly by :class:`~repro.monitor.config.SystemConfig`).
PREDICTOR_KINDS = ("mlr", "slr", "ewma")


def make_predictor(kind: str, **kwargs) -> CyclePredictor:
    """Factory: ``"mlr"``, ``"slr"`` or ``"ewma"``."""
    if kind == "mlr":
        return MLRPredictor(**kwargs)
    if kind == "slr":
        return SLRPredictor(**kwargs)
    if kind == "ewma":
        return EWMAPredictor(**kwargs)
    raise ValueError(f"unknown predictor kind {kind!r}; "
                     f"valid kinds: {PREDICTOR_KINDS}")
