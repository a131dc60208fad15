"""Linear regression machinery (Section 3.2.2).

The prediction subsystem models the CPU usage of a query as a linear function
of a subset of the traffic features.  The coefficients are estimated with
ordinary least squares computed through the singular value decomposition,
exactly as in the paper (SVD handles over- and under-determined systems and
near-collinear predictors gracefully).

Two thin wrappers are provided on top of the solver:

* :class:`MultipleLinearRegression` — fit on ``n`` past observations of ``p``
  predictors (plus an intercept) and predict the response for new batches;
* :class:`SlidingHistory` — the fixed-length history of
  ``(feature vector, measured cycles)`` pairs the regressions are fitted on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def ols_svd(design: np.ndarray, response: np.ndarray,
            rcond: float = 1e-10) -> np.ndarray:
    """Ordinary least squares via singular value decomposition.

    Returns the coefficient vector ``b`` minimising ``||design @ b - response||``.
    Singular values below ``rcond`` times the largest are treated as zero,
    which keeps the solution stable when predictors are collinear.
    """
    design = np.asarray(design, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if len(design) != len(response):
        raise ValueError("design and response must have the same length")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = rcond * (s[0] if len(s) else 0.0)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return vt.T @ (s_inv * (u.T @ response))


class MultipleLinearRegression:
    """Multiple linear regression with an intercept term.

    ``fit`` estimates the coefficients from observations; ``predict`` applies
    them to new predictor vectors.  With a single predictor this degenerates
    to the paper's SLR baseline.
    """

    def __init__(self) -> None:
        self.intercept_: float = 0.0
        self.coefficients_: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self.coefficients_ is not None

    def fit(self, predictors: np.ndarray, response: np.ndarray
            ) -> "MultipleLinearRegression":
        """Fit on an ``(n, p)`` predictor matrix and length-``n`` response."""
        predictors = np.atleast_2d(np.asarray(predictors, dtype=np.float64))
        response = np.asarray(response, dtype=np.float64)
        n = len(response)
        if predictors.shape[0] != n:
            raise ValueError("predictors and response must have equal length")
        design = np.column_stack([np.ones(n), predictors])
        coefficients = ols_svd(design, response)
        self.intercept_ = float(coefficients[0])
        self.coefficients_ = coefficients[1:]
        return self

    def predict(self, predictors: np.ndarray) -> np.ndarray:
        """Predict responses for an ``(m, p)`` matrix (or a single vector)."""
        if not self.is_fitted:
            raise RuntimeError("regression model has not been fitted")
        predictors = np.asarray(predictors, dtype=np.float64)
        single = predictors.ndim == 1
        matrix = np.atleast_2d(predictors)
        result = self.intercept_ + matrix @ self.coefficients_
        return float(result[0]) if single else result


class SlidingHistory:
    """Fixed-length history of (features, cycles) observations.

    The history length ``n`` is the "amount of history" parameter studied in
    Section 3.3.1 (60 batches, i.e. 6 s, by default).

    Storage is a preallocated ``2 * length`` slide buffer: appends write at a
    moving cursor, and only when the cursor runs off the end are the last
    ``length`` rows block-copied back to the front.  The window is therefore
    always a contiguous slice, so :meth:`feature_matrix` and
    :meth:`responses` are zero-copy views — no per-prediction ``vstack``.
    The views alias live storage: they are valid until the next ``append``
    and must not be mutated (every consumer feeds them straight into a
    fit/selection pass, which copies).

    :attr:`version` counts every mutation (append / clear), so
    predictors can skip refitting when the window genuinely did not change.
    """

    def __init__(self, length: int = 60) -> None:
        if length < 2:
            raise ValueError("history length must be >= 2")
        self.length = length
        #: Lazily allocated on the first append, once the feature width is
        #: known (a cleared history may be refilled with a new width).
        self._features: Optional[np.ndarray] = None
        self._cycles = np.zeros(2 * length, dtype=np.float64)
        self._pos = 0
        self._count = 0
        self._version = 0

    def __len__(self) -> int:
        return self._count

    @property
    def version(self) -> int:
        """Monotone mutation counter; unchanged value ⇒ unchanged window."""
        return self._version

    @property
    def width(self) -> int:
        """Feature-vector width of the stored observations (0 when empty)."""
        return 0 if self._features is None else int(self._features.shape[1])

    def append(self, features: np.ndarray, cycles: float) -> None:
        row = np.asarray(features, dtype=np.float64).reshape(-1)
        if self._features is None:
            self._features = np.zeros((2 * self.length, row.shape[0]),
                                      dtype=np.float64)
        elif row.shape[0] != self._features.shape[1]:
            if self._count:
                raise ValueError(
                    f"feature width changed mid-history: expected "
                    f"{self._features.shape[1]}, got {row.shape[0]}")
            self._features = np.zeros((2 * self.length, row.shape[0]),
                                      dtype=np.float64)
        if self._pos == 2 * self.length:
            # Cursor ran off the end: slide the window back to the front.
            self._features[:self.length] = self._features[self.length:]
            self._cycles[:self.length] = self._cycles[self.length:]
            self._pos = self.length
        self._features[self._pos] = row
        self._cycles[self._pos] = float(cycles)
        self._pos += 1
        self._count = min(self._count + 1, self.length)
        self._version += 1

    def feature_matrix(self, indices: Optional[Sequence[int]] = None
                       ) -> np.ndarray:
        """Return the stored feature vectors as an ``(n, p)`` matrix.

        ``indices`` optionally selects a subset of feature columns.  Without
        ``indices`` the result is a zero-copy view of the live buffer (valid
        until the next append; do not mutate); column selection copies.
        """
        if self._count == 0 or self._features is None:
            return np.empty((0, 0))
        matrix = self._features[self._pos - self._count:self._pos]
        if indices is not None and matrix.size:
            matrix = matrix[:, list(indices)]
        return matrix

    def responses(self) -> np.ndarray:
        """The response vector, as a zero-copy view of the live buffer."""
        return self._cycles[self._pos - self._count:self._pos]

    def clear(self) -> None:
        self._features = None
        self._pos = 0
        self._count = 0
        self._version += 1

    def observations(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full (features, cycles) history as arrays."""
        return self.feature_matrix(), self.responses()
