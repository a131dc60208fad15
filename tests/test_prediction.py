"""Tests for regression, FCBF feature selection and the cycle predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scalar import fcbf_select_scalar, linear_correlation
from repro.core.fcbf import fcbf_select
from repro.core.features import FEATURE_NAMES, NUM_FEATURES, FeatureVector
from repro.core.prediction import (EWMAPredictor, MLRPredictor,
                                   PredictionErrorTracker, SLRPredictor,
                                   make_predictor)
from repro.core.regression import (MultipleLinearRegression, SlidingHistory,
                                   ols_svd)


def _vector(packets, new_flows=0.0, bytes_=None):
    values = np.zeros(NUM_FEATURES)
    values[0] = packets
    values[1] = bytes_ if bytes_ is not None else packets * 500
    values[FEATURE_NAMES.index("five_tuple_new")] = new_flows
    return FeatureVector(values)


class TestOlsSvd:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        design = np.column_stack([np.ones(100), x])
        beta = np.array([5.0, 2.0, -1.0, 0.5])
        y = design @ beta
        estimate = ols_svd(design, y)
        assert np.allclose(estimate, beta, atol=1e-8)

    def test_collinear_predictors_do_not_blow_up(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 1))
        design = np.column_stack([np.ones(50), x, 2 * x])  # collinear
        y = 3.0 + 4.0 * x[:, 0]
        estimate = ols_svd(design, y)
        prediction = design @ estimate
        assert np.allclose(prediction, y, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols_svd(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            ols_svd(np.zeros((3, 2)), np.zeros(4))


class TestMultipleLinearRegression:
    def test_fit_predict(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 100, size=(80, 2))
        y = 10.0 + 3.0 * x[:, 0] + 0.5 * x[:, 1]
        model = MultipleLinearRegression().fit(x, y)
        assert model.predict(np.array([10.0, 20.0])) == pytest.approx(50.0)
        assert np.allclose(model.predict(x), y, atol=1e-6)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            MultipleLinearRegression().predict(np.zeros(2))


class TestSlidingHistory:
    def test_max_length(self):
        history = SlidingHistory(length=5)
        for i in range(10):
            history.append(np.array([float(i)]), float(i))
        assert len(history) == 5
        assert history.responses()[0] == 5.0

    def test_feature_matrix_column_selection(self):
        history = SlidingHistory(length=4)
        history.append(np.array([1.0, 2.0, 3.0]), 1.0)
        history.append(np.array([4.0, 5.0, 6.0]), 2.0)
        matrix = history.feature_matrix([2])
        assert matrix.shape == (2, 1)
        assert matrix[1, 0] == 6.0


class TestLinearCorrelation:
    def test_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        assert linear_correlation(x, 2 * x + 3) == pytest.approx(1.0)
        assert linear_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_series(self):
        x = np.ones(10)
        assert linear_correlation(x, np.arange(10.0)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_correlation(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=50))
    @settings(deadline=None)
    def test_bounded(self, values):
        x = np.array(values)
        y = np.roll(x, 1) + 1.0
        assert -1.0 <= linear_correlation(x, y) <= 1.0


class TestFCBF:
    def test_selects_relevant_feature(self):
        rng = np.random.default_rng(3)
        n = 100
        features = rng.uniform(0, 1, size=(n, 5))
        response = 10 * features[:, 2] + rng.normal(0, 0.01, size=n)
        selected = fcbf_select(features, response, threshold=0.6)
        assert selected[0] == 2

    def test_removes_redundant_duplicate(self):
        rng = np.random.default_rng(4)
        n = 200
        base = rng.uniform(0, 1, size=n)
        features = np.column_stack([base, base * 2.0, rng.uniform(0, 1, n)])
        response = base * 5.0
        selected = fcbf_select(features, response, threshold=0.5)
        assert len([i for i in selected if i in (0, 1)]) == 1

    def test_falls_back_to_best_feature(self):
        rng = np.random.default_rng(5)
        features = rng.uniform(0, 1, size=(50, 4))
        response = rng.uniform(0, 1, size=50)
        selected = fcbf_select(features, response, threshold=0.99)
        assert len(selected) == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            fcbf_select(np.zeros((10, 2)), np.zeros(10), threshold=1.5)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
           st.integers(1, 8), st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    @settings(deadline=None)
    def test_equals_the_scalar_selection(self, seed, n, p, threshold):
        """The hoisted, vectorised correlations select exactly what one
        scalar correlation per pair selects — duplicated, scaled and
        constant columns included."""
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 4, size=(n, p)).astype(np.float64)
        features[:, -1] = features[:, 0] * 3.0  # redundant with column 0
        if p > 2:
            features[:, 1] = 1.0  # constant: never correlated
        response = features[:, 0] * 2.0 + rng.normal(0, 1, n)
        assert fcbf_select(features, response, threshold) == \
            fcbf_select_scalar(features, response, threshold)


class TestEWMAPredictor:
    def test_tracks_constant_series(self):
        predictor = EWMAPredictor(alpha=0.5)
        vector = _vector(100)
        for _ in range(10):
            predictor.observe(vector, 1000.0)
        assert predictor.predict(vector) == pytest.approx(1000.0, rel=1e-3)

    def test_ignores_features(self):
        predictor = EWMAPredictor()
        predictor.observe(_vector(100), 500.0)
        assert predictor.predict(_vector(100)) == predictor.predict(_vector(999))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.0)


class TestSLRPredictor:
    def test_learns_linear_cost(self):
        predictor = SLRPredictor(feature="packets", history=30)
        rng = np.random.default_rng(6)
        for _ in range(20):
            packets = rng.uniform(100, 1000)
            predictor.observe(_vector(packets), 50.0 * packets + 500.0)
        prediction = predictor.predict(_vector(400))
        assert prediction == pytest.approx(50.0 * 400 + 500.0, rel=0.02)

    def test_unknown_feature(self):
        with pytest.raises(ValueError):
            SLRPredictor(feature="not-a-feature")

    def test_insufficient_history_returns_last(self):
        predictor = SLRPredictor()
        assert predictor.predict(_vector(10)) == 0.0
        predictor.observe(_vector(10), 123.0)
        assert predictor.predict(_vector(10)) == 123.0


class TestMLRPredictor:
    def test_learns_two_feature_cost(self):
        predictor = MLRPredictor(history=40, fcbf_threshold=0.3)
        rng = np.random.default_rng(7)
        for _ in range(35):
            packets = rng.uniform(100, 1000)
            new_flows = rng.uniform(10, 200)
            cycles = 100.0 * packets + 400.0 * new_flows
            predictor.observe(_vector(packets, new_flows), cycles)
        prediction = predictor.predict(_vector(500, 100))
        assert prediction == pytest.approx(100.0 * 500 + 400.0 * 100, rel=0.05)

    def test_selected_features_reported(self):
        predictor = MLRPredictor(history=30, fcbf_threshold=0.5)
        rng = np.random.default_rng(8)
        for _ in range(25):
            packets = rng.uniform(100, 1000)
            predictor.observe(_vector(packets), 10.0 * packets)
        predictor.predict(_vector(300))
        assert "packets" in predictor.selected_features
        assert predictor.overhead_cycles > 0

    def test_negative_predictions_clamped(self):
        predictor = MLRPredictor(history=10, fcbf_threshold=0.0)
        for packets in (100.0, 200.0, 300.0):
            predictor.observe(_vector(packets), packets)
        assert predictor.predict(_vector(0.0)) >= 0.0


class TestFactoryAndTracker:
    def test_make_predictor(self):
        assert isinstance(make_predictor("mlr"), MLRPredictor)
        assert isinstance(make_predictor("slr"), SLRPredictor)
        assert isinstance(make_predictor("ewma"), EWMAPredictor)
        with pytest.raises(ValueError):
            make_predictor("nope")

    def test_error_tracker_statistics(self):
        tracker = PredictionErrorTracker()
        assert tracker.record(90.0, 100.0) == pytest.approx(0.1)
        assert tracker.record(100.0, 100.0) == 0.0
        assert tracker.record(0.0, 0.0) == 0.0
        assert tracker.record(5.0, 0.0) == 1.0
        assert tracker.mean == pytest.approx((0.1 + 0 + 0 + 1) / 4)
        assert tracker.maximum == 1.0
        assert 0.0 <= tracker.percentile(95) <= 1.0
