"""Golden end-to-end regression tests.

One fixed-seed trace is calibrated once and run in all four operating
modes at half its calibrated capacity, as the chapter harnesses run their
comparisons, and the headline outcomes — drop fraction, mean sampling
rate, per-query accuracy — are pinned against stored tolerance bands.  A
second family of tests pins determinism: the same cells must produce
bit-identical :class:`ExecutionResult` series on a rerun.

The bands are deliberately wider than run-to-run variation (which is zero,
everything is seeded) to absorb numerical drift across NumPy versions; a
band violation means the physics of an operating mode changed, not noise.
"""

from typing import Dict, NamedTuple

import numpy as np
import pytest

from repro.experiments import runner, scenarios
from repro.monitor.system import ExecutionResult

#: The golden cells: one workload trace, one overload factor K, the query
#: set below, and the four modes of ``GOLDEN``.
GOLDEN_WORKLOAD = "cesca"
GOLDEN_TRACE_SEED = 686889577
GOLDEN_SCALE = 0.25
GOLDEN_OVERLOAD = 0.5
GOLDEN_QUERIES = ("counter", "flows", "top-k", "application")

#: Stored tolerance bands per mode (measured: predictive drop=0.000
#: rate=0.650 acc=0.978 | reactive drop=0.000 rate=0.700 acc=0.982 |
#: original drop=0.322 rate=0.800 acc=0.870 | reference exact).
GOLDEN = {
    "predictive": {
        "drop_fraction": (0.0, 0.02),
        "mean_sampling_rate": (0.45, 0.85),
        "mean_accuracy": (0.90, 1.0),
        "min_query_accuracy": 0.85,
    },
    "reactive": {
        "drop_fraction": (0.0, 0.05),
        "mean_sampling_rate": (0.50, 0.90),
        "mean_accuracy": (0.90, 1.0),
        "min_query_accuracy": 0.85,
    },
    "original": {
        "drop_fraction": (0.15, 0.50),
        "mean_sampling_rate": (0.60, 1.0),
        "mean_accuracy": (0.70, 0.97),
        "min_query_accuracy": 0.60,
    },
    "reference": {
        "drop_fraction": (0.0, 0.0),
        "mean_sampling_rate": (1.0, 1.0),
        "mean_accuracy": (1.0, 1.0),
        "min_query_accuracy": 1.0,
    },
}

#: The headline outcomes themselves, ``(drop_fraction, mean_sampling_rate,
#: mean_accuracy)``, for the harness's exact feature counting and for the
#: product default, bitmaps.  Only the predictive mode reads features, so
#: only its row differs between the two.  Compared to 1e-6 relative: room
#: for last-digit drift in ``log``/``lstsq`` across NumPy builds, a
#: thousand times less than the gap between the two columns.
GOLDEN_HEADLINES = {
    "exact": {
        "predictive": (0.0, 0.6500779050395846, 0.9780220336994752),
        "reactive": (0.0, 0.7004952243064546, 0.9817036242892363),
        "original": (0.3217906517445688, 0.8, 0.869954047494262),
        "reference": (0.0, 1.0, 1.0),
    },
    "bitmap": {
        "predictive": (0.0, 0.6503222654938998, 0.9760338105841325),
        "reactive": (0.0, 0.7004952243064546, 0.9817036242892363),
        "original": (0.3217906517445688, 0.8, 0.869954047494262),
        "reference": (0.0, 1.0, 1.0),
    },
}

#: The per-bin series behind those headlines, totalled over the run:
#: ``(query_cycles, predicted_cycles, mean_rate, dropped_packets)``.  Every
#: predicted cycle is a regression over the whole feature history, so these
#: move with any change to what an extractor returns in any bin.  Compared
#: to 1e-9 relative.
GOLDEN_SERIES_TOTALS = {
    "exact": {
        "predictive": (2504264.0, 5538820.460507785, 19.50233715118754, 0.0),
        "reactive": (3098562.0, 0.0, 21.01485672919364, 0.0),
        "original": (3735366.0, 0.0, 24.0, 2444.0),
        "reference": (5286530.0, 0.0, 30.0, 0.0),
    },
    "bitmap": {
        "predictive": (2505050.0, 5524821.213840083, 19.509667964816995, 0.0),
        "reactive": (3098562.0, 0.0, 21.01485672919364, 0.0),
        "original": (3735366.0, 0.0, 24.0, 2444.0),
        "reference": (5286530.0, 0.0, 30.0, 0.0),
    },
}

#: Frozen system seed of each cell, keyed by the cell's coordinates
#: (workload / overload / mode / strategy / predictor).  Every stored
#: expectation above was measured at these seeds.
GOLDEN_CELL_SEEDS = {
    "cesca/K=0.5/predictive/eq_srates/mlr": 539108683,
    "cesca/K=0.5/reactive/eq_srates/mlr": 949882144,
    "cesca/K=0.5/original/eq_srates/mlr": 623241081,
    "cesca/K=0.5/reference/eq_srates/mlr": 1211544256,
}


class Cell(NamedTuple):
    """One mode's execution, joined against the calibration's reference."""

    result: ExecutionResult
    accuracy: Dict[str, float]

    @property
    def drop_fraction(self) -> float:
        return self.result.drop_fraction

    @property
    def mean_sampling_rate(self) -> float:
        return self.result.mean_sampling_rate()

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(list(self.accuracy.values())))


def _cell_seed(mode: str) -> int:
    return GOLDEN_CELL_SEEDS[f"{GOLDEN_WORKLOAD}/K={GOLDEN_OVERLOAD:g}/"
                             f"{mode}/eq_srates/mlr"]


def _calibrate():
    """The golden trace, its calibrated capacity and reference execution."""
    trace = scenarios.build_workload(GOLDEN_WORKLOAD, seed=GOLDEN_TRACE_SEED,
                                     scale=GOLDEN_SCALE)
    return (trace, *runner.calibrate_capacity(GOLDEN_QUERIES, trace))


def _run_cells(calibrated, feature_method: str = "exact") -> Dict[str, Cell]:
    """Every mode at ``(1 - K)`` times the calibrated capacity."""
    trace, capacity, reference = calibrated
    cells = {}
    for mode in GOLDEN:
        config = runner.system_config(
            queries=GOLDEN_QUERIES, mode=mode, seed=_cell_seed(mode),
            feature_method=feature_method,
            cycles_per_second=capacity * (1.0 - GOLDEN_OVERLOAD))
        result = config.build().run(trace)
        cells[mode] = Cell(result, runner.accuracy_by_query(result, reference))
    return cells


@pytest.fixture(scope="module")
def calibrated():
    return _calibrate()


@pytest.fixture(scope="module")
def golden_run(calibrated):
    return _run_cells(calibrated)


@pytest.fixture(scope="module")
def bitmap_run(calibrated):
    """The golden cells again with the product-default feature back end, so
    the goldens cover the kernel a deployed system runs as well."""
    return _run_cells(calibrated, feature_method="bitmap")


@pytest.fixture(scope="module")
def rerun():
    """The golden cells from scratch: a new trace and a new calibration."""
    return _run_cells(_calibrate())


def _series_fingerprint(result):
    """The per-bin series that must be reproduced bit for bit."""
    return {
        "query_cycles": result.series("query_cycles"),
        "mean_rate": result.series("mean_rate"),
        "dropped_packets": result.series("dropped_packets"),
        "predicted_cycles": result.series("predicted_cycles"),
    }


class TestGoldenOutcomes:
    def test_matrix_shape(self, golden_run):
        """One trace x one overload x the four modes, one cell each."""
        assert list(golden_run) == [
            "predictive", "reactive", "original", "reference"]
        assert [cell.result.mode for cell in golden_run.values()] == \
            list(golden_run)

    @pytest.mark.parametrize("mode", list(GOLDEN))
    def test_mode_within_stored_tolerances(self, golden_run, mode):
        cell = golden_run[mode]
        bands = GOLDEN[mode]
        lo, hi = bands["drop_fraction"]
        assert lo <= cell.drop_fraction <= hi
        lo, hi = bands["mean_sampling_rate"]
        assert lo <= cell.mean_sampling_rate <= hi
        lo, hi = bands["mean_accuracy"]
        assert lo <= cell.mean_accuracy <= hi
        assert cell.accuracy, "accuracy join must not be empty"
        assert min(cell.accuracy.values()) >= bands["min_query_accuracy"]

    @pytest.mark.parametrize("mode", list(GOLDEN))
    @pytest.mark.parametrize("feature_method", list(GOLDEN_HEADLINES))
    def test_headline_outcomes_pinned(self, golden_run, bitmap_run,
                                      feature_method, mode):
        cell = (golden_run if feature_method == "exact" else bitmap_run)[mode]
        assert (cell.drop_fraction, cell.mean_sampling_rate,
                cell.mean_accuracy) == pytest.approx(
            GOLDEN_HEADLINES[feature_method][mode], rel=1e-6)

    @pytest.mark.parametrize("mode", list(GOLDEN))
    @pytest.mark.parametrize("feature_method", list(GOLDEN_SERIES_TOTALS))
    def test_series_totals_pinned(self, golden_run, bitmap_run,
                                  feature_method, mode):
        result = (golden_run if feature_method == "exact"
                  else bitmap_run)[mode].result
        assert tuple(
            float(result.series(name).sum())
            for name in ("query_cycles", "predicted_cycles", "mean_rate",
                         "dropped_packets")) == pytest.approx(
            GOLDEN_SERIES_TOTALS[feature_method][mode], rel=1e-9)

    def test_shedding_modes_beat_uncontrolled_drops(self, golden_run):
        assert golden_run["predictive"].mean_accuracy > \
            golden_run["original"].mean_accuracy
        assert golden_run["predictive"].drop_fraction < \
            golden_run["original"].drop_fraction


class TestDeterminism:
    def test_serial_rerun_is_bit_identical(self, golden_run, rerun):
        for mode, first in golden_run.items():
            second = rerun[mode]
            first_series = _series_fingerprint(first.result)
            second_series = _series_fingerprint(second.result)
            for name in first_series:
                assert np.array_equal(first_series[name],
                                      second_series[name]), name
            assert first.accuracy == second.accuracy

    def test_query_logs_identical_across_reruns(self, golden_run, rerun):
        for mode, first in golden_run.items():
            for name, log in first.result.query_logs.items():
                assert log.results == \
                    rerun[mode].result.query_logs[name].results
