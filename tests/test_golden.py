"""Golden end-to-end regression tests.

A fixed-seed scenario matrix is executed in all four operating modes and the
headline outcomes — drop fraction, mean sampling rate, per-query accuracy —
are pinned against stored tolerance bands.  A second family of tests pins the
determinism contract of the scenario engine: the same matrix must produce
bit-identical :class:`ExecutionResult` series on repeated serial runs and
across the serial and process-pool execution paths.

The bands are deliberately wider than run-to-run variation (which is zero,
everything is seeded) to absorb numerical drift across NumPy versions; a
band violation means the physics of an operating mode changed, not noise.
"""

import numpy as np
import pytest

from repro.experiments import parallel, runner

#: The golden matrix: one trace, one overload, all four modes.
GOLDEN_MATRIX = parallel.ScenarioMatrix(
    traces=("cesca",),
    overloads=(0.5,),
    modes=("predictive", "reactive", "original", "reference"),
    scale=0.25,
    base_seed=2024,
)

#: Stored tolerance bands per mode (measured: predictive drop=0.000
#: rate=0.667 acc=0.959 | reactive drop=0.000 rate=0.718 acc=0.971 |
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
        "predictive": (0.0, 0.6669944983993088, 0.958724131167987),
        "reactive": (0.0, 0.7181954811680562, 0.9706672018902243),
        "original": (0.3217906517445688, 0.8, 0.869954047494262),
        "reference": (0.0, 1.0, 1.0),
    },
    "bitmap": {
        "predictive": (0.0, 0.6655995646258919, 0.9593072792331024),
        "reactive": (0.0, 0.7181954811680562, 0.9706672018902243),
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
        "predictive": (2504356.0, 5448393.017266566, 20.009834951979265, 0.0),
        "reactive": (3098224.0, 0.0, 21.545864435041686, 0.0),
        "original": (3735366.0, 0.0, 24.0, 2444.0),
        "reference": (5286530.0, 0.0, 30.0, 0.0),
    },
    "bitmap": {
        "predictive": (2503908.0, 5422609.564941489, 19.967986938776757, 0.0),
        "reactive": (3098224.0, 0.0, 21.545864435041686, 0.0),
        "original": (3735366.0, 0.0, 24.0, 2444.0),
        "reference": (5286530.0, 0.0, 30.0, 0.0),
    },
}

#: Frozen cell seeds: the deterministic seed derivation is part of the
#: golden contract (changing it silently re-seeds every stored expectation).
GOLDEN_CELL_SEEDS = {
    "cesca/K=0.5/predictive/eq_srates/mlr": 539108683,
    "cesca/K=0.5/reactive/eq_srates/mlr": 949882144,
    "cesca/K=0.5/original/eq_srates/mlr": 623241081,
    "cesca/K=0.5/reference/eq_srates/mlr": 1211544256,
}


@pytest.fixture(scope="module")
def golden_run():
    return parallel.ParallelRunner(n_workers=1).run(GOLDEN_MATRIX)


@pytest.fixture(scope="module")
def bitmap_run(golden_run):
    """The golden cells again, by mode, with the product-default feature
    back end.

    The matrix runs the harness default, exact counting; this is the same
    trace, capacity, seed and reference under ``feature_method="bitmap"``,
    so the goldens cover the kernel a deployed system runs as well.
    """
    cells = {}
    for exact in golden_run:
        cell = exact.cell
        result = runner.run_system(
            cell.queries,
            parallel._memoised_trace(
                cell.trace, GOLDEN_MATRIX.trace_seed(cell.trace), cell.scale),
            exact.capacity * (1.0 - cell.overload), time_bin=cell.time_bin,
            config=cell.to_config().replace(feature_method="bitmap"))
        cells[cell.mode] = parallel.CellResult(
            cell=cell, capacity=exact.capacity, result=result,
            drop_fraction=result.drop_fraction,
            mean_sampling_rate=result.mean_sampling_rate(),
            accuracy=runner.accuracy_by_query(
                result, golden_run.reference_for(cell)))
    return cells


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
        assert len(golden_run) == 4
        assert [c.cell.mode for c in golden_run] == [
            "predictive", "reactive", "original", "reference"]

    def test_cell_seed_derivation_frozen(self):
        seeds = {cell.cell_id: cell.seed for cell in GOLDEN_MATRIX.cells()}
        assert seeds == GOLDEN_CELL_SEEDS

    @pytest.mark.parametrize("mode", list(GOLDEN))
    def test_mode_within_stored_tolerances(self, golden_run, mode):
        cell_result = golden_run.select(mode=mode)[0]
        bands = GOLDEN[mode]
        lo, hi = bands["drop_fraction"]
        assert lo <= cell_result.drop_fraction <= hi
        lo, hi = bands["mean_sampling_rate"]
        assert lo <= cell_result.mean_sampling_rate <= hi
        lo, hi = bands["mean_accuracy"]
        assert lo <= cell_result.mean_accuracy <= hi
        assert cell_result.accuracy, "accuracy join must not be empty"
        assert min(cell_result.accuracy.values()) >= \
            bands["min_query_accuracy"]

    @pytest.mark.parametrize("mode", list(GOLDEN))
    @pytest.mark.parametrize("feature_method", list(GOLDEN_HEADLINES))
    def test_headline_outcomes_pinned(self, golden_run, bitmap_run,
                                      feature_method, mode):
        cell_result = golden_run.select(mode=mode)[0] \
            if feature_method == "exact" else bitmap_run[mode]
        assert (cell_result.drop_fraction, cell_result.mean_sampling_rate,
                cell_result.mean_accuracy) == pytest.approx(
            GOLDEN_HEADLINES[feature_method][mode], rel=1e-6)

    @pytest.mark.parametrize("mode", list(GOLDEN))
    @pytest.mark.parametrize("feature_method", list(GOLDEN_SERIES_TOTALS))
    def test_series_totals_pinned(self, golden_run, bitmap_run,
                                  feature_method, mode):
        result = (golden_run.select(mode=mode)[0] if feature_method == "exact"
                  else bitmap_run[mode]).result
        assert tuple(
            float(result.series(name).sum())
            for name in ("query_cycles", "predicted_cycles", "mean_rate",
                         "dropped_packets")) == pytest.approx(
            GOLDEN_SERIES_TOTALS[feature_method][mode], rel=1e-9)

    def test_shedding_modes_beat_uncontrolled_drops(self, golden_run):
        by_mode = {c.cell.mode: c for c in golden_run}
        assert by_mode["predictive"].mean_accuracy > \
            by_mode["original"].mean_accuracy
        assert by_mode["predictive"].drop_fraction < \
            by_mode["original"].drop_fraction


class TestDeterminism:
    def test_serial_rerun_is_bit_identical(self, golden_run):
        rerun = parallel.ParallelRunner(n_workers=1).run(GOLDEN_MATRIX)
        for first, second in zip(golden_run, rerun):
            assert first.cell == second.cell
            first_series = _series_fingerprint(first.result)
            second_series = _series_fingerprint(second.result)
            for name in first_series:
                assert np.array_equal(first_series[name],
                                      second_series[name]), name
            assert first.accuracy == second.accuracy

    def test_parallel_matches_serial_bit_for_bit(self, golden_run):
        # respect_cores=False forces a real process pool even on single-core
        # hosts, so the fork path is always exercised.
        pooled = parallel.ParallelRunner(
            n_workers=2, respect_cores=False).run(GOLDEN_MATRIX)
        for serial_cell, pooled_cell in zip(golden_run, pooled):
            assert serial_cell.cell == pooled_cell.cell
            assert serial_cell.capacity == pooled_cell.capacity
            serial_series = _series_fingerprint(serial_cell.result)
            pooled_series = _series_fingerprint(pooled_cell.result)
            for name in serial_series:
                assert np.array_equal(serial_series[name],
                                      pooled_series[name]), name
            for name, log in serial_cell.result.query_logs.items():
                assert log.results == \
                    pooled_cell.result.query_logs[name].results
            assert serial_cell.accuracy == pooled_cell.accuracy

    def test_query_logs_identical_across_reruns(self, golden_run):
        rerun = parallel.ParallelRunner(n_workers=1).run(GOLDEN_MATRIX)
        for first, second in zip(golden_run, rerun):
            for name, log in first.result.query_logs.items():
                assert log.results == second.result.query_logs[name].results
