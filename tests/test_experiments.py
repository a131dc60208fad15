"""Tests for the experiment harness (small-scale sanity of each chapter)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import (chapter2, chapter3, chapter5, reporting,
                               runner, scenarios)
from repro.queries import QuerySpec, make_query

SCALE = 0.5


@pytest.fixture(scope="module")
def header_trace():
    return scenarios.header_trace(scale=SCALE, seed=31)


@pytest.fixture(scope="module")
def flows_observations(header_trace):
    return runner.collect_observations(make_query("flows"), header_trace)


class TestRunner:
    def test_collect_observations_lengths(self, flows_observations,
                                          header_trace):
        expected = header_trace.num_batches(runner.TIME_BIN)
        assert len(flows_observations.cycles) == expected
        assert len(flows_observations.features) == expected

    def test_evaluate_predictor_tracks_errors(self, flows_observations):
        from repro.core.prediction import MLRPredictor
        tracker = runner.evaluate_predictor(MLRPredictor(), flows_observations)
        assert len(tracker.errors) == len(flows_observations.cycles) - 2
        assert tracker.mean < 0.5

    def test_calibrate_capacity_positive(self, header_trace):
        capacity, reference = runner.calibrate_capacity(("counter", "flows"),
                                                        header_trace)
        assert capacity > 0
        assert reference.dropped_packets == 0

    def test_accuracy_vs_sampling_rate_monotone_ends(self, header_trace):
        curve = runner.accuracy_vs_sampling_rate("counter", header_trace,
                                                 rates=(0.3, 1.0))
        assert curve[1.0] >= curve[0.3] - 0.05
        assert curve[1.0] > 0.98

    @pytest.mark.parametrize("query_name", ["counter", "flows"])
    def test_standalone_walk_flushes_where_the_system_does(
            self, header_trace, query_name):
        """A query run with no system around it closes its measurement
        intervals at the bins the full system closes them, and logs the
        same results at full rate as the reference execution."""
        capacity, reference = runner.calibrate_capacity((query_name,),
                                                        header_trace)
        log = runner._standalone_log(make_query(query_name), header_trace,
                                     1.0, None, runner.TIME_BIN)
        online = reference.query_logs[query_name]
        assert len(log) > 1
        assert log.intervals == online.intervals
        assert log.results == online.results


def test_accuracy_scores_a_renamed_query_instance_by_kind():
    """Accuracy metrics are registered per query kind; a spec may name its
    instance anything, and the config says which kind it is."""
    config = runner.system_config(
        queries=(QuerySpec("counter", {"name": "q00"}), "flows"))
    trace = scenarios.build_workload("cesca", seed=3, scale=0.1)
    capacity, reference = runner.calibrate_capacity(config.queries, trace)
    result = config.replace(cycles_per_second=capacity * 0.5).build().run(
        trace)
    accuracy = runner.accuracy_by_query(result, reference,
                                        config.query_kinds())
    assert set(accuracy) == {"q00", "flows"}
    assert 0.0 < accuracy["q00"] <= 1.0


class TestChapter2:
    def test_cost_ranking(self, header_trace):
        result = chapter2.figure_2_2_query_costs(
            trace=scenarios.payload_trace(scale=0.4, seed=32))
        costs = result["cycles_per_second"]
        # Payload-inspection queries must dominate simple counters.
        assert costs["p2p-detector"] > costs["counter"]
        assert costs["pattern-search"] > costs["counter"]
        assert costs["counter"] <= min(costs["application"], costs["flows"])


class TestChapter3:
    def test_flow_anomaly_correlations(self):
        result = chapter3.figure_3_1_unknown_query_anomaly(scale=0.4)
        corr = result["correlation_with_cycles"]
        assert corr["five_tuple_flows"] > corr["bytes"]

    def test_mlr_beats_slr_for_flows(self, header_trace):
        result = chapter3.figure_3_4_slr_vs_mlr(trace=header_trace)
        assert result["mlr_mean_error"] <= result["slr_mean_error"]

    def test_baseline_comparison_ordering(self, header_trace):
        result = chapter3.figure_3_11_baseline_comparison(
            trace=header_trace, query_names=("counter", "flows", "top-k"))
        means = result["mean_error"]
        assert means["mlr"] <= means["slr"] + 0.02
        assert means["mlr"] < means["ewma"]

    def test_parameter_sweep_shapes(self, header_trace):
        result = chapter3.figure_3_5_parameter_sweep(
            trace=header_trace, histories=(10, 60), thresholds=(0.0, 0.6),
            query_names=("counter", "flows"))
        assert len(result["history_sweep"]) == 2
        assert len(result["threshold_sweep"]) == 2
        # Cost grows with history length.
        assert result["history_sweep"][1]["mean_cost_cycles"] >= \
            result["history_sweep"][0]["mean_cost_cycles"]

    def test_table_3_2_selected_features(self, header_trace):
        result = chapter3.table_3_2_error_by_query(
            trace=header_trace, query_names=("counter", "flows"))
        rows = {row["query"]: row for row in result["rows"]}
        assert "packets" in rows["counter"]["selected_features"]
        assert rows["counter"]["mean_error"] < 0.05

    def test_ddos_robustness_mlr_best(self):
        result = chapter3.figure_3_13_ddos_robustness(scale=0.4)
        assert result["mlr"]["mean_error"] <= result["ewma"]["mean_error"]


class TestChapter5:
    def test_simulation_surface_pkt_never_worse_on_minimum(self):
        result = chapter5.figure_5_1_simulation_surface(
            min_rates=(0.0, 0.4, 0.8), overloads=(0.0, 0.4, 0.8))
        assert np.all(result["minimum_accuracy_difference"] >= -1e-9)

    def test_min_srate_table_orders_queries(self, header_trace):
        result = chapter5.table_5_2_min_srates(
            trace=header_trace, query_names=("counter", "top-k"),
            rates=(0.1, 0.5, 1.0))
        rows = {row["query"]: row["min_sampling_rate"]
                for row in result["rows"]}
        assert rows["counter"] <= rows["top-k"]

    def test_nash_equilibrium_check(self):
        result = chapter5.nash_equilibrium_check(n_players=3, grid=60)
        assert result["equal_share_is_nash"]
        assert not result["greedy_profile_is_nash"]
        assert result["dynamics_converged"]
        assert result["distance_to_equal_share"] < 0.05


class TestReporting:
    def test_format_table(self):
        rows = [{"query": "counter", "error": 0.01},
                {"query": "flows", "error": 0.02}]
        text = reporting.format_table(rows, ["query", "error"], title="T")
        assert "counter" in text and "0.0200" in text


def test_import_repro_defers_the_harnesses_and_the_http_client():
    """Every forked job, CLI call and benchmark child imports the package;
    the chapter harnesses and ``urllib.request`` load when first used."""
    script = (
        "import sys\n"
        "import repro, repro.fleet, repro.serve\n"
        "from repro.fleet import FleetRunner\n"
        "early = [name for name in ('urllib.request', 'repro.experiments"
        ".chapter3', 'repro.experiments.reporting') if name in sys.modules]\n"
        "assert not early, early\n"
        "import repro.experiments\n"
        "assert repro.experiments.chapter4.__name__.endswith('chapter4')\n"
        "from repro.experiments import reporting\n"
        "for name in repro.experiments.__all__:\n"
        "    assert getattr(repro.experiments, name).__name__ == "
        "'repro.experiments.' + name\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={"PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
