"""Benchmarks: Chapter 3 — the prediction system (Tables 3.2-3.4, Figs 3.1-3.15)."""

from conftest import BENCH_SCALE, run_once

from repro.experiments import chapter3, reporting


def test_fig_3_1_unknown_query_anomaly(benchmark):
    result = run_once(benchmark, chapter3.figure_3_1_unknown_query_anomaly,
                      scale=BENCH_SCALE)
    corr = result["correlation_with_cycles"]
    print()
    print("Figure 3.1 — correlation of CPU usage with candidate features:", corr)
    assert corr["five_tuple_flows"] > corr["bytes"]


def test_fig_3_4_slr_vs_mlr(benchmark):
    result = run_once(benchmark, chapter3.figure_3_4_slr_vs_mlr,
                      scale=BENCH_SCALE)
    print()
    print(f"Figure 3.4 — flows query: SLR error {result['slr_mean_error']:.4f}"
          f" vs MLR error {result['mlr_mean_error']:.4f}")
    assert result["mlr_mean_error"] <= result["slr_mean_error"]


def test_fig_3_5_parameter_sweep(benchmark):
    result = run_once(benchmark, chapter3.figure_3_5_parameter_sweep,
                      scale=BENCH_SCALE,
                      histories=(10, 30, 60), thresholds=(0.0, 0.6, 0.8),
                      query_names=("counter", "flows", "top-k"))
    print()
    print(reporting.format_table(result["history_sweep"],
                                 ["history", "mean_error", "mean_cost_cycles"],
                                 title="Figure 3.5 (left) — history sweep"))
    print(reporting.format_table(result["threshold_sweep"],
                                 ["threshold", "mean_error", "mean_cost_cycles"],
                                 title="Figure 3.5 (right) — FCBF threshold sweep"))
    costs = [row["mean_cost_cycles"] for row in result["history_sweep"]]
    assert costs[-1] >= costs[0]


def test_fig_3_7_error_over_time(benchmark):
    result = run_once(benchmark, chapter3.figure_3_7_error_over_time,
                      scale=BENCH_SCALE,
                      query_names=("counter", "flows", "top-k", "trace"))
    print()
    for trace_name, data in result.items():
        print(f"Figure 3.7/3.8 — {trace_name}: avg error "
              f"{data['average_error']:.4f}, max {data['max_error']:.4f}")
        assert data["average_error"] < 0.2


def test_table_3_2_error_by_query(benchmark):
    result = run_once(benchmark, chapter3.table_3_2_error_by_query,
                      scale=BENCH_SCALE)
    print()
    print(reporting.format_table(result["rows"],
                                 ["query", "mean_error", "std_error",
                                  "selected_features"],
                                 title="Table 3.2 — prediction error by query"))
    errors = {row["query"]: row["mean_error"] for row in result["rows"]}
    assert errors["counter"] < 0.05


def test_fig_3_10_ewma_alpha_sweep(benchmark):
    result = run_once(benchmark, chapter3.figure_3_10_ewma_alpha_sweep,
                      scale=BENCH_SCALE)
    print()
    print(reporting.format_table(result["rows"], ["alpha", "mean_error"],
                                 title="Figure 3.10 — EWMA error vs alpha"))


def test_fig_3_11_baseline_error_series(benchmark):
    result = run_once(benchmark, chapter3.figure_3_11_baseline_comparison,
                      scale=BENCH_SCALE)
    means = result["mean_error"]
    print()
    print("Figure 3.11 — mean error over the query set:",
          {method: round(error, 4) for method, error in means.items()})
    assert means["mlr"] < means["ewma"]


def test_table_3_3_baseline_comparison(benchmark):
    result = run_once(benchmark, chapter3.table_3_3_error_stats,
                      scale=BENCH_SCALE)
    print()
    print(reporting.format_table(result["rows"],
                                 ["query", "ewma_mean", "slr_mean", "mlr_mean"],
                                 title="Table 3.3 — EWMA vs SLR vs MLR+FCBF"))
    means = result["mean_error"]
    print("overall:", {k: round(v, 4) for k, v in means.items()})
    assert means["mlr"] <= means["ewma"]


def test_fig_3_13_ddos_robustness(benchmark):
    result = run_once(benchmark, chapter3.figure_3_13_ddos_robustness,
                      scale=BENCH_SCALE)
    print()
    for method in ("ewma", "slr", "mlr"):
        print(f"Figure 3.13-3.15 — {method} mean error under DDoS: "
              f"{result[method]['mean_error']:.4f}")
    assert result["mlr"]["mean_error"] <= result["ewma"]["mean_error"]


def test_table_3_4_prediction_overhead(benchmark):
    result = run_once(benchmark, chapter3.table_3_4_prediction_overhead,
                      scale=BENCH_SCALE,
                      query_names=("counter", "flows", "top-k", "trace"))
    print()
    print(f"Table 3.4 — prediction overhead fraction: "
          f"{result['prediction_overhead_fraction']:.3f}")
    print(reporting.format_table(result["rows"],
                                 ["phase", "fraction_of_prediction"]))
    assert result["prediction_overhead_fraction"] < 0.35
