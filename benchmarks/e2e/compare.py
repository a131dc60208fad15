"""Compare two multi-seed reports of ``bench_e2e.py --report``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, end-to-end metric): both medians, both
quartile pairs, the metric's bound from ``BENCHMARK.json`` and a verdict —
``ok``, ``REGRESSED`` (B's median is worse than A's by more than the bound)
or ``unresolved`` (a side's own quartile spread is wider than the bound, so
the pair cannot tell).  Reports from hosts too different to compare — another
``cpu_count``, or a calibration kernel more than 25% apart — are refused.
"""

import json
import statistics
import sys
from pathlib import Path

MAX_CALIB_RATIO = 1.25


def quartile_summary(values):
    """``(q1, median, q3, spread)``; spread = (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / abs(median)


def comparable(first_meta, second_meta):
    """Why two reports cannot be compared, or ``None`` if they can."""
    if first_meta["cpu_count"] != second_meta["cpu_count"]:
        return (f"cpu_count differs: {first_meta['cpu_count']} vs "
                f"{second_meta['cpu_count']}")
    ratio = first_meta["calib_ms"] / second_meta["calib_ms"]
    if max(ratio, 1.0 / ratio) > MAX_CALIB_RATIO:
        return (f"host calibration differs by more than 25%: "
                f"{first_meta['calib_ms']:.2f} ms vs "
                f"{second_meta['calib_ms']:.2f} ms")
    return None


def compare_reports(first, second, manifest):
    """One row dict per (workload, end-to-end metric)."""
    rows = []
    for workload, by_metric in first["values"].items():
        for spec in manifest["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a = quartile_summary(by_metric[metric])
            b = quartile_summary(second["values"][workload][metric])
            worse = (b[1] - a[1]) / abs(a[1])
            if spec["better"] == "higher":
                worse = -worse
            if max(a[3], b[3]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric,
                         "unit": spec["unit"], "bound": bound, "a": a, "b": b,
                         "worse_by": worse, "verdict": verdict})
    return rows


def print_comparison(first, second, manifest):
    """Print the rows; returns 0 if every row is ``ok``, 1 otherwise."""
    reason = comparable(first["meta"], second["meta"])
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    rows = compare_reports(first, second, manifest)
    print(f"{'workload':<16}{'metric':<16}{'unit':<7}{'A median':>12}"
          f"{'A q1..q3':>25}{'B median':>12}{'B q1..q3':>25}"
          f"{'spread A/B':>16}{'worse by':>10}{'bound':>7}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['workload']:<16}{row['metric']:<16}{row['unit']:<7}"
              f"{a[1]:>12.6g}{f'{a[0]:.6g}..{a[2]:.6g}':>25}"
              f"{b[1]:>12.6g}{f'{b[0]:.6g}..{b[2]:.6g}':>25}"
              f"{f'{a[3]:.3f}/{b[3]:.3f}':>16}{row['worse_by']:>+10.3f}"
              f"{row['bound']:>7.2f}  {row['verdict']}")
    for name, report in (("A", first), ("B", second)):
        failed = sum(report["failed"].values())
        if failed:
            print(f"report {name} has {failed} failed operations")
    return int(any(row["verdict"] != "ok" for row in rows)
               or any(sum(r["failed"].values()) for r in (first, second)))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    first, second = (json.loads(Path(path).read_text()) for path in argv[1:])
    return print_comparison(first, second, manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
