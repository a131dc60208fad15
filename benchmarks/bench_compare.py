"""Compare a benchmark report against the committed baseline.

CI's bench-smoke job regenerates ``BENCH_report.json`` from scratch at
every commit, which records the perf trajectory but does not *enforce*
it.  This script closes that loop: it diffs the job's fresh report
against the baseline committed at the repo root and fails when any gated
metric — one whose baseline entry carries a ``required_speedup`` bar —
lost more than ``DEFAULT_TOLERANCE`` of its baseline speedup.

The gate is deliberately looser than the benchmarks' own absolute bars
(for example ``bench_queries`` asserts its kernels' factors outright):
those bars catch catastrophic breakage, while this diff catches the slow
bleed — a change that drags a 22x speedup down to 8x still clears the
absolute bar but loses half the optimisation this repo exists to
demonstrate.

A ratio is only a fair gate while its denominator stands still.  When a
change makes the *slow side* of a comparison faster, the speedup shrinks
although both sides improved in seconds; such a gate has to be re-based on
what the benchmark is about, not defended (``bench_many_queries`` gates
the shared path's own scaling, not shared against unshared, for that
reason).

Usage::

    python benchmarks/bench_compare.py CURRENT BASELINE [--tolerance 0.75]

Exit status 0 when every gated metric holds, 1 on any regression.
"""

import argparse
import json
import sys
from pathlib import Path

#: A gated metric may keep as little as this fraction of its baseline
#: speedup before the comparison fails (0.75 = fail on >25% regression).
DEFAULT_TOLERANCE = 0.75


def load_results(path):
    payload = json.loads(Path(path).read_text())
    return payload.get("results", {})


def compare(current, baseline, tolerance=DEFAULT_TOLERANCE):
    """Return (lines, regressions) for the gated metrics of ``baseline``."""
    lines, regressions = [], []
    gated = sorted(name for name, entry in baseline.items()
                   if "required_speedup" in entry and "speedup" in entry)
    if not gated:
        lines.append("no gated metrics in baseline (nothing to compare)")
        return lines, regressions
    for name in gated:
        base = baseline[name]["speedup"]
        floor = base * tolerance
        entry = current.get(name)
        if entry is None or "speedup" not in entry:
            lines.append(f"  {name:40s} baseline {base:6.2f}x  "
                         "-- not measured in this job, skipped")
            continue
        now = entry["speedup"]
        status = "ok" if now >= floor else "REGRESSED"
        lines.append(f"  {name:40s} baseline {base:6.2f}x  "
                     f"current {now:6.2f}x  floor {floor:6.2f}x  {status}")
        if now < floor:
            regressions.append(name)
    return lines, regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_report.json from this job")
    parser.add_argument("baseline", help="committed baseline BENCH_report.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="fraction of baseline speedup a gated metric "
                             "must keep (default %(default)s)")
    args = parser.parse_args(argv)

    lines, regressions = compare(load_results(args.current),
                                 load_results(args.baseline),
                                 tolerance=args.tolerance)
    print(f"bench-compare (tolerance {args.tolerance:.0%} of baseline):")
    print("\n".join(lines))
    if regressions:
        print(f"FAIL: {len(regressions)} gated metric(s) regressed more "
              f"than {1 - args.tolerance:.0%}: {', '.join(regressions)}")
        return 1
    print("ok: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
