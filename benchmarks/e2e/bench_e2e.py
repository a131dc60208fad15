"""End-to-end benchmark: five closed-loop workloads, absolute numbers.

    python3 benchmarks/e2e/bench_e2e.py --workload session-header --seed 1 \
        --seconds 12 --trace 0

prepares the workload's inputs from ``--seed``, runs repeats of it (each in
a fresh child process) until ``--seconds`` of timed region have elapsed,
checks every result, prints every metric by name and unit and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Without
``--workload`` all five run and one table is printed.  See ``README.md``.
"""

import time

#: Child start, taken before ``import numpy``: ``setup_s`` counts imports.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import compare  # noqa: E402
import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (WORKLOADS, Prepared, prepare, run_repeat,  # noqa: E402
                       single_node_seconds)

WORK = HERE / ".work"
MIN_REPEATS = 2
#: Seeds per report: the bounds in ``BENCHMARK.json`` are ten-seed spreads.
SEEDS = 10
CHILD_TIMEOUT_S = 120
#: Spans whose individual durations the per-layer metrics need.
KEPT_DURATIONS = ("serve.status", "serve.metrics", "checkpoint.save")


# ----------------------------------------------------------------------
# One repeat = one child process
# ----------------------------------------------------------------------
def run_child(spec: dict) -> dict:
    """One repeat as the spec describes it, traced or not."""
    tracer = tracing.Tracer()
    if spec["trace"]:
        tracer.install()
    try:
        out = run_repeat(WORKLOADS[spec["workload"]], spec["store"],
                         spec["config"], tracer, spec["workdir"], _STARTED)
    finally:
        tracer.uninstall()
    spans = tracer.all_spans()
    out["spans"] = tracing.reduce(spans)
    out["durations"] = {name: tracing.durations(spans, name)
                        for name in KEPT_DURATIONS}
    out["counters"] = tracer.counters
    if spec["trace"]:
        (spec["workdir"].parent / "trace.json").write_text(json.dumps(
            {"workload": spec["workload"],
             "fields": ["name", "start", "end", "parent", "bin"],
             "spans": spans}))
    return out


def spawn(prepared: Prepared, work: Path, index: int, trace: bool) -> dict:
    """Run one repeat in a fresh process group and load what it wrote."""
    workdir = work / f"repeat{index}"
    workdir.mkdir()
    spec = {"workload": prepared.workload.name, "store": prepared.store_path,
            "config": prepared.config, "trace": trace, "workdir": workdir,
            "out": workdir / "out.pkl"}
    (workdir / "spec.pkl").write_bytes(pickle.dumps(spec))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(workdir / "spec.pkl")],
        stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.returncode != 0:
            # Timed out, failed or interrupted: take its workers down too.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    if code != 0:
        raise RuntimeError(f"repeat {index} of {prepared.workload.name} "
                           f"exited with code {code}")
    # Only this program's own child wrote these bytes.
    return pickle.loads(spec["out"].read_bytes())


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Prepare, repeat, verify and reduce one workload."""
    work = work / name
    work.mkdir(parents=True)
    prepared = prepare(WORKLOADS[name], seed, work)
    # A traced run makes its untraced repeats first (identity and overhead
    # baseline, and the timing figures), then at least as many traced ones.
    outs = [spawn(prepared, work, index, trace=False)
            for index in range(MIN_REPEATS)]
    while (len(outs) < (2 * MIN_REPEATS if trace else MIN_REPEATS)
           or sum(out["region_s"] for out in outs) < seconds):
        outs.append(spawn(prepared, work, len(outs), trace))
    checker = metrics.verify(prepared, outs)
    raw = {"repeats": len(outs), "bins": prepared.bins,
           "packets": prepared.packets,
           "repeat_wall_s": [out["region_s"] for out in outs]}
    if trace:
        single_node_s = single_node_seconds(prepared) \
            if prepared.workload.tier == "fleet" else 0.0
        traced = outs[MIN_REPEATS:]
        values = metrics.per_layer(prepared, outs[:MIN_REPEATS], traced,
                                   single_node_s)
        units = {metric: unit for metric, unit, _ in metrics.PER_LAYER}
        raw["spans"] = metrics.median_spans(traced)
        # One repeat's stage spans beside its own StageProfiler.
        raw["stage_check"] = {
            stage: (traced[0]["spans"][stage]["inclusive_s"], seconds)
            for stage, seconds in metrics.stage_seconds(traced[0]).items()
            if stage in traced[0]["spans"]}
        trace_json = work / "trace.json"
        if trace_json.exists():
            trace_json.replace(WORK / "trace.json")
    else:
        values = metrics.end_to_end(prepared, outs)
        units = {metric: unit for metric, unit, _ in metrics.END_TO_END}
        raw["timing"] = metrics.timing(prepared, outs)
    shutil.rmtree(work)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": checker.correct, "attempted": checker.attempted,
        "failed": checker.failed, "failures": checker.failures,
        "metrics": {metric: {"value": float(value), "unit": units[metric]}
                    for metric, value in values.items()},
        "raw": raw,
    }


def print_outcome(outcome: dict) -> None:
    """Every metric by name and unit, then the contract's JSON line."""
    raw = outcome["raw"]
    print(f"{outcome['workload']}  seed {outcome['seed']}  trace "
          f"{outcome['trace']}: {raw['repeats']} repeats of {raw['bins']} "
          f"bins, {raw['packets']} packets")
    profiled = WORKLOADS[outcome["workload"]].tier in ("workers", "fleet")
    for metric, entry in outcome["metrics"].items():
        source = "  [source: profiler]" \
            if profiled and metric in metrics.PROFILER_SOURCED else ""
        print(f"  {metric:<36}{entry['value']:>16.6g} {entry['unit']}{source}")
    for key, value in raw.get("timing", {}).items():
        print(f"  {key:<36}{value:>16.6g}   (no bound: see --trace 1)")
    print("  repeat walls: " + " ".join(
        f"{wall:.2f}s" for wall in raw["repeat_wall_s"]))
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({key: outcome[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def print_table(outcomes: list) -> None:
    """All workloads side by side, one row per metric."""
    names = [outcome["workload"] for outcome in outcomes]
    print(f"{'metric':<36}{'unit':<8}"
          + "".join(f"{name:>17}" for name in names))
    for metric, entry in outcomes[0]["metrics"].items():
        print(f"{metric:<36}{entry['unit']:<8}" + "".join(
            f"{outcome['metrics'][metric]['value']:>17.6g}"
            for outcome in outcomes))
    for key in outcomes[0]["raw"].get("timing", ()):
        print(f"{key:<36}{'':<8}" + "".join(
            f"{outcome['raw']['timing'][key]:>17.6g}"
            for outcome in outcomes))
    print(f"{'correct':<44}" + "".join(
        f"{str(outcome['correct']):>17}" for outcome in outcomes))


# ----------------------------------------------------------------------
# Multi-seed reports (compare.py's input)
# ----------------------------------------------------------------------
def host_meta() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "calib_ms": metrics.host_calib_ms()}


def make_report(seconds: float, work: Path) -> dict:
    """End-to-end metrics of every workload on seeds ``1..SEEDS``."""
    report = {"meta": {**host_meta(), "seeds": SEEDS, "seconds": seconds},
              "values": {name: {} for name in WORKLOADS},
              "failed": {name: 0 for name in WORKLOADS}}
    for seed in range(1, SEEDS + 1):
        for name in WORKLOADS:
            outcome = run_workload(name, seed, seconds, False, work)
            # The host's speed wanders; its best over the report identifies it.
            report["meta"]["calib_ms"] = min(report["meta"]["calib_ms"],
                                             metrics.host_calib_ms())
            report["failed"][name] += outcome["failed"]
            # The unbounded timing figures ride along for the record.
            values = {**{metric: entry["value"] for metric, entry
                         in outcome["metrics"].items()},
                      **outcome["raw"]["timing"]}
            for metric, value in values.items():
                report["values"][name].setdefault(metric, []).append(value)
            print(f"seed {seed:>2} {name:<16} " + " ".join(
                f"{value:.6g}" for value in values.values()),
                file=sys.stderr)
    report["claim"] = None
    return report


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed region per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", metavar="OUT.json",
                        help="run ten seeds of every workload and write "
                             "compare.py's input")
    parser.add_argument("--aa", action="store_true",
                        help="two ten-seed reports of this same code, "
                             "compared with compare.py")
    parser.add_argument("--ledger", action="store_true",
                        help="regenerate LEDGER.md from a traced and an "
                             "untraced run of every workload")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        # Only this program's own parent wrote the spec it unpickles.
        spec = pickle.loads(Path(args.child).read_bytes())
        spec["out"].write_bytes(pickle.dumps(run_child(spec)))
        return 0
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]

    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    # SIGTERM must unwind through the ``finally`` below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.aa:
            first = make_report(args.seconds, work)
            second = make_report(args.seconds, work)
            return compare.print_comparison(first, second, manifest)
        if args.report:
            report = make_report(args.seconds, work)
            Path(args.report).write_text(json.dumps(report, indent=1))
            return 0
        if args.ledger:
            import ledger
            rows = {name: (run_workload(name, args.seed, args.seconds,
                                        False, work),
                           run_workload(name, args.seed, args.seconds,
                                        True, work))
                    for name in WORKLOADS}
            (HERE / "LEDGER.md").write_text(
                ledger.render(rows, host_meta(), args.seed))
            return 0
        if args.workload:
            outcome = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
            print_outcome(outcome)
            return 0
        outcomes = [run_workload(name, args.seed, args.seconds,
                                 bool(args.trace), work)
                    for name in WORKLOADS]
        print_table(outcomes)
        print(json.dumps({
            "meta": host_meta(),
            "workloads": {
                outcome["workload"]: {key: outcome[key] for key in
                                      ("correct", "attempted", "failed",
                                       "metrics")}
                for outcome in outcomes},
            "claim": None}, indent=1))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
