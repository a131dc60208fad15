"""Size and startup probes of two source trees, side by side (not judged).

    python benchmarks/probes.py source-size HEAD_SRC PARENT_SRC
    python benchmarks/probes.py startup ROOT

``source-size`` prints one line comparing two ``src/`` trees: lines, the
knobs (``SystemConfig`` fields, ``CHECKPOINT_VERSION``, registered
strategies, ``BinRecord`` fields), ``__setstate__`` definitions, and the
greps that count names of removed second paths (each 0 once its path is
gone).  ``startup`` reads ``ROOT/HEAD/src`` and ``ROOT/HEAD~1/src`` and
prints, for each, the ``repro.*`` module count and best-of-3 wall time of
three programs, the peak resident set of one overloaded session over a
stored 1 s trace (at two densities) and whether it loaded
``numpy.random``, and the parent's peak of a 2-shard node on the worker
pool and whether it loaded ``hashlib`` or ``multiprocessing``.  Run it
with ``PYTHONDONTWRITEBYTECODE=1``: ``setup_s`` of every benchmark
workload is mostly imports, and compiling ``src/`` is a large part of
them.  CI's "Source size" and "Startup cost" steps run both on ``git
archive`` trees of ``HEAD`` and ``HEAD~1``; no number here has a
threshold.
"""

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

#: SystemConfig fields, checkpoint version, strategies, BinRecord fields.
KNOBS = """import dataclasses, repro
from repro.core.fairness import STRATEGIES
from repro.monitor.pipeline import BinRecord
from repro.serve.checkpoint import CHECKPOINT_VERSION
print(len(dataclasses.fields(repro.SystemConfig)),
      CHECKPOINT_VERSION, len(STRATEGIES),
      len(dataclasses.fields(BinRecord)))"""

# Names of the second delivery protocol, the name->class registry, the
# per-tier metrics folds, the daemon's second copy of its result's totals,
# the scenario engine, the runner's wrappers around a config and the second
# and third counts of a bin's cycles; 0 once every session is stepped, its
# owner folds, every number has one source, an experiment is a calibration
# and a loop, a run is a config, built and run, and a bin is accounted
# once, in its context; also the copies of the bin grid and the write-only
# per-query state, 0 once every producer of bins cuts them on BinGrid; and
# the private interval clocks of the feature extractor and the flow
# sampler, 0 once the flush is the only one; and the system's own rate
# decision (``_decide_rates``), 0 once RateDecisionStage makes every one;
# and the sweeps' executor, 0 once a sweep steps a session at given rates;
# and the stages and tuple of a bin split apart from Algorithm 1's three
# halves, and the system's executors that learned while they ran, 0 once
# every bin runs one tuple of four (decide, execute, account).
PROTOCOL = (
    r"_decide_rates|ship_partials|session_calls|query_arrives|_admit_arrivals"
    r"|_arriving|_query_classes|merged_summary|_fold_metrics"
    r"|[Aa]ggregator\.fold_metrics|_prediction_error_sum|self\._shed_bins"
    r"|ScenarioMatrix|ParallelRunner|ScenarioCell|fork_pool_map|_TRACE_MEMO"
    r"|derive_seed|run_system|run_with_overload|reference_system"
    r"|_resolve_config|standard_queries|query_kwargs|BinUsage|charge_query"
    r"|charge_prediction|charge_shedding|charge_system|record_prediction\b"
    r"|overhead_so_far|record_drop|dropped_batches|_prev_query_cycles"
    r"|_prev_reactive_rate|repro_stage_cycles_total|_concat_batches"
    r"|_slice_bins|_flush_through|_extend_bin_index|_batch_at"
    r"|last_prediction|last_sampling_rate|_maybe_renew|_roll\("
    r"|\._interval_start|_standalone_log|AdmissionStage|SystemOverheadStage"
    r"|FilterStage|PredictionStage|GivenGrantsStage|GIVEN_STAGES|_run_sampled"
    r"|_run_custom")


def _lines(paths, pattern: str) -> int:
    """Lines of ``paths`` that ``pattern`` matches, as ``grep | wc -l``."""
    regex = re.compile(pattern.encode())
    return sum(bool(regex.search(line)) for path in paths
               for line in Path(path).read_bytes().splitlines())


def _sources(*roots) -> list:
    return sorted(path for root in roots for path in Path(root).rglob("*.py"))


def _tree(src: Path) -> dict:
    """Every count of one ``src/`` tree."""
    repro = src / "repro"
    fields, version, strategies, record = subprocess.run(
        [sys.executable, "-c", KNOBS],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True).stdout.split()
    return {
        "lines": sum(path.read_bytes().count(b"\n") for path in src.rglob("*")
                     if path.is_file() and path.suffix != ".pyc"),
        "fields": fields, "version": version, "strategies": strategies,
        "record": record,
        "setstate": _lines(_sources(src), "def __setstate__"),
        "protocol": _lines(_sources(src), PROTOCOL),
        # The bin grid's arithmetic: 1 once it has one home (11 before
        # BinGrid).
        "floors": _lines([repro / "monitor" / "packet.py",
                          repro / "traffic" / "trace_io.py",
                          repro / "serve" / "feeds.py"], r"np\.floor\("),
        # The interval clock: 0 measurement_interval lines in the extractor
        # and the sampler once the flush starts their intervals (13
        # before), 1 boundary rule in src/ (2 before).
        "clocks": _lines([repro / "core" / "features.py",
                          repro / "core" / "sampling.py"],
                         "measurement_interval"),
        "rules": _lines(_sources(src), "interval - 1e-9"),
        # The custom grant: 0 enforcer reads in monitor/system.py once the
        # rate decision hands execution the grant (2 before).
        "grants": _lines([repro / "monitor" / "system.py"],
                         r"enforcer\.is_disabled|enforcer\.allowed_fraction"),
        # numpy.random in the monitor, its kernels and its queries: 1 once
        # every sampling draw comes from a query's SplitMix64 stream (the
        # meter's lazy noise generator; 13 before).
        "draws": _lines(_sources(repro / "monitor", repro / "core",
                                 repro / "queries"),
                        r"default_rng|np\.random\."),
    }


def source_size(head: str, parent: str) -> None:
    h, p = _tree(Path(head)), _tree(Path(parent))
    print(f"source size: src/ is {h['lines']} lines at HEAD, "
          f"{p['lines']} at HEAD~1 ({h['lines'] - p['lines']}); "
          f"SystemConfig fields {h['fields']} vs {p['fields']}; "
          f"CHECKPOINT_VERSION {h['version']} vs {p['version']}; "
          f"registered strategies {h['strategies']} vs {p['strategies']}; "
          f"BinRecord fields {h['record']} vs {p['record']}; "
          f"__setstate__ definitions {h['setstate']} vs {p['setstate']}; "
          f"second-protocol names {h['protocol']} vs {p['protocol']}; "
          f"bin-grid np.floor( lines {h['floors']} vs {p['floors']}; "
          f"extractor/sampler measurement_interval lines {h['clocks']} "
          f"vs {p['clocks']}; "
          f"interval boundary rules {h['rules']} vs {p['rules']}; "
          f"enforcer reads in system.py {h['grants']} vs {p['grants']}; "
          f"numpy.random lines in monitor/core/queries {h['draws']} vs "
          f"{p['draws']}")


PROGRAMS = {
    "import repro": "import repro",
    "one session, 1 s trace": (
        "from repro import SystemConfig\n"
        "from repro.traffic.generator import TrafficProfile, "
        "generate_trace\n"
        "trace = generate_trace(TrafficProfile(duration=1.0), seed=1)\n"
        "SystemConfig(queries='counter,flows,top-k', "
        "cycles_per_second=1e6).build().run(trace)"),
    "python -m repro.replay --help": (
        "import runpy, sys\n"
        "sys.argv = ['repro.replay', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.replay', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass"),
}
# Printed last, on stderr: the --help text goes to stdout.
COUNT = ("\nimport sys\nprint(sum(name.partition('.')[0] == 'repro'"
         " for name in sys.modules), file=sys.stderr)")
STORED = (
    "import sys\n"
    "from repro import SystemConfig\n"
    "from repro.traffic.trace_io import TraceStore\n"
    "SystemConfig(queries='counter,flows,top-k', "
    "cycles_per_second=1e6).build().run(TraceStore(sys.argv[1]))\n"
    "kb = next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM'))\n"
    "print(int(kb) / 1024, 'numpy.random' in sys.modules)")
POOLED = (
    "import sys\n"
    "from repro import SystemConfig\n"
    "from repro.monitor.sharding import ShardedSystem\n"
    "from repro.traffic.trace_io import TraceStore\n"
    "config = SystemConfig(queries='counter,flows,top-k', "
    "cycles_per_second=1e6)\n"
    "ShardedSystem(config=config, num_shards=2, backend='workers')"
    ".run(TraceStore(sys.argv[1]))\n"
    "kb = next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM'))\n"
    "print(int(kb) / 1024, 'hashlib' in sys.modules, "
    "'multiprocessing' in sys.modules)")


def startup(root: str) -> None:
    def env(rev):
        return {**os.environ, "PYTHONPATH": os.path.join(root, rev, "src")}

    def measure(rev, program):
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", program + COUNT], env=env(rev),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, check=True)
            walls.append(time.perf_counter() - start)
        return int(done.stderr.split()[-1]), min(walls)

    print("startup cost (no bytecode): repro modules, best-of-3 wall")
    for label, program in PROGRAMS.items():
        (head_n, head_s), (parent_n, parent_s) = (
            measure(rev, program) for rev in ("HEAD", "HEAD~1"))
        print(f"- {label}: {head_n} modules, {head_s:.3f} s at HEAD; "
              f"{parent_n} modules, {parent_s:.3f} s at HEAD~1")

    def make_store(name, flow_arrival_rate):
        path = os.path.join(root, name)
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.traffic.generator import TrafficProfile, "
             "generate_trace_store\n"
             "generate_trace_store(sys.argv[1], TrafficProfile("
             "duration=1.0, flow_arrival_rate=float(sys.argv[2])), "
             "seed=1)", path, str(flow_arrival_rate)],
            env=env("HEAD"), check=True)
        return path

    store = make_store("store-1s", 250)
    # session-header's density: ~6k packets a bin.
    dense = make_store("store-1s-dense", 5000)
    for label, path in (("a stored 1 s trace", store),
                        ("a stored 1 s trace at session-header "
                         "density (flow_arrival_rate=5000)", dense)):
        print(f"one overloaded session over {label}:")
        for rev in ("HEAD", "HEAD~1"):
            mb, drew = subprocess.run(
                [sys.executable, "-c", STORED, path], env=env(rev),
                capture_output=True, text=True,
                check=True).stdout.split()
            print(f"- {rev}: VmHWM {float(mb):.1f} MB, "
                  f"numpy.random loaded: {drew}")
    print("the parent of a 2-shard node on the worker pool, same trace:")
    for rev in ("HEAD", "HEAD~1"):
        mb, hashed, loaded_mp = subprocess.run(
            [sys.executable, "-c", POOLED, store], env=env(rev),
            capture_output=True, text=True, check=True).stdout.split()
        print(f"- {rev}: VmHWM {float(mb):.1f} MB, hashlib loaded: "
              f"{hashed}, multiprocessing loaded: {loaded_mp}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    probes = parser.add_subparsers(dest="probe", required=True)
    size = probes.add_parser("source-size", help="compare two src/ trees")
    size.add_argument("head")
    size.add_argument("parent")
    cost = probes.add_parser(
        "startup", help="compare ROOT/HEAD/src with ROOT/HEAD~1/src")
    cost.add_argument("root")
    args = parser.parse_args(argv)
    if args.probe == "source-size":
        source_size(args.head, args.parent)
    else:
        startup(args.root)


if __name__ == "__main__":
    main()
