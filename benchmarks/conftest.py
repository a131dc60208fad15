"""Benchmark bootstrap: make ``src/`` importable and share tiny helpers.

Each benchmark regenerates one table or figure of the paper at a reduced
scale (shorter synthetic traces, coarser sweeps) and prints the reproduced
rows/series so they can be compared with the paper (each experiment
function is named after the table or figure it regenerates).

Benchmarks additionally record their headline numbers (wall time, speedup
factors) with :func:`record_result`; at session end the accumulated results
are written to ``BENCH_report.json`` (path overridable via the
``BENCH_REPORT`` environment variable), merging with any results already
recorded there by earlier pytest invocations of the same CI job.  The CI
bench-smoke job uploads the file as a per-commit artifact, so the perf
trajectory of the project is recorded commit by commit.
"""

import json
import os
import platform
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Scale factor applied to every benchmark workload (1.0 = the default
#: laptop-sized experiment of the harness).  Overridable via the
#: ``BENCH_SCALE`` environment variable so CI can run a fast smoke pass.
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.5"))

#: Results recorded by the current pytest session, keyed by benchmark name.
_RESULTS = {}


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def record_result(name, seconds, speedup=None, bin_seconds=None, **extra):
    """Record one benchmark outcome for the per-commit ``BENCH_report.json``.

    ``seconds`` is the benchmark's headline wall time; ``speedup`` the
    factor over its stated baseline (omit when the benchmark has none);
    ``bin_seconds`` an optional per-bin latency series, summarised into
    ``latency`` (n/mean/p50/p95/p99/max) via :func:`repro.profile.summarize`;
    any extra keyword becomes an additional JSON field (counts, throughput,
    required bars, ...).
    """
    entry = {"seconds": float(seconds)}
    if speedup is not None:
        entry["speedup"] = float(speedup)
    if bin_seconds is not None:
        from repro.profile import summarize
        entry["latency"] = summarize(bin_seconds)
    entry.update(extra)
    _RESULTS[str(name)] = entry


def _report_path() -> Path:
    return Path(os.environ.get("BENCH_REPORT", "BENCH_report.json"))


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's recorded results into the report file.

    CI runs each benchmark module as its own pytest invocation; merging
    (rather than overwriting) lets them all land in one artifact.
    """
    if not _RESULTS:
        return
    path = _report_path()
    report = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            report = {}
    report.setdefault("meta", {}).update({
        "bench_scale": BENCH_SCALE,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    })
    report.setdefault("results", {}).update(_RESULTS)
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"\n[bench] wrote {len(_RESULTS)} result(s) to {path}")
