"""Which functions of ``src/repro`` does anything run?

    python tests/reach.py                   # tier-1 + every entry point
    python tests/reach.py --skip-tests      # entry points only
    python tests/reach.py --out reach.txt

A stdlib-only reach measurement (no ``coverage`` needed).  Every process it
starts imports a ``sitecustomize`` module from a temporary directory put
first on ``PYTHONPATH``; that module installs a ``sys.setprofile`` hook
recording each ``src/repro`` function entered, in the process, in its
threads, and in its forked children (the worker pool's), which leave
through ``os._exit``: an after-fork hook wraps ``os._exit`` in the child
so that it dumps first.  CLI subprocesses are counted the same way.

Two groups of runs are measured:

* **tests** — tier-1, ``python -m pytest -x -q``;
* **product** — every script in ``examples/``, the five ``bench_e2e``
  workloads at ``--seconds 1``, the command lines CI's smoke jobs run
  (the fleet and shard exactness gates, the fleet topology file, the serve
  daemon over a store, its resume from the checkpoint it wrote, and a
  stale config refused) and ``benchmarks/bench_chapter2..6.py``.

The list written to ``--out`` has one line per function defined in
``src/repro`` (decorated ones by the line of their first decorator),
tab-separated: ``product`` (a product run entered it), ``test-only`` (only
tier-1 did) or ``never``, then ``path:line`` and the qualified name.  The
summary printed at the end counts each group and the unreached functions
per module (``test-only`` and ``never``), and the script exits 1
when there are more than :data:`UNREACHED_CEILING` of them: a later change
lowers the ceiling, never raises it.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: The most functions the product runs may leave unreached: what they
#: left unreached when it was set.
UNREACHED_CEILING = 61

#: The ``sitecustomize`` every measured process imports.  It writes the
#: ``(file, first line)`` of each ``src/repro`` code object it saw to
#: ``<REACH_OUT>/<pid>.txt`` when the process ends.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = os.environ["REACH_PACKAGE"]
_OUT = os.environ["REACH_OUT"]
_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_PREFIX):
            _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a") as out:
        out.writelines("%s\\t%d\\n" % entry for entry in _seen)


_os_exit = os._exit


def _dump_and_exit(status):
    """``os._exit`` in a forked child, which runs no ``atexit`` hook."""
    _dump()
    _os_exit(status)


os.register_at_fork(after_in_child=lambda: setattr(os, "_exit",
                                                   _dump_and_exit))
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def _runs(store: Path) -> List[Tuple[str, List[str], Dict[str, str]]]:
    """``(label, argv, extra env)`` of every product run."""
    py = sys.executable
    runs = [(f"examples/{path.name}", [py, str(path)], {})
            for path in sorted((REPO / "examples").glob("*.py"))]
    runs += [(f"bench_e2e {workload}",
              [py, "benchmarks/e2e/bench_e2e.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", "0"], {})
             for workload in ("session-header", "session-tenants",
                              "workers-header", "fleet-header",
                              "serve-payload")]
    work = store.parent
    runs += [
        ("repro.fleet --check",
         [py, "-m", "repro.fleet", "--nodes", "16", "--workload", "cesca",
          "--duration", "4", "--workload-scale", "0.5", "--queries",
          "counter,flows,top-k", "--n-workers", "2", "--fleet-backend",
          "fork", "--check"], {}),
        ("repro.fleet topology file",
         [py, "-m", "repro.fleet", str(work / "fleet-topology.json"),
          "--workload", "flow-spike", "--duration", "2", "--queries",
          "counter,flows", "--n-workers", "2", "--fleet-backend", "fork",
          "--check", "--json"], {}),
    ]
    runs += [
        (f"repro.replay --check {backend}",
         [py, "-m", "repro.replay", str(store), "--queries",
          "evaluation-nine", "--num-shards", "2", "--backend", backend,
          "--n-workers", "2", "--check"], {})
        for backend in ("inprocess", "workers")]
    serve = [py, "-m", "repro.serve", str(store), "--port", "0"]
    runs += [
        ("repro.serve", serve + ["--queries", "counter,flows",
                                 "--cycles-per-second", "2e7",
                                 "--checkpoint-dir", str(work / "ckpt")], {}),
        ("repro.serve --restore",
         serve + ["--restore", str(work / "ckpt" / "checkpoint.pkl")], {}),
        ("repro.serve stale config",
         serve + ["--config", str(work / "stale.json")], {}),
    ]
    # pytest-benchmark clears the profile hook around a timed call unless
    # it is disabled (the experiment then runs once, untimed).
    runs += [(f"bench_chapter{chapter}",
              [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--benchmark-disable",
               f"benchmarks/bench_chapter{chapter}.py"],
              {"BENCH_REPORT": str(store.parent / "bench_report.json")})
             for chapter in range(2, 7)]
    return runs


#: Runs whose exit status is a refusal (2) on purpose.
REFUSALS = {"repro.serve stale config"}


def _run(label: str, argv: List[str], env: Dict[str, str]) -> bool:
    print(f"reach: {label}", flush=True)
    done = subprocess.run(argv, cwd=REPO, env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != (2 if label in REFUSALS else 0):
        print(f"reach: {label} exited {done.returncode}\n"
              f"{done.stderr[-2000:]}", file=sys.stderr, flush=True)
    return done.returncode == 0


def _measure(work: Path, group: str, runs) -> Set[Tuple[str, int]]:
    """Run ``runs`` under the hook; the ``(file, line)`` set they entered."""
    out = work / group
    out.mkdir()
    env = dict(os.environ, REACH_PACKAGE=str(PACKAGE), REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(work / "site"), str(SRC)]))
    for label, argv, extra in runs:
        _run(label, argv, dict(env, **extra))
    seen = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            seen.add((str(Path(filename).resolve()), int(lineno)))
    return seen


def functions() -> List[Tuple[str, int, str]]:
    """``(file, first line, qualified name)`` of every function in
    ``src/repro``, the first line being that of the first decorator."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                                  decorator in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found.append((str(path), first, name))
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(tree, "")
    return found


def _store(work: Path) -> Path:
    """The trace store the shard and serve smokes replay (the shard
    smoke's), beside the input files of the other CI command lines."""
    sys.path.insert(0, str(SRC))
    from repro.traffic.generator import TrafficProfile, generate_trace_store
    (work / "fleet-topology.json").write_text(
        '{"nodes": [{"name": "pop-a", "weight": 3.0},'
        ' {"name": "pop-b", "weight": 1.0, "overlay": {"mode": "reactive"}},'
        ' {"name": "pop-c", "overlay": {"num_shards": 2}}],'
        ' "partition_by": "src-prefix", "prefix_bits": 12}')
    (work / "stale.json").write_text(
        '{"queries": "counter,flows", "shard_rebalance": true}')
    profile = TrafficProfile(duration=6.0, flow_arrival_rate=1500.0,
                             name="reach-shards")
    return generate_trace_store(work / "store", profile, seed=4).path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="reach.txt",
                        help="where to write the list (default: %(default)s)")
    parser.add_argument("--skip-tests", action="store_true",
                        help="measure the product runs only")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        (work / "site").mkdir()
        (work / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        tests: Set[Tuple[str, int]] = set()
        if not args.skip_tests:
            tests = _measure(work, "tests", [(
                "tier-1", [sys.executable, "-m", "pytest", "-x", "-q",
                           "-p", "no:cacheprovider"], {})])
        product = _measure(work, "product", _runs(_store(work)))

    counts = {"product": 0, "test-only": 0, "never": 0}
    by_module: Dict[str, int] = {}
    lines = []
    for filename, lineno, name in functions():
        key = (filename, lineno)
        status = ("product" if key in product else
                  "test-only" if key in tests else "never")
        counts[status] += 1
        relative = Path(filename).relative_to(SRC)
        if status != "product":
            by_module[str(relative)] = by_module.get(str(relative), 0) + 1
        lines.append(f"{status}\t{relative}:{lineno}\t{name}\n")
    Path(args.out).write_text("".join(lines))
    unreached = counts["test-only"] + counts["never"]
    for module, count in sorted(by_module.items()):
        print(f"reach: {count:4d} unreached in {module}")
    print(f"reach: {sum(counts.values())} functions in src/repro: "
          f"{counts['product']} product, {counts['test-only']} test-only, "
          f"{counts['never']} never ({unreached} unreached by the product; "
          f"list in {args.out})")
    if unreached > UNREACHED_CEILING:
        print(f"reach: {unreached} unreached by the product is over the "
              f"ceiling of {UNREACHED_CEILING}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
