"""Replay a stored trace through the monitoring system from the shell.

::

    PYTHONPATH=src python -m repro.replay path/to/trace \\
        --queries counter,flows --mode predictive --overload 0.5

``path/to/trace`` is either a v1 ``.npz`` archive or a v2 trace-store
directory (see ``repro.traffic.trace_io``).  Stores replay out-of-core:
each bin is read from its row range of the column files and freed after
it, so the trace may be far larger than RAM (the summary reports the
store's size next to the process's peak resident set).  The capacity
handed to the system is either explicit (``--cycles-per-second``) or
derived from a calibration pass at overload factor ``K`` (``--overload``,
the paper's convention: capacity = (1 - K) × the no-shedding capacity; the
calibration is a full reference replay of the trace).

Prints a human-readable result summary, or a JSON document with ``--json``
(machine-readable, stable keys).

``--num-shards N --check`` is the shard tier's correctness gate (the twin
of ``python -m repro.fleet --check``): it replays the trace on one system
and on ``N`` shards in reference mode, where nothing is shed, and exits 1
naming the first query and interval whose sharded result is not ``==`` the
serial one — for any query kind, on either ``--backend``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# The shared system/sharding flag surface moved to :mod:`repro.cli` (it is
# consumed by repro.replay, repro.serve and repro.fleet alike); the names
# are re-exported here for callers that imported them from this module.
from .cli import (add_backend_arg, add_system_args,  # noqa: F401
                  apply_system_args, resolve_query_specs)
from .profile import peak_rss_mb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Replay a trace (v1 .npz or v2 store) through the "
                    "load-shedding monitoring pipeline.")
    parser.add_argument("trace", help="path to a .npz trace or a trace-store "
                                      "directory")
    add_system_args(parser)
    add_backend_arg(parser)
    capacity = parser.add_mutually_exclusive_group()
    capacity.add_argument("--cycles-per-second", type=float, default=None,
                          help="explicit cycle capacity of the host")
    capacity.add_argument("--overload", type=float, default=0.5,
                          help="overload factor K in [0, 1): capacity is "
                               "(1 - K) x the calibrated no-shedding "
                               "capacity (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="instead of a replay at capacity, replay on "
                             "one system and on --num-shards shards in "
                             "reference mode; exit 1 unless every query "
                             "log is identical")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the summary as JSON")
    return parser


def _summary(result, trace, args, capacity: float, store) -> dict:
    summary = {
        "trace": {
            "name": trace.name,
            "packets": int(len(trace)),
            "duration_seconds": float(trace.duration),
            "bins": len(result.bins),
            "streaming": store is not None,
        },
        "system": {
            "mode": result.mode,
            "strategy": result.strategy,
            "num_shards": args.num_shards,
            "backend": args.backend,
            "n_workers": args.n_workers,
            "cycles_per_second": float(capacity),
            "time_bin": args.time_bin,
        },
        "outcome": {
            "total_packets": result.total_packets,
            "dropped_packets": result.dropped_packets,
            "drop_fraction": float(result.drop_fraction),
            "mean_sampling_rate": result.mean_sampling_rate(),
            "intervals_by_query": {name: len(log.results)
                                   for name, log in
                                   sorted(result.query_logs.items())},
        },
    }
    if store is not None:
        files = [entry for entry in store.path.iterdir() if entry.is_file()]
        summary["streaming"] = {
            "store_mb": sum(f.stat().st_size for f in files) / 2.0 ** 20,
            "peak_rss_mb": peak_rss_mb(),
        }
    return summary


def _print_human(summary: dict) -> None:
    trace, system, outcome = (summary["trace"], summary["system"],
                              summary["outcome"])
    print(f"trace     {trace['name']}: {trace['packets']:,} packets, "
          f"{trace['duration_seconds']:.1f}s, {trace['bins']} bins"
          f"{' (streamed out-of-core)' if trace['streaming'] else ''}")
    print(f"system    mode={system['mode']} strategy={system['strategy']} "
          f"shards={system['num_shards']} "
          f"capacity={system['cycles_per_second']:.3g} cycles/s")
    print(f"outcome   dropped {outcome['dropped_packets']:,}/"
          f"{outcome['total_packets']:,} packets "
          f"({outcome['drop_fraction']:.1%}), mean sampling rate "
          f"{outcome['mean_sampling_rate']:.3f}")
    intervals = ", ".join(f"{name}={count}" for name, count in
                          outcome["intervals_by_query"].items())
    print(f"intervals {intervals}")
    if "streaming" in summary:
        s = summary["streaming"]
        print(f"memory    store_mb {s['store_mb']:.1f}, "
              f"peak_rss_mb {s['peak_rss_mb']:.1f}")


def _check(config, trace, args) -> int:
    """Run the shard exactness gate; print its verdict, return the exit
    code."""
    from .monitor.sharding import verify_shard_exactness
    verdict = verify_shard_exactness(config, trace, time_bin=args.time_bin,
                                     n_workers=args.n_workers,
                                     backend=args.backend)
    if args.as_json:
        print(json.dumps(verdict, indent=1))
    else:
        print(f"shard exactness check "
              f"({'PASS' if verdict['identical'] else 'FAIL'}): "
              f"{verdict['num_shards']} shards ({verdict['backend']}) vs "
              f"serial, reference mode, {verdict['bins']} bins")
        for name, entry in sorted(verdict["queries"].items()):
            print(f"  {name:<16} {entry['intervals']:>4} intervals  "
                  f"{'identical' if entry['identical'] else 'DIFFERENT'}")
        if not verdict["identical"]:
            first = verdict["first_difference"]
            print(f"first difference: query {first['query']!r}, interval "
                  f"{first['interval']} (start {first['interval_start']})")
    return 0 if verdict["identical"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    # Imports deferred so ``--help`` answers without loading the package.
    from .experiments import runner
    from .traffic.trace_io import TraceStore, open_trace

    args = build_parser().parse_args(argv)
    try:
        query_specs = resolve_query_specs(args.queries)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not query_specs:
        print("error: no queries given", file=sys.stderr)
        return 2

    source = open_trace(args.trace)
    store = source if isinstance(source, TraceStore) else None
    trace = source.streaming() if store is not None else source

    # The query mix rides inside the config, so the whole run description
    # round-trips through SystemConfig.to_dict()/from_dict().
    config = apply_system_args(runner.system_config(), args)
    if args.check:
        if config.num_shards < 2:
            print("error: --check compares a sharded run with a serial one; "
                  "give --num-shards >= 2", file=sys.stderr)
            return 2
        return _check(config, trace, args)

    if args.cycles_per_second is not None:
        capacity = float(args.cycles_per_second)
    else:
        if not 0.0 <= args.overload < 1.0:
            print("error: --overload must be in [0, 1)", file=sys.stderr)
            return 2
        base, _ = runner.calibrate_capacity(query_specs, trace,
                                            time_bin=args.time_bin)
        capacity = base * (1.0 - args.overload)

    result = runner.run_system(None, trace, capacity,
                               time_bin=args.time_bin, config=config,
                               num_shards=args.num_shards,
                               n_workers=args.n_workers,
                               backend=args.backend)
    summary = _summary(result, trace, args, capacity, store)
    if args.as_json:
        print(json.dumps(summary, indent=1))
    else:
        _print_human(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
