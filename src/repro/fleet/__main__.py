"""Run a monitoring fleet from the shell.

::

    # 16 identical flow-hash nodes over a synthetic DDoS workload,
    # federated result + per-bin latency report:
    PYTHONPATH=src python -m repro.fleet --nodes 16 --workload ddos

    # A declarative topology over a stored trace, checking that the
    # federated answer is bit-identical to a single-node run for every
    # merge-exact query (exit code 1 on mismatch); a v2 store is replayed
    # out of core, one bin at a time, on two resident worker processes:
    PYTHONPATH=src python -m repro.fleet topology.json \\
        --trace path/to/store --n-workers 2 --fleet-backend fork --check

The topology file is YAML (needs PyYAML) or JSON — same schema, see
:mod:`repro.fleet.topology`.  ``--nodes N`` is the shorthand for a uniform
``N``-node fleet and needs no file at all.  System flags (``--queries``,
``--mode``, ``--num-shards``, ...) are the same surface as
``python -m repro.replay`` / ``python -m repro.serve``
(:mod:`repro.cli`); ``--n-workers`` is the number of resident worker
processes the node sessions are dealt onto here.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..cli import (add_capacity_args, add_system_args, apply_system_args,
                   open_trace_arg, resolve_capacity)


#: :data:`repro.fleet.runner.BACKENDS` and
#: :data:`repro.fleet.topology.PARTITION_MODES`, spelled out so that
#: ``--help`` loads neither module (``tests/test_cli.py`` pins them equal).
_BACKENDS = ("auto", "inprocess", "fork")
_PARTITION_MODES = ("flow-hash", "src-prefix", "ingress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Run a fleet of monitor nodes over partitioned traffic "
                    "and federate their results into one answer.")
    parser.add_argument("topology", nargs="?", default=None,
                        help="topology spec file (.json, or .yaml with "
                             "PyYAML installed)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="shorthand: a uniform fleet of N equal-weight "
                             "nodes (instead of a topology file)")
    parser.add_argument("--partition-by", default="flow-hash",
                        choices=_PARTITION_MODES,
                        help="traffic partition rule for --nodes fleets "
                             "(default: %(default)s)")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", default="cesca",
                        help="synthetic workload name from "
                             "repro.experiments.scenarios.WORKLOADS "
                             "(default: %(default)s)")
    source.add_argument("--trace", default=None,
                        help="replay a stored trace (v1 .npz or v2 store) "
                             "instead of a synthetic workload")
    parser.add_argument("--duration", type=float, default=None,
                        help="synthetic workload duration in seconds")
    parser.add_argument("--workload-scale", type=float, default=1.0,
                        help="synthetic workload scale factor "
                             "(default: %(default)s)")
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="synthetic workload seed (default: %(default)s)")
    add_system_args(parser)
    add_capacity_args(parser, overload=0.3)
    parser.add_argument("--fleet-backend", default="auto", choices=_BACKENDS,
                        help="node-execution backend (default: %(default)s): "
                             "'fork' keeps the node sessions resident in "
                             "--n-workers worker processes and feeds them "
                             "bin by bin, 'inprocess' runs them serially, "
                             "'auto' picks 'fork' when --n-workers > 1 and "
                             "the host has the cores")
    parser.add_argument("--check", action="store_true",
                        help="also run the federated-vs-single-node "
                             "exactness check; exit 1 if any merge-exact "
                             "query differs")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the fleet report as JSON")
    return parser


def _build_topology(args):
    from .topology import FleetTopology, load_topology

    if args.topology is not None and args.nodes is not None:
        raise ValueError("give a topology file or --nodes, not both")
    if args.topology is not None:
        return load_topology(args.topology)
    if args.nodes is not None:
        return FleetTopology.uniform(args.nodes,
                                     partition_by=args.partition_by)
    raise ValueError("give a topology file or --nodes N")


def _load_traffic(args):
    if args.trace is not None:
        return open_trace_arg(args.trace)
    from ..experiments.scenarios import build_workload
    return build_workload(args.workload, seed=args.workload_seed,
                          duration=args.duration, scale=args.workload_scale)


def _print_human(report: dict, check: Optional[dict]) -> None:
    print(f"fleet: {report['nodes']} nodes, partition={report['partition_by']},"
          f" backend={report['backend']}, bins={report['bins']}")
    print(f"traffic: {report['total_packets']} packets, "
          f"dropped {report['dropped_packets']} "
          f"({report['drop_fraction']:.2%}), "
          f"mean sampling rate {report['mean_sampling_rate']:.3f}")
    latency = report["bin_latency_seconds"]
    print(f"per-bin latency (straggler node, wall seconds): "
          f"p50={latency['p50']:.6f} p95={latency['p95']:.6f} "
          f"p99={latency['p99']:.6f} max={latency['max']:.6f}")
    delay = report["delay_cycles"]
    print(f"per-bin backlog delay (worst node, cycles): "
          f"p50={delay['p50']:.0f} p95={delay['p95']:.0f} "
          f"p99={delay['p99']:.0f}")
    if check is not None:
        verdict = "PASS" if check["exact_queries_identical"] else "FAIL"
        print(f"exactness check ({verdict}): federated vs single-node")
        for name, entry in sorted(check["queries"].items()):
            gate = "gated" if entry["checked"] else "info"
            print(f"  {name:<16} {entry['exactness']:<8} "
                  f"identical={str(entry['identical']):<5} [{gate}]")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        topology = _build_topology(args)
    except (ValueError, ImportError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from ..experiments import runner as experiments_runner
    from .runner import FleetRunner, verify_exactness

    try:
        config = apply_system_args(experiments_runner.system_config(), args)
        trace = _load_traffic(args)
        capacity = resolve_capacity(config, trace, args)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = config.replace(cycles_per_second=capacity)

    fleet = FleetRunner(topology, config=config, n_workers=args.n_workers,
                        backend=args.fleet_backend)
    result = fleet.run(trace, time_bin=args.time_bin)
    report = result.report()

    check = None
    if args.check:
        check = verify_exactness(topology, trace, config=config,
                                 time_bin=args.time_bin,
                                 n_workers=args.n_workers,
                                 backend=args.fleet_backend)

    if args.as_json:
        document = dict(report)
        if check is not None:
            document["exactness_check"] = check
        print(json.dumps(document, indent=1, default=float))
    else:
        _print_human(report, check)
    if check is not None and not check["exact_queries_identical"]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
