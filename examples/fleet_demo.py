#!/usr/bin/env python3
"""Fleet federation: hundreds of monitor nodes, one answer, one API.

A production deployment of the paper's load shedder is not one CoMo box but
a fleet of them — per-PoP taps, each watching its slice of the traffic,
each running its own predict/shed loop on its own cycle budget.  This
example builds a weighted 8-node fleet from a declarative topology (the
same JSON/YAML schema ``python -m repro.fleet`` consumes), runs every node
over its flow-partition of a synthetic trace, federates the per-node
results through the declarative ``RESULT_MERGE`` rules into one
``ExecutionResult``, and then proves the whole construction honest: in
reference mode the federated answer is **bit-identical** to a single node
monitoring the entire stream, for every merge-exact query.
"""

import json
import tempfile
from pathlib import Path

from repro import FleetRunner, FleetTopology, NodeSpec
from repro.experiments import runner, scenarios
from repro.fleet import load_topology, verify_exactness
from repro.queries import parse_query_specs

TIME_BIN = 0.1
QUERY_SPECS = "counter,flows,top-k"


def main() -> None:
    trace = scenarios.build_workload("cesca", seed=42, scale=0.4)

    # A weighted topology: two big PoPs own three quarters of the flow-hash
    # space (and of the fleet's cycle capacity); the small tap runs the
    # cheaper reactive shedder.  FleetTopology.to_dict() *is* the JSON
    # file format of `python -m repro.fleet topology.json`: write the file
    # and run the fleet it describes.
    declared = FleetTopology(
        nodes=[NodeSpec("pop-a", weight=3.0),
               NodeSpec("pop-b", weight=3.0),
               NodeSpec("tap-edge", weight=2.0,
                        overlay={"mode": "reactive"})],
        partition_by="flow-hash",
        defaults={"predictor": "mlr"})
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        path = Path(tmp) / "topology.json"
        path.write_text(json.dumps(declared.to_dict(), indent=1))
        topology = load_topology(str(path))
    assert topology.to_dict() == declared.to_dict()

    query_names = [spec.instance_name
                   for spec in parse_query_specs(QUERY_SPECS)]
    capacity, reference = runner.calibrate_capacity(query_names, trace,
                                                    time_bin=TIME_BIN)
    config = runner.system_config(queries=parse_query_specs(QUERY_SPECS),
                                  cycles_per_second=capacity * 0.6)
    print(f"Trace: {len(trace)} packets over {trace.duration:.1f} s; "
          f"fleet capacity {capacity * 0.6:.3g} cycles/s split "
          f"{'/'.join(str(int(w)) for w in topology.weights)} by weight")

    # Run the fleet: every node ingests its flow-affine partition through
    # its own full predict/shed pipeline; the FleetAggregator folds the
    # per-node results (second merge tier) and operational metrics.
    fleet = FleetRunner(topology, config=config)
    result = fleet.run(trace, time_bin=TIME_BIN)
    report = result.report(reference=reference)

    print(f"\nFederated: {report['bins']} bins, "
          f"{report['total_packets']} packets, "
          f"drop fraction {report['drop_fraction']:.2%}, "
          f"mean sampling rate {report['mean_sampling_rate']:.2f}")
    latency = report["bin_latency_seconds"]
    print(f"Per-bin federation latency (straggler node): "
          f"p50={latency['p50'] * 1e3:.2f}ms p95={latency['p95'] * 1e3:.2f}ms "
          f"p99={latency['p99'] * 1e3:.2f}ms")
    for node, execution in zip(topology.nodes, result.node_results):
        print(f"  {node.name:<9} budget={execution.budget.cycles_per_second:>10.3g} "
              f"mode={execution.mode:<10} "
              f"packets={execution.total_packets:>6} "
              f"rate={execution.mean_sampling_rate():.2f}")
    print("Accuracy vs ground truth (federated under shedding):")
    for name, accuracy in sorted(report["accuracy"].items()):
        print(f"  {name:<10} {accuracy:.3f}")

    # The exactness gate: rerun fleet + single node in reference mode (no
    # shedding) — every merge-exact query must agree bit for bit.
    verdict = verify_exactness(topology, trace, config=config,
                               time_bin=TIME_BIN)
    print(f"\nExactness check over {verdict['nodes']} nodes "
          f"({verdict['partition_by']}): "
          f"{'PASS' if verdict['exact_queries_identical'] else 'FAIL'}")
    for name, entry in sorted(verdict["queries"].items()):
        print(f"  {name:<10} merge={entry['exactness']:<7} "
              f"identical={entry['identical']}")
    assert verdict["exact_queries_identical"]


if __name__ == "__main__":
    main()
