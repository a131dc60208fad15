#!/usr/bin/env python3
"""Declarative query mixes: describe *what* runs, ship it anywhere.

A :class:`repro.queries.QuerySpec` names a query kind, its constructor
arguments and an optional packet-filter expression.  A tuple of specs is a
complete query-mix description that

* builds fresh instances on demand (every shard / run gets its own state),
* rides inside :class:`repro.SystemConfig` and round-trips through
  ``to_dict()``/``from_dict()`` (so a JSON file fully describes a run), and
* is what ``python -m repro.replay <trace> --queries specs.json`` consumes.

The example runs a per-protocol accounting mix — the same counter three
times behind different filters, plus two top-k widths — over a synthetic
trace, twice: once from the in-process config, once from a config rebuilt
out of its own JSON serialisation, and checks both executions agree.
"""

import json

from repro.experiments import runner, scenarios
from repro.monitor.config import SystemConfig
from repro.queries import QuerySpec

MIX = (
    QuerySpec("counter", {"name": "counter-all"}),
    QuerySpec("counter", {"name": "counter-tcp"}, filter="tcp"),
    QuerySpec("counter", {"name": "counter-udp"}, filter="udp"),
    QuerySpec("top-k", {"k": 3, "name": "top-3"}),
    QuerySpec("top-k", {"k": 10, "name": "top-10"}),
    "flows",  # plain registry names mix freely with full specs
)


def main() -> None:
    trace = scenarios.header_trace(seed=11, duration=6.0)
    print(f"Generated trace: {len(trace)} packets over {trace.duration:.1f}s")

    config = runner.system_config(mode="predictive", cycles_per_second=5e7,
                                  queries=MIX)
    # The mix is part of the config value object: serialise the whole run
    # description to JSON and rebuild it — nothing else to ship.
    document = json.dumps(config.to_dict(), indent=1)
    rebuilt = SystemConfig.from_dict(json.loads(document))
    assert rebuilt == config

    result = config.build().run(trace)
    rebuilt_result = rebuilt.build().run(trace)

    print("\nPer-query interval counts (declarative mix):")
    for name, log in sorted(result.query_logs.items()):
        print(f"  {name:>12}: {len(log)} intervals")

    tcp = result.query_logs["counter-tcp"].results[-1]["packets"]
    udp = result.query_logs["counter-udp"].results[-1]["packets"]
    total = result.query_logs["counter-all"].results[-1]["packets"]
    print(f"\nLast interval: {total:.0f} packets total, "
          f"{tcp:.0f} tcp + {udp:.0f} udp behind declarative filters")

    for name, log in result.query_logs.items():
        assert rebuilt_result.query_logs[name].results == log.results
    print("\nConfig JSON round-trip reproduced the execution bit for bit.")
    print("\nSame mix from the shell:")
    print("  python -m repro.replay trace.npz --queries specs.json")
    print("  python -m repro.replay trace.npz --queries protocol-split")


if __name__ == "__main__":
    main()
