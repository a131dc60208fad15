#!/usr/bin/env python3
"""Multi-tenant fairness: budgets, floors and starvation-freedom.

Three tenants share one monitor under heavy overload:

* ``ops`` — two cheap operational queries, double weight and a 5%
  sampling-rate floor (the on-call dashboards must never go dark);
* ``research`` — expensive ranking/classification queries, capped at half
  the bin budget however much they ask for;
* ``greedy`` — a tenant whose queries inflate their minimum sampling
  rates far beyond what the box can honour.

The tenant declaration is part of the config, and round-trips through the
same JSON document as the rest of it.  The example runs a predictive
``mmfs_cpu`` system over a synthetic trace,
prints the per-tenant cycle accounting, and then drops to the allocator to
show the two guarantees directly: nobody is starved below a declared
floor, and when floors cannot fit, the inflated demands are the ones
disabled — the Section 5.2.1 anti-cheating rule applied per tenant.
"""

import json

import numpy as np

from repro import SystemConfig, TenantGroup
from repro.core.fairness import STRATEGIES, name_ranks
from repro.core.tenancy import TenantAssignment, TenantRegistry
from repro.traffic import TrafficProfile, generate_trace


def build_config() -> SystemConfig:
    tenants = (
        TenantGroup(name="ops",
                    queries=(("counter", {"name": "pkts"}),
                             ("flows", {"name": "flows"})),
                    weight=2.0, min_rate=0.05),
        TenantGroup(name="research",
                    queries=(("top-k", {"name": "talkers"}),
                             ("application", {"name": "apps"})),
                    budget_share=0.5),
        TenantGroup(name="greedy",
                    queries=(("high-watermark", {"name": "peak"}),),),
    )
    # 'queries' is derived from the tenant groups; a modest budget keeps
    # the system overloaded so the allocator has real decisions to make.
    return SystemConfig(mode="predictive", strategy="mmfs_cpu",
                        tenants=tenants, cycles_per_second=1.5e7, seed=7)


def run_monitor(config: SystemConfig) -> None:
    trace = generate_trace(
        TrafficProfile(duration=6.0, flow_arrival_rate=300.0,
                       with_payloads=False, name="tenancy-demo"), seed=21)
    result = config.build().run(trace, time_bin=0.2)
    totals = result.tenant_cycle_totals()
    grand = sum(totals.values()) or 1.0
    print("Per-tenant cycle accounting "
          f"(drop fraction {result.drop_fraction:.3f}):")
    for tenant in sorted(totals):
        share = totals[tenant] / grand
        print(f"  {tenant:10s} {totals[tenant]:14.3e} cycles  "
              f"({share:5.1%} of accounted work)")


def show_floor_guarantee() -> None:
    print("\nFloors under 10x overload (400 queries, 40 tenants):")
    rng = np.random.default_rng(3)
    names = [f"q{i:04d}" for i in range(400)]
    groups = tuple(
        TenantGroup(name=f"tenant-{slot:02d}",
                    queries=tuple(("counter", {"name": member})
                                  for member in names[slot::40]),
                    min_rate=0.02)
        for slot in range(40))
    registry = TenantRegistry(groups)
    ids = np.array([registry.slot(registry.declared_tenant_of[name])
                    for name in names], dtype=np.intp)
    predicted = rng.uniform(1e3, 1e5, 400)
    min_rates = np.array([registry.min_rate_for(name) for name in names])
    capacity = 0.1 * float(predicted.sum())
    allocation = TenantAssignment(registry, ids).allocate(
        "mmfs_cpu", names, predicted, min_rates, capacity,
        rank=name_ranks(names))
    print(f"  disabled queries: {len(allocation.disabled)}")
    print(f"  minimum sampling rate: {allocation.rate_array.min():.4f} "
          f"(declared floor 0.0200)")
    print(f"  cycles used: {allocation.total_cycles / capacity:.6f} "
          "of capacity")


def show_anti_cheating() -> None:
    print("\nInflated floors are disabled first, not rewarded:")
    names = [f"honest-{i}" for i in range(10)] + ["cheater"]
    predicted = np.full(11, 1000.0)
    predicted[-1] = 50_000.0
    min_rates = np.full(11, 0.5)
    min_rates[-1] = 1.0  # demands its full (inflated) load as a floor
    # No tenants declared: the flat strategy, straight from the registry.
    allocation = STRATEGIES["mmfs_cpu"](names, predicted, min_rates, 6000.0)
    print(f"  disabled: {allocation.disabled}")
    print(f"  honest queries still active: "
          f"{sum(1 for n in names[:-1] if n not in allocation.disabled)}"
          f"/10")


def main() -> None:
    config = build_config()
    document = json.dumps(config.to_dict())
    assert SystemConfig.from_dict(json.loads(document)) == config
    print(f"Config with {len(config.tenants)} tenant groups: "
          f"{len(document)} bytes of JSON, round trip equal\n")
    run_monitor(config)
    show_floor_guarantee()
    show_anti_cheating()


if __name__ == "__main__":
    main()
