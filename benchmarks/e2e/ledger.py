"""Render ``LEDGER.md``: where the time goes, per workload, with numbers.

Input is one untraced and one traced outcome per workload, as
``bench_e2e.run_workload`` returns them; ``bench_e2e.py --ledger``
regenerates the file.
"""

from typing import Dict, List, Tuple

from metrics import TIMING
from tracer import ROOT
from workloads import FLEET_NODES, PROCESSES, SHARDS, WORKLOADS

TOP_SPANS = 8


def _table(header: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _value(outcome: Dict, metric: str) -> float:
    return outcome["metrics"][metric]["value"]


def _timing(outcome: Dict, metric: str) -> float:
    """An unbounded timing figure of an untraced outcome."""
    return outcome["raw"]["timing"][metric]


def _layer_shares(spans: Dict) -> Dict[str, float]:
    """Self-time share of the traced wall per layer (span-name prefix)."""
    wall = spans[ROOT]["inclusive_s"]
    shares: Dict[str, float] = {}
    for name, totals in spans.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + totals["self_s"] / wall
    return shares


def _top_spans(traced: Dict) -> str:
    spans, bins = traced["raw"]["spans"], traced["raw"]["bins"]
    wall = spans[ROOT]["inclusive_s"]
    ranked = sorted(((name, totals) for name, totals in spans.items()
                     if name != ROOT),
                    key=lambda item: -item[1]["self_s"])[:TOP_SPANS]
    rows = [[name, f"{totals['calls'] / bins:.1f}",
             f"{1e3 * totals['self_s'] / bins:.3f}",
             f"{100 * totals['self_s'] / wall:.1f}%"]
            for name, totals in ranked]
    return _table(["span", "calls/bin", "self ms/bin", "share of wall"], rows)


def render(rows: Dict[str, Tuple[Dict, Dict]], host: Dict, seed: int) -> str:
    untraced = {name: pair[0] for name, pair in rows.items()}
    traced = {name: pair[1] for name, pair in rows.items()}
    names = list(rows)
    out = [
        "# Perf ledger: where the time goes",
        "",
        "Generated by `python3 benchmarks/e2e/bench_e2e.py --ledger` "
        f"(seed {seed}; {host['cpu_count']} CPUs, Python {host['python']}, "
        f"NumPy {host['numpy']}, `host.calib_ms` {host['calib_ms']:.2f}). "
        "Regenerate it; do not edit it. Absolute numbers belong to this "
        "host; shares and ratios travel better. This PR claims no gain: "
        "the ledger is the ruler later PRs are measured with.",
        "",
        "## End to end (untraced run)",
        "",
        _table(["metric", "unit"] + names, [
            [metric, unit]
            + [f"{_timing(untraced[name], metric):.5g}" for name in names]
            for metric, unit, _ in TIMING] + [
            [metric, entry["unit"]]
            + [f"{_value(untraced[name], metric):.5g}" for name in names]
            for metric, entry in untraced[names[0]]["metrics"].items()]),
        "",
        "## Top spans by self time (traced run)",
        "",
        "Self time = a span's duration minus what its child spans cover. "
        "On `workers-header` and `fleet-header` the pipeline runs in forked "
        "children whose spans stay there, so the parent's view is waiting "
        "(`workers.wait`, `fleet.run`) plus its own partition/pack/merge "
        "work; child stage time comes from the program's `StageProfiler`.",
    ]
    for name in names:
        out += ["", f"### {name}", "", _top_spans(traced[name])]

    out += ["", "## Cross-checks", "", _table(
        ["workload", "self times / traced wall", "unattributed share",
         "tracer overhead share", "noise ratio"],
        [[name,
          f"{100 * _value(traced[name], 'tracer.self_sum_share'):.1f}%",
          f"{100 * _value(traced[name], 'tracer.unattributed_share'):.2f}%",
          f"{100 * _value(traced[name], 'tracer.overhead_share'):.1f}%",
          f"{_value(traced[name], 'bench.noise_ratio'):.2f}"]
         for name in names])]
    header = traced["session-header"]
    out += ["", "Inclusive stage spans against the program's own "
            "`session.metrics[\"profile\"][\"stages\"]`, same repeat of "
            "`session-header` (the profiler times the same call from just "
            "outside the wrapper, so the two should agree within 5% wherever "
            "a stage is long enough to measure):", "", _table(
                ["stage", "span inclusive s", "StageProfiler s", "ratio"],
                [[stage, f"{span_s:.4f}", f"{profiler_s:.4f}",
                  f"{span_s / profiler_s:.3f}"]
                 for stage, (span_s, profiler_s)
                 in header["raw"]["stage_check"].items()])]
    spans = header["raw"]["spans"]

    # -- sizing fact 1 --------------------------------------------------
    shares = _layer_shares(spans)
    feature_share = shares.get("features", 0.0) + shares.get("distinct", 0.0)
    with_hash = feature_share + spans.get(
        "packet.hash", {"self_s": 0.0})["self_s"] / spans[ROOT]["inclusive_s"]
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    verdict = "Confirmed" if feature_share > 0.5 else "Corrected"
    out += [
        "", "## Sizing facts, checked", "",
        "**1. \"`features.*` + `distinct.*` own most of `session-header`.\"** "
        f"{verdict}: they own {100 * feature_share:.1f}% of the traced wall "
        f"({100 * with_hash:.1f}% with the `packet.hash` calls made on their "
        "behalf). Layer shares, largest first: "
        + ", ".join(f"`{layer}` {100 * share:.1f}%"
                    for layer, share in ranked[:6]) + ".",
    ]

    # -- sizing fact 2 --------------------------------------------------
    facts = {}
    for name in ("session-header", "session-tenants"):
        raw = untraced[name]["raw"]
        queries = len(WORKLOADS[name].config().queries)
        estimate = traced[name]["raw"]["spans"]["distinct.estimate"]
        facts[name] = {
            "queries": queries,
            "packets": raw["packets"] / raw["bins"],
            "ms_per_query": _timing(untraced[name], "bin_ms_p50") / queries,
            "estimates_per_query": estimate["calls"] / raw["bins"] / queries,
            "estimate_us": 1e6 * estimate["self_s"] / estimate["calls"],
            "estimate_share": estimate["self_s"]
            / traced[name]["raw"]["spans"][ROOT]["inclusive_s"],
        }
    dense, sparse = facts["session-header"], facts["session-tenants"]
    packets_ratio = dense["packets"] / sparse["packets"]
    cost_ratio = dense["ms_per_query"] / sparse["ms_per_query"]
    follows_queries = abs(cost_ratio - 1.0) < 0.5 * (packets_ratio - 1.0)
    out += [
        "",
        "**2. \"`session-tenants` bin time follows query count, not packet "
        f"count.\"** {'Confirmed' if follows_queries else 'Corrected'}: its "
        f"median bin costs {sparse['ms_per_query']:.2f} ms per query at "
        f"{sparse['packets']:.0f} pkt/bin ({sparse['queries']} queries), "
        f"against {dense['ms_per_query']:.2f} ms per query at "
        f"{dense['packets']:.0f} pkt/bin on `session-header` "
        f"({dense['queries']} queries): {packets_ratio:.1f}x the packets move "
        f"the per-query cost by {cost_ratio:.2f}x. The reason is one span: "
        f"`distinct.estimate` is called {sparse['estimates_per_query']:.1f} "
        f"times per query per bin at {sparse['estimate_us']:.1f} us a call "
        f"({100 * sparse['estimate_share']:.0f}% of the wall) here, and "
        f"{dense['estimates_per_query']:.1f} times at "
        f"{dense['estimate_us']:.1f} us ("
        f"{100 * dense['estimate_share']:.0f}%) on `session-header`; a "
        "bitmap estimate costs the same whatever the packets. Inside one "
        "run bin time still steps up with packets, because a fuller bin is "
        "the one that sheds and then extracts features a second time on "
        "the sample; that is a threshold, not a per-packet cost.",
    ]

    # -- workers vs session ---------------------------------------------
    workers, t_workers = untraced["workers-header"], traced["workers-header"]
    bins = workers["raw"]["bins"]

    def traced_ms(outcome: Dict, span: str = ROOT) -> float:
        return 1e3 * outcome["raw"]["spans"][span]["inclusive_s"] / bins

    session_ms = traced_ms(header)
    busy = _value(t_workers, "workers.child_busy_ms_per_bin")
    part = {key: _value(t_workers, f"{key}_ms_per_bin") for key in (
        "packet.hash", "packet.partition", "packet.pack", "workers.send",
        "workers.wait", "workers.transport", "sharding.bin_merge",
        "sharding.ingest_self")}
    rows = {
        "duplicated fixed cost (both shards' stage time beyond one "
        "session's)": SHARDS * busy - session_ms,
        "skew and transport (`workers.transport`)": part["workers.transport"],
        "partition, pack, send, merge in the parent":
            part["packet.hash"] + part["packet.partition"]
            + part["packet.pack"] + part["workers.send"]
            + part["sharding.bin_merge"] + part["sharding.ingest_self"],
    }
    speedup = _timing(workers, "pkts_per_s") \
        / _timing(untraced["session-header"], "pkts_per_s")
    out += [
        "", "## Attribution: `workers-header` against `session-header`", "",
        f"Same packets, same config. Untraced, the workers reach {speedup:.2f}x "
        "the session's `pkts_per_s`. Traced, one session spends "
        f"{session_ms:.2f} ms per bin and {SHARDS} shard workers "
        f"{traced_ms(t_workers):.2f} ms, which breaks down as (ms per bin):",
        "",
        _table(["where", "ms/bin", "note"], [
            ["child stage time, mean shard", f"{busy:.2f}",
             "[source: profiler]; half a session bin would be "
             f"{session_ms / SHARDS:.2f}"],
            ["parent waits (`workers.wait`)", f"{part['workers.wait']:.2f}",
             "the slower shard, then unpacking, record pickling and the pipe"],
            ["skew and transport (`workers.transport`)",
             f"{part['workers.transport']:.2f}",
             "pack + send + wait - mean child time; `shard_skew` = "
             f"{_value(t_workers, 'sharding.shard_skew'):.3f} "
             "(max / mean shard packets)"],
            ["partition (`packet.hash` + `packet.partition`)",
             f"{part['packet.hash'] + part['packet.partition']:.2f}",
             "serial, in the parent"],
            ["shared-memory pack + send",
             f"{part['packet.pack'] + part['workers.send']:.2f}",
             f"{_value(t_workers, 'workers.shm_bytes_per_bin') / 1e3:.0f} "
             "kB per bin"],
            ["merge + session glue",
             f"{part['sharding.bin_merge'] + part['sharding.ingest_self']:.2f}",
             "`BinRecord.merge` per bin"],
        ]), "",
        "Extra CPU-ms per bin against one session, largest first: "
        + "; ".join(f"{label} {value:.2f}" for label, value in
                    sorted(rows.items(), key=lambda item: -item[1])) + ". "
        "A shard sees half the packets but runs the whole per-query per-bin "
        "loop (see fact 2: that loop does not shrink with the packets), so "
        "two shards in parallel finish a bin about when one session would, "
        "and skew, transport and the serial parent work come on top. A "
        "saving inside the child pipeline is scaled by `shard_skew`, "
        "because the bin waits for the slower shard.",
    ]

    # -- fleet vs one node ----------------------------------------------
    fleet, t_fleet = untraced["fleet-header"], traced["fleet-header"]
    bins = fleet["raw"]["bins"]
    single = _value(t_fleet, "fleet.single_node_s")
    node_run = _value(t_fleet, "fleet.node_run_s")
    run_wall = fleet["raw"]["packets"] / _timing(fleet, "pkts_per_s")
    fixed_ms = 1e3 * (node_run - single) / ((FLEET_NODES - 1) * bins)
    split_s = bins / 1e3 * sum(
        _value(t_fleet, f"{key}_ms_per_bin")
        for key in ("fleet.split", "packet.hash", "packet.partition"))
    rows = {
        "per-node per-bin fixed cost on the pool":
            (node_run - single) / PROCESSES,
        "pool overhead": _value(t_fleet, "fleet.pool_overhead_s"),
        "split": split_s,
        "federate": _value(t_fleet, "fleet.federate_ms") / 1e3,
    }
    out += [
        "", "## Attribution: `fleet-header` against one node", "",
        f"One predictive node ingests the whole store in {single:.2f} s. "
        f"Untraced, the {FLEET_NODES}-node fleet's fastest `FleetRunner.run` "
        f"takes {run_wall:.2f} s ({run_wall / single:.1f}x). The parts "
        "(traced):", "",
        _table(["part", "seconds", "note"], [
            ["sum of node bin time (`fleet.node_run_s`)", f"{node_run:.2f}",
             f"{node_run / single:.1f}x one node for the same packets: "
             f"{fixed_ms:.2f} ms of fixed cost per extra node-bin"],
            [f"packed on {PROCESSES} workers", f"{node_run / PROCESSES:.2f}",
             "the floor for this pool size"],
            ["pool overhead (`fleet.pool_overhead_s`)",
             f"{rows['pool overhead']:.2f}",
             "fork, per-node system build, result pickling, idle tail"],
            ["split (`fleet.split` + its hashing and partition)",
             f"{split_s:.2f}", "serial, before the pool starts"],
            ["federate (`fleet.federate_ms`)", f"{rows['federate']:.3f}",
             "one merge of the node results"],
        ]), "",
        "Seconds of wall beyond one node, largest first: "
        + "; ".join(f"{label} {value:.2f}" for label, value in
                    sorted(rows.items(), key=lambda item: -item[1])) + ". "
        "Splitting the packets eight ways does not split the per-bin "
        "predict/allocate/account work, so eight nodes do about "
        f"{node_run / single:.1f}x the work of one, and {FLEET_NODES} jobs "
        f"on {PROCESSES} workers put {FLEET_NODES // PROCESSES} node-bins of "
        "it on every bin of wall (`node_skew` "
        f"{_value(t_fleet, 'fleet.node_skew'):.3f}, straggler p90 "
        f"{_value(t_fleet, 'fleet.straggler_ms_p90'):.2f} ms). ROADMAP's "
        "67x for 128 nodes is this same line extended: the cost grows with "
        "nodes x bins, not with packets.",
        "",
    ]
    return "\n".join(out)
