"""Tier-1 checks of the end-to-end benchmark's own machinery.

No timing assertions: a tiny session workload is prepared and repeated in
process, and the metric assembly, the checker, the tracer arithmetic and the
report comparison are exercised on what it returns.
"""

import copy
import json
import re
from pathlib import Path

import pytest

import bench_e2e
import compare
import metrics
import tracer as tracing
from workloads import WORKLOADS, Workload, prepare

from repro.monitor.config import SystemConfig

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 20-bin session workload: prepared, two plain and two traced repeats."""
    workload = Workload(
        "tiny", "test", "session", dict(duration=2, flow_arrival_rate=300),
        0, lambda: SystemConfig(queries="counter,flows,top-k"))
    work = tmp_path_factory.mktemp("tiny")
    prepared = prepare(workload, 5, work)
    WORKLOADS["tiny"] = workload
    try:
        outs = []
        for index, trace in enumerate((False, False, True, True)):
            workdir = work / f"repeat{index}"
            workdir.mkdir()
            outs.append(bench_e2e.run_child({
                "workload": "tiny", "store": prepared.store_path,
                "config": prepared.config, "trace": trace,
                "workdir": workdir}))
    finally:
        del WORKLOADS["tiny"]
    return prepared, outs


def test_manifest_declares_what_the_code_emits():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == list(metrics.PER_LAYER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def test_every_declared_metric_is_emitted_and_nothing_else(tiny):
    prepared, outs = tiny
    values = metrics.end_to_end(prepared, outs[:2])
    assert list(values) == [name for name, _, _ in metrics.END_TO_END]
    assert all(value != 0 for value in values.values())
    layers = metrics.per_layer(prepared, outs[:2], outs[2:])
    assert all(layers[name] > 0 for name, _, _ in metrics.TIMING)
    assert sorted(layers) == sorted(name for name, _, _ in metrics.PER_LAYER)
    # The traced repeats really went through the wrappers ...
    assert layers["features.extract_calls_per_bin"] > 0
    assert layers["queries.update_ms_per_bin"] > 0
    # (medians over two repeats, so the shares add up only approximately)
    assert layers["tracer.self_sum_share"] == pytest.approx(1.0, abs=0.05)
    # ... every span they recorded has a metric, and the wrappers are gone.
    recorded = {name for out in outs[2:] for name in out["spans"]}
    assert recorded <= set(metrics.SELF_MS_PER_BIN + metrics.OTHER_SPANS)
    assert not hasattr(prepared.config.build().open_session().ingest,
                       "__wrapped__")


def test_repeats_verify_and_one_flipped_value_fails(tiny):
    prepared, outs = tiny
    checker = metrics.verify(prepared, outs)
    assert checker.correct and checker.failed == 0
    assert checker.attempted > len(outs) * prepared.bins
    flipped = copy.deepcopy(outs[1])
    flipped["result"].bins[3].query_cycles += 1.0
    checker = metrics.verify(prepared, [outs[0], flipped])
    assert not checker.correct
    assert checker.failed == 1 + prepared.bins
    assert checker.failures == [
        "repeat 1: result identical to the first repeat"]


def test_self_time_of_nested_spans():
    #        name        start  end  parent bin
    spans = [["root",     0.0, 10.0, -1, -1],
             ["a.outer",  1.0,  7.0,  0,  0],
             ["a.inner",  2.0,  4.0,  1,  0],
             ["a.inner",  5.0,  6.0,  1,  0],
             ["b.leaf",   8.0,  9.5,  0,  1]]
    totals = tracing.reduce(spans)
    assert totals["root"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 2.5}
    assert totals["a.outer"] == {"calls": 1, "inclusive_s": 6.0,
                                 "self_s": 3.0}
    assert totals["a.inner"] == {"calls": 2, "inclusive_s": 3.0,
                                 "self_s": 3.0}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)
    assert tracing.durations(spans, "a.inner") == [2.0, 1.0]


def test_other_threads_roots_are_adopted_by_the_enclosing_driver_span():
    recorder = tracing.Tracer()
    recorder.threads = [
        (2, [["session.ingest", 2.0, 5.0, -1, 0],
             ["queries.update", 3.0, 4.0, 0, 0]]),
        (1, [["root", 0.0, 10.0, -1, -1],
             ["serve.bin", 1.0, 6.0, 0, 0]]),
    ]
    totals = tracing.reduce(recorder.all_spans(driver_thread=1))
    assert totals["serve.bin"]["self_s"] == pytest.approx(2.0)
    assert totals["session.ingest"]["self_s"] == pytest.approx(2.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def _report(scale, calib_ms=10.0, cpu_count=2):
    values = {m["name"]: [scale * (100 + seed) for seed in range(10)]
              for m in MANIFEST["end_to_end"]}
    return {"meta": {"cpu_count": cpu_count, "calib_ms": calib_ms},
            "values": {"w": values}, "failed": {"w": 0}}


def test_compare_verdicts_and_refusals():
    rows = {row["metric"]: row for row in compare.compare_reports(
        _report(1.0), _report(1.5), MANIFEST)}
    assert rows["setup_s"]["verdict"] == "REGRESSED"      # lower is better
    assert rows["accuracy_mean"]["verdict"] == "ok"       # higher is better
    same = compare.compare_reports(_report(1.0), _report(1.0), MANIFEST)
    assert {row["verdict"] for row in same} == {"ok"}
    wide = _report(1.0)
    wide["values"]["w"]["setup_s"] = [1, 9] * 5
    rows = {row["metric"]: row for row in compare.compare_reports(
        wide, _report(1.0), MANIFEST)}
    assert rows["setup_s"]["verdict"] == "unresolved"
    assert compare.comparable(_report(1)["meta"],
                              _report(1, cpu_count=4)["meta"])
    assert compare.comparable(_report(1)["meta"],
                              _report(1, calib_ms=13.0)["meta"])
    assert compare.comparable(_report(1)["meta"],
                              _report(1, calib_ms=12.0)["meta"]) is None
