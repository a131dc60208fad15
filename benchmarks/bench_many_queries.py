"""Benchmark: per-bin cost scaling with the number of registered queries.

The paper runs its scheme with a handful of queries, but the per-bin hot
path historically paid the full prediction pipeline *per query*: feature
extraction (the dominant term — ten distinct-count estimates per query per
bin) plus FCBF selection and an MLR fit.  The shared feature-state
registry (``repro.core.features.FeatureStateRegistry``) collapses that for
queries observing the same packet stream: one counter-merge round and one
feature read per (filter, interval, counter-backend) group per bin,
whatever the query count.

This benchmark sweeps the registered-query count with sharing on and off
over the same generated trace, in two mixes:

* **same-filter** — every query sees the whole stream (one shared group);
  this case carries the acceptance gate, stated on the shared path alone:
  the group computes one feature read per bin whatever the query count (an
  exact count), and ``GATE_QUERIES`` queries cost at most
  ``MAX_COST_MULTIPLE`` times what ``BASE_QUERIES`` queries cost, i.e. the
  cost per query does not grow with the number of queries (beyond timing
  noise).
* **distinct-filter** — queries cycle through 8 different filters (8
  groups): one computed read per group per bin, and sharing must not cost
  time.

The shared/unshared ``speedup`` is recorded for every row but gates
nothing: since the distinct counters became a popcount kernel the unshared
path's per-query feature read is cheap too, so that ratio shrank (about 8x
to about 1.5x at 100 queries) while both sides got faster in seconds.  What
is left per query and per bin is mostly prediction (FCBF + MLR), which no
amount of feature sharing removes, so the shared path is now close to
linear in queries with a small fixed part.  Every timing is the fastest of
``ROUNDS`` interleaved runs.

Both runs of every pair must produce bit-identical results — sharing is an
exact optimisation, not an approximation — and the shared run's per-bin
latency percentiles (from the built-in ``StageProfiler``) land in
``BENCH_report.json``.
"""

import time

from conftest import BENCH_SCALE, record_result

from repro.monitor.config import SystemConfig
from repro.queries import QuerySpec
from repro.testing import assert_results_identical
from repro.traffic import generate_trace
from repro.traffic.generator import TrafficProfile

TIME_BIN = 0.1
QUERY_COUNTS = (10, 50, 100, 200)
#: The acceptance gate: with sharing on, GATE_QUERIES same-filter queries
#: may cost at most this many times what BASE_QUERIES cost.  Cost per query
#: must not grow with the number of queries, i.e. GATE_QUERIES /
#: BASE_QUERIES = 10x (measured 8.0-9.4x); the bar adds 20% for a host
#: whose speed drifts between the two measurements.
MAX_COST_MULTIPLE = 12.0
BASE_QUERIES = 10
GATE_QUERIES = 100
#: Every timing is the fastest of this many identical runs.
ROUNDS = 4
#: The distinct-filter mix cycles these (8 feature-state groups).  ``all``
#: appears once so the mix includes the whole-stream group too.
FILTER_MIX = ("all", "tcp", "udp", "port:80", "port:443", "port:53",
              "size>=200", "port:6881")


def _specs(n, filters=None):
    return tuple(
        QuerySpec("counter", {"name": f"q{i:03d}"},
                  filter=None if filters is None else filters[i % len(filters)])
        for i in range(n))


def _run(trace, specs, sharing):
    """Ingest ``trace`` under ``specs``; returns (result, seconds, system)."""
    config = SystemConfig(queries=specs, cycles_per_second=1e12, seed=11,
                          feature_sharing=sharing)
    system = config.build()
    session = system.open_session(time_bin=TIME_BIN, name="many-queries")
    start = time.perf_counter()
    for batch in trace.batches(TIME_BIN):
        session.ingest(batch)
    result = session.close()
    return result, time.perf_counter() - start, system


def _fastest(trace, cases):
    """The fastest of ``ROUNDS`` runs of every ``(specs, sharing)`` case.

    The runs are deterministic and host contention only ever adds time.
    Rounds are the outer loop, so every case samples every phase of a host
    whose speed drifts, and ratios between cases compare like with like.
    """
    best = [None] * len(cases)
    for _ in range(ROUNDS):
        for index, (specs, sharing) in enumerate(cases):
            outcome = _run(trace, specs, sharing)
            if best[index] is None or outcome[1] < best[index][1]:
                best[index] = outcome
    return best


def test_shared_feature_state_scales_sublinearly(benchmark):
    profile = TrafficProfile(duration=max(2.0, 4.0 * BENCH_SCALE),
                             flow_arrival_rate=800.0, name="many-queries")
    trace = generate_trace(profile, seed=23)

    def _sweep():
        outcomes = _fastest(trace, [(_specs(n), sharing)
                                    for n in QUERY_COUNTS
                                    for sharing in (True, False)])
        rows = []
        for n, with_sharing, without in zip(QUERY_COUNTS, outcomes[0::2],
                                            outcomes[1::2]):
            shared, shared_seconds, system = with_sharing
            unshared, unshared_seconds, _ = without
            assert_results_identical(shared, unshared, f"same-filter N={n}")
            rows.append((n, shared_seconds, unshared_seconds,
                         system.profiler.bin_seconds,
                         system.feature_states.stats()))
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1,
                              warmup_rounds=0)

    print()
    print("same-filter mix (one shared group):")
    print("  queries  shared      per-query   speedup")
    shared_by_count = {}
    for n, shared_seconds, unshared_seconds, bin_seconds, stats in rows:
        speedup = unshared_seconds / shared_seconds
        print(f"  {n:7d}  {shared_seconds:8.3f}s  {unshared_seconds:8.3f}s"
              f"  {speedup:6.2f}x")
        shared_by_count[n] = shared_seconds
        record_result(
            f"many_queries_same_filter_{n}", shared_seconds,
            speedup=speedup, bin_seconds=bin_seconds,
            unshared_seconds=unshared_seconds, queries=n,
            shared_reads=stats["shared_reads"],
            computed_reads=stats["computed_reads"],
            deduped_merges=stats["deduped_merges"])
    # One feature read per bin for the whole group, however large it is.
    assert len({stats["computed_reads"] for *_, stats in rows}) == 1

    base_seconds = shared_by_count[BASE_QUERIES]
    gate_seconds = shared_by_count[GATE_QUERIES]
    multiple = gate_seconds / base_seconds
    linear = GATE_QUERIES / BASE_QUERIES
    print(f"  gate: {GATE_QUERIES} queries cost <= {MAX_COST_MULTIPLE}x "
          f"{BASE_QUERIES} queries (measured {multiple:.2f}x; linear "
          f"would be {linear:.0f}x)")
    # Recorded as the gain over linear scaling so bench_compare.py gates
    # it like every other ratio (higher is better).
    record_result(
        "many_queries_same_filter_scaling", gate_seconds,
        speedup=linear / multiple, base_seconds=base_seconds,
        base_queries=BASE_QUERIES, queries=GATE_QUERIES,
        cost_multiple=multiple,
        required_speedup=linear / MAX_COST_MULTIPLE)
    assert multiple <= MAX_COST_MULTIPLE


def test_distinct_filter_mix_still_shares(benchmark):
    profile = TrafficProfile(duration=max(2.0, 4.0 * BENCH_SCALE),
                             flow_arrival_rate=800.0, name="many-queries")
    trace = generate_trace(profile, seed=23)
    specs = _specs(GATE_QUERIES, filters=FILTER_MIX)

    def _pair():
        (shared, shared_seconds, system), (unshared, unshared_seconds, _) = \
            _fastest(trace, [(specs, True), (specs, False)])
        return shared, shared_seconds, unshared, unshared_seconds, system

    shared, shared_seconds, unshared, unshared_seconds, system = \
        benchmark.pedantic(_pair, rounds=1, iterations=1, warmup_rounds=0)

    assert_results_identical(shared, unshared,
                             f"distinct-filter N={GATE_QUERIES}")
    stats = system.feature_states.stats()
    speedup = unshared_seconds / shared_seconds
    print()
    print(f"distinct-filter mix ({stats['groups']} groups, "
          f"{GATE_QUERIES} queries): shared {shared_seconds:.3f}s | "
          f"per-query {unshared_seconds:.3f}s | {speedup:.2f}x (ungated)")
    record_result(
        f"many_queries_distinct_filter_{GATE_QUERIES}", shared_seconds,
        speedup=speedup, bin_seconds=system.profiler.bin_seconds,
        unshared_seconds=unshared_seconds, queries=GATE_QUERIES,
        groups=stats["groups"], shared_reads=stats["shared_reads"],
        computed_reads=stats["computed_reads"])
    # One computed read per group per bin; sharing must never cost time.
    assert stats["computed_reads"] == \
        stats["groups"] * system.profiler.bins
    assert speedup >= 1.0
