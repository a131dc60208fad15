"""Benchmark: per-bin cost scaling with the number of registered queries.

The paper runs its scheme with a handful of queries, but the per-bin hot
path historically paid the full prediction pipeline *per query*: feature
extraction (the dominant term — ten distinct-count estimates per query per
bin) plus FCBF selection and an MLR fit.  Feature extraction is shared by
value (``repro.core.features``): extractors that hold the same interval
bank and are handed the same filtered batch pay one feature read and one
counter merge between them, whatever the query count.

This benchmark sweeps the registered-query count over the same generated
trace, with nothing shed, in two mixes:

* **same-filter** — every query sees the whole stream; this case carries
  the acceptance gates: one feature read and one counter merge are computed
  per bin whatever the query count (exact counts), and ``GATE_QUERIES``
  queries cost at most ``MAX_COST_MULTIPLE`` times what ``BASE_QUERIES``
  queries cost, i.e. the cost per query does not grow with the number of
  queries (beyond timing noise).
* **distinct-filter** — queries cycle through 8 different filters: one
  computed read and one computed merge per filter per bin (a filter that
  matches nothing in a bin computes nothing).

What is left per query and per bin is mostly prediction (FCBF + MLR), which
no amount of feature sharing removes, so the cost is close to linear in
queries with a small fixed part.  Every timing is the fastest of ``ROUNDS``
interleaved runs.  That sharing is exact, not an approximation, is the
property suites' job (``tests/test_extractor_oracle.py``,
``tests/test_feature_sharing.py``); the per-bin latency percentiles (from
the built-in ``StageProfiler``) land in ``BENCH_report.json``.
"""

import time

from conftest import BENCH_SCALE, record_result

from repro.monitor.config import SystemConfig
from repro.queries import QuerySpec
from repro.traffic import generate_trace
from repro.traffic.generator import TrafficProfile

TIME_BIN = 0.1
QUERY_COUNTS = (10, 50, 100, 200)
#: The acceptance gate: GATE_QUERIES same-filter queries may cost at most
#: this many times what BASE_QUERIES cost.  Cost per query must not grow
#: with the number of queries, i.e. GATE_QUERIES / BASE_QUERIES = 10x
#: (measured 8.0-9.4x); the bar adds 20% for a host whose speed drifts
#: between the two measurements.
MAX_COST_MULTIPLE = 12.0
BASE_QUERIES = 10
GATE_QUERIES = 100
#: Every timing is the fastest of this many identical runs.
ROUNDS = 4
#: The distinct-filter mix cycles these.  ``all`` appears once so the mix
#: includes the whole stream too.
FILTER_MIX = ("all", "tcp", "udp", "port:80", "port:443", "port:53",
              "size>=200", "port:6881")


def _specs(n, filters=None):
    return tuple(
        QuerySpec("counter", {"name": f"q{i:03d}"},
                  filter=None if filters is None else filters[i % len(filters)])
        for i in range(n))


def _run(trace, specs):
    """Ingest ``trace`` under ``specs``; returns (seconds, session)."""
    config = SystemConfig(queries=specs, cycles_per_second=1e12, seed=11)
    session = config.build().open_session(time_bin=TIME_BIN,
                                          name="many-queries")
    start = time.perf_counter()
    for batch in trace.batches(TIME_BIN):
        session.ingest(batch)
    session.close()
    return time.perf_counter() - start, session


def _filtered_bins(trace, specs):
    """How many (distinct filter, bin) pairs hold any packet.

    While nothing is shed, every query behind one filter holds the same
    interval bank, so each pair costs exactly one computed feature read and
    one computed counter merge.
    """
    filters = {query.filter.cache_key: query.filter
               for query in (spec.build() for spec in specs)}
    return sum(len(packet_filter.apply(batch)) > 0
               for batch in trace.batches(TIME_BIN)
               for packet_filter in filters.values())


def _fastest(trace, cases):
    """The fastest of ``ROUNDS`` runs of every case (a tuple of specs).

    The runs are deterministic and host contention only ever adds time.
    Rounds are the outer loop, so every case samples every phase of a host
    whose speed drifts, and ratios between cases compare like with like.
    """
    best = [None] * len(cases)
    for _ in range(ROUNDS):
        for index, specs in enumerate(cases):
            outcome = _run(trace, specs)
            if best[index] is None or outcome[0] < best[index][0]:
                best[index] = outcome
    return best


def _trace():
    profile = TrafficProfile(duration=max(2.0, 4.0 * BENCH_SCALE),
                             flow_arrival_rate=800.0, name="many-queries")
    return generate_trace(profile, seed=23)


def _assert_one_computation_per_filtered_bin(stats, session, pairs, queries):
    """The exact sharing counts of a run in which nothing was shed."""
    reads = stats["computed_reads"] + stats["shared_reads"]
    assert stats["computed_reads"] == stats["computed_merges"] == pairs
    assert stats["shared_reads"] == stats["deduped_merges"] == reads - pairs
    assert reads <= queries * session.system.profiler.bins


def test_shared_feature_state_scales_sublinearly(benchmark):
    trace = _trace()
    cases = [_specs(n) for n in QUERY_COUNTS]
    outcomes = benchmark.pedantic(_fastest, args=(trace, cases), rounds=1,
                                  iterations=1, warmup_rounds=0)

    print()
    print("same-filter mix:")
    print("  queries  seconds    computed/shared reads")
    seconds_by_count = {}
    for n, specs, (seconds, session) in zip(QUERY_COUNTS, cases, outcomes):
        stats = session.metrics["feature_sharing"]
        bins = session.system.profiler.bins
        print(f"  {n:7d}  {seconds:8.3f}s  {stats['computed_reads']:5d} / "
              f"{stats['shared_reads']}")
        seconds_by_count[n] = seconds
        record_result(
            f"many_queries_same_filter_{n}", seconds,
            bin_seconds=session.system.profiler.bin_seconds, queries=n,
            **stats)
        # One feature read and one merge per bin, however many queries.
        _assert_one_computation_per_filtered_bin(
            stats, session, _filtered_bins(trace, specs), n)
        assert stats["computed_reads"] == bins
        assert stats["shared_reads"] == (n - 1) * bins

    base_seconds = seconds_by_count[BASE_QUERIES]
    gate_seconds = seconds_by_count[GATE_QUERIES]
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
    trace = _trace()
    specs = _specs(GATE_QUERIES, filters=FILTER_MIX)
    (seconds, session), = benchmark.pedantic(
        _fastest, args=(trace, [specs]), rounds=1, iterations=1,
        warmup_rounds=0)

    stats = session.metrics["feature_sharing"]
    pairs = _filtered_bins(trace, specs)
    print()
    print(f"distinct-filter mix ({len(FILTER_MIX)} filters, {GATE_QUERIES} "
          f"queries): {seconds:.3f}s | {stats['computed_reads']} computed "
          f"reads for {pairs} non-empty (filter, bin) pairs")
    record_result(
        f"many_queries_distinct_filter_{GATE_QUERIES}", seconds,
        bin_seconds=session.system.profiler.bin_seconds,
        queries=GATE_QUERIES, filters=len(FILTER_MIX), **stats)
    _assert_one_computation_per_filtered_bin(stats, session, pairs,
                                             GATE_QUERIES)
