"""Merge-invariant property tests for every registered query.

Two tiers merge query state, and both are pinned here for every kind in
:data:`repro.queries.QUERY_CLASSES`.  Hypothesis draws a random multi-batch
stream, splits every batch flow-affinely across N sub-streams, and runs one
query instance per sub-stream plus one over the whole stream.

**Shards of a node** hand over mergeable *partials*
(``interval_partial`` / ``merge_partials`` / ``finalize``): for any
flow-affine partition into N in {1, 2, 3, 4, 8}, finalising the merged
partials is strictly ``==`` the whole-stream result while nothing is shed,
for all ten kinds, and ``merge_partials`` is associative and
permutation-invariant whatever rates the parts ran at.

**Nodes of a fleet** are independent monitors and federate *finished
results* through ``merge_interval_results`` (``RESULT_MERGE`` /
``derive_merged``) — exactly where that fold is exact, within the
documented bound where it is a mergeable approximation:

===============  ====================================================
counter          exact (additive, flow-disjoint)
flows            exact (flow tables are disjoint across nodes)
trace            exact (per-packet additive)
pattern-search   exact (per-packet additive)
application      exact (per-class additive)
high-watermark   bounded: ``true <= merged <= N * true`` (per-node
                 peaks sum; exact only when nodes peak in one bin)
top-k            with untruncated node tables: the merged ranking is
                 an exact prefix of the whole-stream one (k recovers
                 as the widest node ranking), byte volumes exact,
                 ``table_size`` in ``[true, N * true]``; heuristic
                 once local top-k truncation kicks in
p2p-detector     exact (handshakes are flow-affine)
super-sources    bounded: ``true <= merged <= N * true`` per source
                 (a source's pairs spread across nodes); requires
                 untruncated fan-out reports, since a source falling
                 out of one node's local top-N loses that node's
                 contribution
autofocus        ``total_bytes`` exact; the cluster report is the
                 union of per-node delta reports (per-node
                 thresholds differ from the global one, so no
                 subset/superset relation to the whole-stream report
                 is guaranteed)
===============  ====================================================

These properties replace the earlier hand-written per-query merge example
tests; the exact semantics those examples pinned (k-recovery for top-k,
verdict union for p2p, watermark summation) are re-pinned here as
deterministic regressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.sharding import FLOW_FIELDS
from repro.queries import (MERGE_EXACT_KINDS, MERGE_EXACTNESS,
                           QUERY_CLASSES, make_query)
from tests.conftest import make_batch

#: Queries whose merged result must equal the whole-stream result bit-near.
EXACT = ("counter", "flows", "trace", "pattern-search", "application",
         "p2p-detector")
#: Queries merged within a documented [true, N * true] bound.
BOUNDED = ("high-watermark", "super-sources")

#: Per-kind constructor arguments for the property runs: report-width
#: limits are lifted so the properties probe the merge itself, not the
#: interaction with local top-N truncation (the documented heuristic case).
PROPERTY_KWARGS = {"top-k": {"k": 10_000},
                   "super-sources": {"top_n": 10_000}}

NEEDS_PAYLOAD = tuple(kind for kind, cls in QUERY_CLASSES.items()
                      if cls.needs_payload)


def _stream(seed, n_batches, packets, n_hosts, payloads):
    return [make_batch(n=packets, seed=seed + index, start_ts=0.1 * index,
                       n_hosts=n_hosts, payloads=payloads)
            for index in range(n_batches)]


def _run(kind, batches):
    query = make_query(kind, **PROPERTY_KWARGS.get(kind, {}))
    for batch in batches:
        query.update(query.filter.apply(batch), 1.0)
        query.consume_cycles()
    result = query.interval_result()
    query.consume_cycles()
    return result


def _shard_results(kind, seed, n_batches, packets, n_hosts, num_shards):
    payloads = kind in NEEDS_PAYLOAD
    batches = _stream(seed, n_batches, packets, n_hosts, payloads)
    sub_streams = [[] for _ in range(num_shards)]
    for batch in batches:
        for index, part in enumerate(batch.partition(num_shards,
                                                     FLOW_FIELDS)):
            sub_streams[index].append(part)
    return [_run(kind, sub) for sub in sub_streams]


def _merged_and_whole(kind, seed, n_batches, packets, n_hosts, num_shards):
    payloads = kind in NEEDS_PAYLOAD
    batches = _stream(seed, n_batches, packets, n_hosts, payloads)
    whole = _run(kind, batches)
    shard_results = _shard_results(kind, seed, n_batches, packets, n_hosts,
                                   num_shards)
    merged = QUERY_CLASSES[kind].merge_interval_results(shard_results)
    return merged, whole, shard_results


def _assert_values_close(merged, whole, path=""):
    assert type(merged) is type(whole) or (
        isinstance(merged, (int, float)) and isinstance(whole, (int, float))
    ), f"{path}: {type(merged)} vs {type(whole)}"
    if isinstance(whole, dict):
        assert set(merged) == set(whole), path
        for key in whole:
            _assert_values_close(merged[key], whole[key], f"{path}.{key}")
    elif isinstance(whole, (list, tuple)):
        assert sorted(map(repr, merged)) == sorted(map(repr, whole)), path
    elif isinstance(whole, float):
        assert merged == pytest.approx(whole, rel=1e-9, abs=1e-9), path
    else:
        assert merged == whole, path


stream_params = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n_batches=st.integers(min_value=1, max_value=3),
    packets=st.integers(min_value=1, max_value=250),
    n_hosts=st.integers(min_value=2, max_value=25),
    num_shards=st.integers(min_value=2, max_value=4),
)


@pytest.mark.parametrize("kind", EXACT)
@settings(deadline=None)
@given(**stream_params)
def test_exact_merge_equals_whole_stream(kind, seed, n_batches, packets,
                                         n_hosts, num_shards):
    merged, whole, _ = _merged_and_whole(kind, seed, n_batches, packets,
                                         n_hosts, num_shards)
    _assert_values_close(merged, whole, path=kind)


@pytest.mark.parametrize("kind", BOUNDED)
@settings(deadline=None)
@given(**stream_params)
def test_bounded_merge_brackets_whole_stream(kind, seed, n_batches, packets,
                                             n_hosts, num_shards):
    merged, whole, _ = _merged_and_whole(kind, seed, n_batches, packets,
                                         n_hosts, num_shards)
    if kind == "high-watermark":
        for key in whole:
            assert whole[key] - 1e-9 <= merged[key] \
                <= num_shards * whole[key] + 1e-9, key
    else:  # super-sources
        assert whole["sources"] - 1e-9 <= merged["sources"] \
            <= num_shards * whole["sources"] + 1e-9
        # Per-source fan-outs present in both reports bracket the truth.
        for src, true_fanout in whole["fanout"].items():
            if src in merged["fanout"]:
                assert true_fanout - 1e-9 <= merged["fanout"][src] \
                    <= num_shards * true_fanout + 1e-9, src


@settings(deadline=None)
@given(**stream_params)
def test_top_k_merge_is_exact_prefix_of_whole_stream(seed, n_batches,
                                                     packets, n_hosts,
                                                     num_shards):
    """With untruncated shard tables the re-rank merge is an exact prefix.

    ``k`` is recovered from the widest shard ranking, which can still be
    narrower than the whole-stream table (a shard only ranks destinations
    it saw), so the merged ranking is the whole-stream ranking truncated to
    that width — with *exact* byte volumes, since every shard reported its
    full table.  ``table_size`` sums per-shard tables, an upper bound when
    one destination's flows land on several shards.
    """
    merged, whole, shard_results = _merged_and_whole(
        "top-k", seed, n_batches, packets, n_hosts, num_shards)
    width = max(len(result["ranking"]) for result in shard_results)
    assert merged["ranking"] == whole["ranking"][:width]
    for dst, volume in merged["bytes"].items():
        assert volume == pytest.approx(whole["bytes"][dst], rel=1e-9), dst
    assert whole["table_size"] - 1e-9 <= merged["table_size"] \
        <= num_shards * whole["table_size"] + 1e-9


@settings(deadline=None)
@given(**stream_params)
def test_autofocus_merge_unions_shard_reports(seed, n_batches, packets,
                                              n_hosts, num_shards):
    merged, whole, shard_results = _merged_and_whole(
        "autofocus", seed, n_batches, packets, n_hosts, num_shards)
    assert merged["total_bytes"] == pytest.approx(whole["total_bytes"],
                                                  rel=1e-9)
    union = set()
    for result in shard_results:
        union.update(tuple(cluster) for cluster in result["clusters"])
    assert {tuple(c) for c in merged["clusters"]} == union


@pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_merge_of_identical_copies_is_stable(kind, seed):
    """Algebraic sanity: merging a result with an empty shard keeps it."""
    payloads = kind in NEEDS_PAYLOAD
    result = _run(kind, _stream(seed, 2, 60, 8, payloads))
    empty = _run(kind, [batch.select(np.zeros(len(batch), dtype=bool))
                        for batch in _stream(seed, 2, 60, 8, payloads)])
    merged = QUERY_CLASSES[kind].merge_interval_results([result, empty])
    for key, value in result.items():
        if isinstance(value, float):
            assert merged[key] == pytest.approx(value + empty[key], rel=1e-9)


@pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       order_seed=st.integers(min_value=0, max_value=10_000))
def test_merge_is_associative_and_permutation_invariant(kind, seed,
                                                        order_seed):
    """Any grouping or ordering of partition results folds identically.

    This is the property the fleet tier's second merge level rides on:
    ``merge([a, b, c])`` must equal ``merge([merge([a, b]), c])`` and
    ``merge([a, merge([b, c])])`` (regional pre-aggregation composes) and
    must not care which node reports first.  The property runs with
    untruncated report widths (:data:`PROPERTY_KWARGS`), where every
    registered merge — including the re-ranking ones — is associative.
    """
    results = _shard_results(kind, seed, 2, 150, 12, 3)
    merge = QUERY_CLASSES[kind].merge_interval_results
    flat = merge(results)
    left = merge([merge(results[:2]), results[2]])
    right = merge([results[0], merge(results[1:])])
    order = np.random.default_rng(order_seed).permutation(3)
    permuted = merge([results[index] for index in order])
    _assert_values_close(left, flat, path=f"{kind}:left-grouping")
    _assert_values_close(right, flat, path=f"{kind}:right-grouping")
    _assert_values_close(permuted, flat, path=f"{kind}:permutation")


# ----------------------------------------------------------------------
# The shard tier: partials
# ----------------------------------------------------------------------
#: Rates whose reciprocal is a power of two scale integer counts exactly,
#: so results at mixed rates compare with ``==`` like unshed ones.
RATES = (1.0, 0.5, 0.25, 0.125)


def _random_flow_partition(batch, num_parts, salt):
    """``batch`` split by dealing every flow to the part a salted mix of
    its hash picks (the same part in every batch of a stream)."""
    mixed = (batch.aggregate_hashes(FLOW_FIELDS) ^ salt) * \
        np.uint64(0x9E3779B97F4A7C15)
    return batch.partition(
        num_parts, assignments=(mixed >> np.uint64(40)) % np.uint64(num_parts),
        partition_key=("salted", int(salt)))


def _partial(kind, batches, rate=1.0):
    query = make_query(kind)
    for batch in batches:
        query.update(query.filter.apply(batch), rate)
        query.consume_cycles()
    partial = query.interval_partial()
    query.consume_cycles()
    return partial


def _partials(kind, seed, n_batches, packets, n_hosts, num_parts, rates):
    salt = np.random.default_rng(seed).integers(0, 2 ** 63, dtype=np.uint64)
    batches = _stream(seed, n_batches, packets, n_hosts,
                      kind in NEEDS_PAYLOAD)
    sub_streams = [[] for _ in range(num_parts)]
    for batch in batches:
        for index, part in enumerate(
                _random_flow_partition(batch, num_parts, salt)):
            sub_streams[index].append(part)
    return batches, [_partial(kind, sub, rate)
                     for sub, rate in zip(sub_streams, rates)]


shard_params = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n_batches=st.integers(min_value=1, max_value=3),
    packets=st.integers(min_value=1, max_value=250),
    n_hosts=st.integers(min_value=2, max_value=25),
    num_parts=st.sampled_from((1, 2, 3, 4, 8)),
)


@pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
@settings(deadline=None)
@given(**shard_params)
def test_merged_partials_finalize_to_the_whole_stream_result(
        kind, seed, n_batches, packets, n_hosts, num_parts):
    """Exact for all ten kinds, with the default report widths: a shard
    hands over its whole state, so truncation happens once, after the
    merge, as in a single instance."""
    query_cls = QUERY_CLASSES[kind]
    batches, partials = _partials(kind, seed, n_batches, packets, n_hosts,
                                  num_parts, [1.0] * num_parts)
    whole = query_cls.finalize(_partial(kind, batches))
    assert query_cls.finalize(query_cls.merge_partials(partials)) == whole
    # ...and interval_result() is that same path, end to end.
    query = make_query(kind)
    for batch in batches:
        query.update(query.filter.apply(batch), 1.0)
    assert query.interval_result() == whole


@pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
@settings(deadline=None)
@given(order_seed=st.integers(min_value=0, max_value=10_000),
       **shard_params)
def test_merge_partials_is_associative_and_permutation_invariant(
        kind, seed, n_batches, packets, n_hosts, num_parts, order_seed):
    """Any grouping or ordering of the parts merges to the same partial,
    at any mix of per-part sampling rates, and leaves the parts intact."""
    query_cls = QUERY_CLASSES[kind]
    merge, finalize = query_cls.merge_partials, query_cls.finalize
    rng = np.random.default_rng(order_seed)
    rates = rng.choice(RATES, size=num_parts).tolist()
    _, partials = _partials(kind, seed, n_batches, packets, n_hosts,
                            num_parts, rates)
    flat = finalize(merge(partials))
    cut = int(rng.integers(1, num_parts + 1))
    left = merge([merge(partials[:cut]), *partials[cut:]])
    right = merge([*partials[:cut - 1], merge(partials[cut - 1:])])
    permuted = merge([partials[index]
                      for index in rng.permutation(num_parts)])
    assert finalize(left) == flat, "left grouping"
    assert finalize(right) == flat, "right grouping"
    assert finalize(permuted) == flat, "permutation"
    assert finalize(merge(partials)) == flat, "the parts were modified"


def test_a_pair_two_shards_saw_counts_once_at_its_highest_rate():
    """super-sources: source 7 reaches destination 1 through both shards
    (two flows), destination 2 through the second only."""
    pair = QUERY_CLASSES["super-sources"]
    first = {"top_n": 10, "pairs": {1.0: np.array([(7 << 32) | 1],
                                                  dtype=np.uint64)}}
    second = {"top_n": 10, "pairs": {0.5: np.array(
        [(7 << 32) | 1, (7 << 32) | 2], dtype=np.uint64)}}
    for parts in ([first, second], [second, first]):
        merged = pair.finalize(pair.merge_partials(parts))
        assert merged == {"fanout": {7: 1.0 + 2.0}, "sources": 1.0}


def test_high_watermark_partials_sum_bin_by_bin():
    """The shards peak in different bins: the node's peak is the bin where
    their sum peaks, not the sum of their peaks."""
    query_cls = QUERY_CLASSES["high-watermark"]
    merged = query_cls.merge_partials([{0.0: (100.0, 10.0), 0.1: (20.0, 2.0)},
                                       {0.0: (30.0, 3.0), 0.1: (90.0, 9.0)}])
    assert query_cls.finalize(merged) == {"watermark_bytes": 130.0,
                                          "watermark_packets": 13.0}


def test_exactness_registry_covers_documented_classification():
    """The MERGE_EXACTNESS registry must not drift from this suite.

    The EXACT/BOUNDED tuples above *are* the documented classification the
    properties enforce; the registry (which the fleet exactness gate and
    the README table are driven by) must agree with them kind for kind.
    """
    assert set(MERGE_EXACTNESS) == set(QUERY_CLASSES)
    assert MERGE_EXACT_KINDS == tuple(sorted(EXACT))
    assert all(MERGE_EXACTNESS[kind] == "exact" for kind in EXACT)
    assert all(MERGE_EXACTNESS[kind] == "bounded" for kind in BOUNDED)
    assert MERGE_EXACTNESS["top-k"] == "prefix"
    assert MERGE_EXACTNESS["autofocus"] == "union"


# ----------------------------------------------------------------------
# Deterministic regressions re-pinning the documented merge semantics the
# replaced hand-written examples covered.
# ----------------------------------------------------------------------
class TestMergeSemanticsRegressions:
    def test_high_watermark_merges_by_summation(self):
        results = [{"watermark_bytes": 100.0, "watermark_packets": 10.0},
                   {"watermark_bytes": 250.0, "watermark_packets": 5.0}]
        merged = QUERY_CLASSES["high-watermark"].merge_interval_results(results)
        assert merged == {"watermark_bytes": 350.0,
                          "watermark_packets": 15.0}

    def test_top_k_reranks_summed_volumes(self):
        results = [
            {"ranking": [1, 2], "bytes": {1: 50.0, 2: 40.0},
             "table_size": 4.0},
            {"ranking": [2, 3], "bytes": {2: 30.0, 3: 60.0},
             "table_size": 3.0},
        ]
        merged = QUERY_CLASSES["top-k"].merge_interval_results(results)
        # k is recovered from the widest shard ranking (2 here): the summed
        # volumes re-rank 2 (70) above 3 (60), and 1 (50) falls off the
        # ranking — but the merged volume table keeps every summed entry
        # (volume-descending) so nested merges stay associative.
        assert merged["ranking"] == [2, 3]
        assert merged["bytes"] == {2: 70.0, 3: 60.0, 1: 50.0}
        assert list(merged["bytes"]) == [2, 3, 1]
        assert merged["table_size"] == 7.0

    def test_p2p_detector_unions_verdicts(self):
        results = [
            {"p2p_flows": [3, 5], "flows_seen": 10.0, "p2p_flow_count": 2.0},
            {"p2p_flows": [5, 9], "flows_seen": 7.0, "p2p_flow_count": 2.0},
        ]
        merged = QUERY_CLASSES["p2p-detector"].merge_interval_results(results)
        assert merged["p2p_flows"] == [3, 5, 9]
        assert merged["flows_seen"] == 17.0

    def test_super_sources_retops_summed_fanouts(self):
        results = [
            {"fanout": {1: 4.0, 2: 3.0}, "sources": 2.0},
            {"fanout": {2: 5.0, 3: 1.0}, "sources": 2.0},
        ]
        merged = QUERY_CLASSES["super-sources"].merge_interval_results(results)
        # The merged map keeps every summed source (fan-out descending) so
        # nested merges stay associative; consumers re-truncate if needed.
        assert merged["fanout"] == {2: 8.0, 1: 4.0, 3: 1.0}
        assert list(merged["fanout"]) == [2, 1, 3]
        assert merged["sources"] == 4.0

    def test_autofocus_unions_and_sorts_clusters(self):
        results = [
            {"clusters": [(16, 8), (4096, 16)], "total_bytes": 100.0},
            {"clusters": [[16, 8], [99, 32]], "total_bytes": 50.0},
        ]
        merged = QUERY_CLASSES["autofocus"].merge_interval_results(results)
        assert merged["clusters"] == [(16, 8), (4096, 16), (99, 32)]
        assert merged["total_bytes"] == 150.0
