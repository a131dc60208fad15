"""Unit tests for the keyed-aggregation kernels and the merge engine.

Covers :mod:`repro.core.aggregate` (KeyedAccumulator / DistinctFanout /
payload_hits), the declarative ``RESULT_MERGE`` engine of
:class:`repro.monitor.query.Query` — including the key-union regression
(merging used to iterate the first shard's keys only, dropping keys present
only on later shards and raising ``KeyError`` on keys missing from later
shards) — and the registry drift guard over ``repro.queries``.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.queries as queries_pkg
from oracles.scalar import aggregate_batch
from repro.core.aggregate import (DistinctFanout, KeyedAccumulator,
                                  payload_hits)
from repro.core.distinct import sorted_unique
from repro.monitor.query import Query, merge_additive
from repro.queries import QUERY_CLASSES, make_query


#: Every flag combination a call site passes, and all three at once.
UNIQUE_FLAGS = ({}, {"return_index": True}, {"return_inverse": True},
                {"return_counts": True},
                {"return_index": True, "return_inverse": True,
                 "return_counts": True})


@pytest.mark.parametrize("flags", UNIQUE_FLAGS, ids=lambda f: "+".join(f) or
                         "plain")
@pytest.mark.parametrize("dtype", (np.uint64, np.uint32, np.intp))
@given(values=st.lists(st.integers(min_value=0, max_value=40), max_size=60),
       spread=st.sampled_from((1, 2 ** 20, 2 ** 31 - 1)))
def test_sorted_unique_equals_np_unique(flags, dtype, values, spread):
    """Value for value and dtype for dtype: the tables and the batch memos
    must not be able to tell which one reduced their keys."""
    keys = (np.array(values, dtype=np.int64) * spread).astype(dtype)
    want, got = np.unique(keys, **flags), sorted_unique(keys, **flags)
    if not flags:
        want, got = (want,), (got,)
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


class TestAggregateBatchOracle:
    def test_counts_without_weights(self):
        keys = np.array([5, 3, 5, 5, 3, 9], dtype=np.uint64)
        unique, sums = aggregate_batch(keys)
        assert unique.tolist() == [3, 5, 9]
        assert sums.tolist() == [2.0, 3.0, 1.0]

    def test_weighted_sums(self):
        keys = np.array([1, 2, 1], dtype=np.uint64)
        unique, sums = aggregate_batch(keys, np.array([10.0, 5.0, 2.5]))
        assert unique.tolist() == [1, 2]
        assert sums.tolist() == [12.5, 5.0]


class TestKeyedAccumulator:
    def test_observe_reports_new_key_count(self):
        table = KeyedAccumulator(columns=("v",))
        assert table.observe(np.array([2, 4], dtype=np.uint64),
                             v=np.array([1.0, 2.0])) == 2
        assert table.observe(np.array([2, 3], dtype=np.uint64),
                             v=np.array([5.0, 7.0])) == 1
        assert dict(table.items("v")) == {2: 6.0, 3: 7.0, 4: 2.0}
        assert len(table) == 3

    def test_keys_stay_sorted(self):
        table = KeyedAccumulator()
        rng = np.random.default_rng(0)
        for _ in range(5):
            table.observe(np.unique(rng.integers(0, 1000, 50).astype(np.uint64)))
        assert np.all(np.diff(table.keys.astype(np.int64)) > 0)

    def test_lookup_and_contains(self):
        table = KeyedAccumulator(columns=("v",))
        table.observe(np.array([10, 20], dtype=np.uint64),
                      v=np.array([1.5, 2.5]))
        probe = np.array([20, 99, 10], dtype=np.uint64)
        assert table.contains(probe).tolist() == [True, False, True]
        assert table.lookup(probe, "v").tolist() == [2.5, 0.0, 1.5]
        assert table.lookup(probe, "v", default=-1.0).tolist() == [2.5, -1.0, 1.5]

    def test_top_breaks_ties_by_smaller_key(self):
        table = KeyedAccumulator(columns=("v",))
        table.observe(np.array([1, 2, 3], dtype=np.uint64),
                      v=np.array([5.0, 9.0, 5.0]))
        assert table.top(2, "v") == [(2, 9.0), (1, 5.0)]

    def test_union_equals_whole_stream(self):
        rng = np.random.default_rng(1)
        whole = KeyedAccumulator(columns=("v",))
        parts = [KeyedAccumulator(columns=("v",)) for _ in range(3)]
        for round_ in range(4):
            keys = rng.integers(0, 200, 100).astype(np.uint64)
            weights = rng.random(100)
            unique, sums = aggregate_batch(keys, weights)
            whole.observe(unique, v=sums)
            shard = keys % 3
            for index, part in enumerate(parts):
                mask = shard == index
                unique, sums = aggregate_batch(keys[mask], weights[mask])
                part.observe(unique, v=sums)
        before = [part.keys.copy() for part in parts]
        merged = KeyedAccumulator.union(parts)
        assert merged.keys.tolist() == whole.keys.tolist()
        np.testing.assert_allclose(merged.column("v"), whole.column("v"),
                                   rtol=1e-12)
        assert all(np.array_equal(part.keys, keys)
                   for part, keys in zip(parts, before))

    def test_union_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            KeyedAccumulator.union([KeyedAccumulator(columns=("a",)),
                                    KeyedAccumulator(columns=("b",))])

    def test_reset_empties_the_table(self):
        table = KeyedAccumulator(columns=("v",))
        table.observe(np.array([1], dtype=np.uint64), v=np.array([2.0]))
        table.reset()
        assert len(table) == 0 and dict(table.items("v")) == {}


class TestDistinctFanout:
    def test_keeps_each_distinct_pair_once(self):
        fanout = DistinctFanout()
        src = np.array([1, 1, 1, 2, 2], dtype=np.uint64)
        dst = np.array([7, 7, 8, 7, 9], dtype=np.uint64)
        pairs = DistinctFanout.pair_u32(src, dst)
        new = fanout.observe(pairs, src)
        assert new == 4  # (1,7) duplicated
        assert fanout.pairs.tolist() == sorted_unique(pairs).tolist()
        assert DistinctFanout.key_u32(fanout.pairs).tolist() == [1, 1, 2, 2]
        assert fanout.observe(pairs[:2], src[:2]) == 0
        assert len(fanout) == 4
        fanout.reset()
        assert len(fanout) == 0


class TestPayloadHits:
    def _naive(self, payloads, patterns):
        return [any(payload.find(pattern) >= 0 for pattern in patterns)
                for payload in payloads]

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(3)
        patterns = (b"needle", b"xyz")
        payloads = []
        for _ in range(200):
            body = bytes(rng.integers(97, 123, size=40, dtype=np.uint8))
            if rng.random() < 0.3:
                cut = int(rng.integers(0, len(body)))
                body = body[:cut] + patterns[int(rng.random() < 0.5)] + body[cut:]
            payloads.append(body)
        hit, lengths = payload_hits(payloads, patterns)
        assert hit.tolist() == self._naive(payloads, patterns)
        assert lengths.tolist() == [len(p) for p in payloads]

    def test_no_cross_payload_match(self):
        # "ab" + "cd" must not match "bc" across the boundary.
        hit, _ = payload_hits([b"ab", b"cd"], (b"bc",))
        assert hit.tolist() == [False, False]

    def test_empty_payloads_and_edges(self):
        hit, lengths = payload_hits([b"", b"pat", b""], (b"pat",))
        assert hit.tolist() == [False, True, False]
        assert lengths.tolist() == [0, 3, 0]
        hit, lengths = payload_hits([], (b"pat",))
        assert hit.tolist() == [] and lengths.tolist() == []

    def test_pattern_at_boundaries(self):
        hit, _ = payload_hits([b"patx", b"xpat", b"pat"], (b"pat",))
        assert hit.tolist() == [True, True, True]


class TestMergeEngine:
    """Key-union regressions: the old default merge iterated ``results[0]``."""

    def test_key_only_in_later_shard_is_not_dropped(self):
        merged = make_query("counter").merge_interval_results(
            [{"packets": 1.0}, {"packets": 2.0, "bytes": 30.0}])
        assert merged == {"packets": 3.0, "bytes": 30.0}

    def test_key_missing_from_later_shard_does_not_raise(self):
        merged = make_query("counter").merge_interval_results(
            [{"packets": 1.0, "bytes": 10.0}, {"packets": 2.0}])
        assert merged == {"packets": 3.0, "bytes": 10.0}

    def test_union_rule_over_partial_shards(self):
        merged = make_query("p2p-detector").merge_interval_results(
            [{"p2p_flows": [3], "flows_seen": 2.0, "p2p_flow_count": 1.0},
             {"flows_seen": 1.0, "p2p_flow_count": 0.0}])
        assert merged["p2p_flows"] == [3]
        assert merged["flows_seen"] == 3.0

    def test_derived_keys_recomputed_over_union(self):
        merged = make_query("top-k").merge_interval_results(
            [{"ranking": [1], "bytes": {1: 5.0}, "table_size": 1.0},
             {"bytes": {2: 9.0}, "table_size": 1.0}])
        assert merged["ranking"] == [2]
        # The merged volume table keeps every summed entry (descending) so
        # nested merges stay associative; only the ranking truncates to k.
        assert merged["bytes"] == {2: 9.0, 1: 5.0}
        assert list(merged["bytes"]) == [2, 1]
        assert merged["table_size"] == 2.0

    def test_unmergeable_type_still_raises_with_guidance(self):
        with pytest.raises(TypeError, match="RESULT_MERGE"):
            make_query("counter").merge_interval_results(
                [{"packets": [1, 2]}, {"packets": [3]}])

    def test_merge_additive_unions_dict_keys(self):
        assert merge_additive([{"a": 1.0}, {"b": 2.0, "a": 1.0}]) == \
            {"a": 2.0, "b": 2.0}

    def test_empty_and_single_results(self):
        query = make_query("counter")
        assert query.merge_interval_results([]) == {}
        single = {"packets": 5.0}
        merged = query.merge_interval_results([single])
        assert merged == single and merged is not single


class TestRegistryDriftGuard:
    """Every concrete query shipped under ``repro.queries`` is registered."""

    @staticmethod
    def _concrete_query_classes():
        found = {}
        for info in pkgutil.iter_modules(queries_pkg.__path__):
            module = importlib.import_module(f"{queries_pkg.__name__}."
                                             f"{info.name}")
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if (issubclass(cls, Query) and cls is not Query and
                        not inspect.isabstract(cls) and
                        cls.__module__.startswith(queries_pkg.__name__)):
                    found[cls] = module.__name__
        return found

    def test_every_concrete_query_is_registered(self):
        registered = set(QUERY_CLASSES.values())
        # The Chapter 6 misbehaving variants are deliberately unregistered:
        # they exist to violate the contract, not to be part of a mix.
        from repro.queries import (BuggyP2PDetectorQuery,
                                   SelfishP2PDetectorQuery)
        exempt = {SelfishP2PDetectorQuery, BuggyP2PDetectorQuery}
        for cls, module in self._concrete_query_classes().items():
            if cls in exempt:
                continue
            assert cls in registered, \
                f"{cls.__name__} (in {module}) is not in QUERY_CLASSES"

    def test_registry_names_match_class_names_uniquely(self):
        names = [cls.name for cls in QUERY_CLASSES.values()]
        assert len(set(names)) == len(names), "duplicate default query names"
        for registry_name, cls in QUERY_CLASSES.items():
            assert registry_name == cls.name, \
                f"registry key {registry_name!r} != {cls.__name__}.name " \
                f"({cls.name!r})"

    @pytest.mark.parametrize("kind", sorted(QUERY_CLASSES))
    def test_make_query_round_trips_each_kind(self, kind):
        query = make_query(kind)
        assert isinstance(query, QUERY_CLASSES[kind])
        assert query.name == kind
        # A registered kind must also round-trip through the spec layer.
        from repro.queries import QuerySpec
        spec = QuerySpec(kind)
        assert QuerySpec.from_dict(spec.to_dict()) == spec
        assert type(spec.build()) is QUERY_CLASSES[kind]
