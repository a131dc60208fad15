"""Tests for the standard query plug-ins and their accuracy metrics."""

import numpy as np
import pytest

from oracles.scalar import boyer_moore_horspool
from repro.core.aggregate import payload_hits
from repro.monitor import metrics
from repro.monitor.packet import HEADER_FIELDS, Batch
from repro.monitor.query import SAMPLING_CUSTOM, SAMPLING_FLOW
from repro.queries import (QUERY_CLASSES, BuggyP2PDetectorQuery,
                           P2PDetectorQuery, SelfishP2PDetectorQuery,
                           make_query)
from tests.conftest import make_batch, process


class TestQueryFactory:
    def test_all_standard_queries_instantiate(self):
        queries = [make_query(kind) for kind in QUERY_CLASSES]
        assert len(queries) == len(QUERY_CLASSES)
        assert len({q.name for q in queries}) == len(queries)

    def test_unknown_query(self):
        with pytest.raises(KeyError):
            make_query("nope")

    def test_minimum_sampling_rates_in_range(self):
        for kind in QUERY_CLASSES:
            query = make_query(kind)
            assert 0.0 <= query.minimum_sampling_rate <= 1.0

    def test_every_query_has_a_metric(self):
        for name in QUERY_CLASSES:
            assert name in metrics.ERROR_FUNCTIONS


class TestQueryProcessing:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_process_charges_cycles(self, name, payload_trace_small):
        query = make_query(name)
        batch = next(payload_trace_small.batches(0.1))
        cycles = process(query, batch, sampling_rate=1.0)
        assert cycles > 0
        result = query.interval_result()
        assert isinstance(result, dict) and result

    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_empty_batch_handled(self, name):
        query = make_query(name)
        cycles = process(query, Batch.empty(with_payloads=True), 1.0)
        assert cycles >= 0
        query.interval_result()

    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_reset_clears_state(self, name, payload_trace_small):
        query = make_query(name)
        batch = next(payload_trace_small.batches(0.1))
        process(query, batch, 1.0)
        query.reset()
        assert query.meter._accumulated == 0.0


class TestCounterQuery:
    def test_exact_counts(self):
        query = make_query("counter")
        batch = make_batch(n=120)
        process(query, batch, 1.0)
        result = query.interval_result()
        assert result["packets"] == 120
        assert result["bytes"] == batch.byte_count

    def test_sampling_scaling(self):
        query = make_query("counter")
        batch = make_batch(n=100)
        process(query, batch, sampling_rate=0.5)
        result = query.interval_result()
        assert result["packets"] == pytest.approx(200)

    def test_interval_reset(self):
        query = make_query("counter")
        process(query, make_batch(n=50), 1.0)
        query.interval_result()
        assert query.interval_result()["packets"] == 0


class TestFlowsQuery:
    def test_counts_distinct_flows(self):
        query = make_query("flows")
        batch = make_batch(n=400, seed=3, n_hosts=15)
        process(query, batch, 1.0)
        result = query.interval_result()
        true_flows = len(set(zip(*(getattr(batch, field).tolist() for field in HEADER_FIELDS))))
        assert result["flows"] == pytest.approx(true_flows, rel=0.01)

    def test_duplicate_packets_not_double_counted(self):
        query = make_query("flows")
        batch = make_batch(n=100, seed=4)
        process(query, batch, 1.0)
        process(query, batch, 1.0)
        result = query.interval_result()
        assert result["flows"] == len(
            set(zip(*(getattr(batch, field).tolist() for field in HEADER_FIELDS))))

    def test_uses_flow_sampling(self):
        assert make_query("flows").sampling_method == SAMPLING_FLOW


class TestTopKQuery:
    def test_ranking_matches_truth(self):
        query = make_query("top-k")
        batch = make_batch(n=800, seed=6, n_hosts=12)
        process(query, batch, 1.0)
        result = query.interval_result()
        volumes = {}
        for dst, size in zip(batch.dst_ip, batch.size):
            volumes[int(dst)] = volumes.get(int(dst), 0) + int(size)
        true_top = sorted(volumes, key=lambda d: (-volumes[d], d))[:10]
        assert result["ranking"] == true_top

    def test_misranked_pairs_zero_for_identical(self):
        query = make_query("top-k")
        batch = make_batch(n=500, seed=7)
        process(query, batch, 1.0)
        result = query.interval_result()
        assert metrics.top_k_misranked_pairs(result, result) == 0


class TestHighWatermarkAndApplication:
    def test_watermark_is_max(self):
        query = make_query("high-watermark")
        process(query, make_batch(n=50, seed=1), 1.0)
        process(query, make_batch(n=200, seed=2), 1.0)
        big = make_batch(n=200, seed=2)
        result = query.interval_result()
        assert result["watermark_bytes"] >= big.byte_count * 0.99

    def test_application_classification_total(self):
        query = make_query("application")
        batch = make_batch(n=300, seed=8)
        process(query, batch, 1.0)
        result = query.interval_result()
        assert sum(result["packets_by_app"].values()) == pytest.approx(300)


class TestPatternSearch:
    def test_boyer_moore_matches_find(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            haystack = bytes(rng.integers(97, 105, size=200, dtype=np.uint8))
            needle = bytes(rng.integers(97, 105, size=3, dtype=np.uint8))
            assert boyer_moore_horspool(haystack, needle) == haystack.find(needle)

    def test_batched_scan_matches_boyer_moore(self):
        """The query's one-sweep scan over joined payloads finds exactly
        the payloads the scalar algorithm finds."""
        rng = np.random.default_rng(1)
        payloads = [bytes(rng.integers(97, 101, size=int(size),
                                       dtype=np.uint8))
                    for size in rng.integers(0, 40, size=300)]
        needle = b"abca"
        hit, _ = payload_hits(payloads, (needle,))
        assert hit.tolist() == [boyer_moore_horspool(payload, needle) >= 0
                                for payload in payloads]
        assert 0 < hit.sum() < len(payloads)

    def test_bmh_edge_cases(self):
        assert boyer_moore_horspool(b"abc", b"") == 0
        assert boyer_moore_horspool(b"ab", b"abc") == -1
        assert boyer_moore_horspool(b"hello world", b"world") == 6

    def test_counts_matches(self):
        query = make_query("pattern-search")
        payloads = [b"nothing here", b"xx" + query.pattern + b"yy", b"zzz"]
        batch = make_batch(n=3, payloads=False)
        batch.payloads = payloads
        process(query, batch, 1.0)
        result = query.interval_result()
        assert result["matches"] == 1
        assert result["packets_scanned"] == 3


class TestP2PDetector:
    def _p2p_batch(self, n_handshake=2):
        from repro.traffic.generator import P2P_SIGNATURES
        batch = make_batch(n=6, payloads=True, seed=20)
        payloads = [b"x" * 40 for _ in range(6)]
        for i in range(n_handshake):
            payloads[i] = P2P_SIGNATURES[0] + b"rest"
        batch.payloads = payloads
        # Make all six packets belong to one flow.
        for column in ("src_ip", "dst_ip", "src_port", "dst_port", "proto"):
            arr = getattr(batch, column)
            arr[:] = arr[0]
        return batch

    def test_detects_flow_with_full_handshake(self):
        query = P2PDetectorQuery()
        process(query, self._p2p_batch(n_handshake=2), 1.0)
        result = query.interval_result()
        assert result["p2p_flow_count"] == 1

    def test_misses_flow_with_partial_handshake(self):
        query = P2PDetectorQuery()
        process(query, self._p2p_batch(n_handshake=1), 1.0)
        result = query.interval_result()
        assert result["p2p_flow_count"] == 0

    def test_custom_shedding_fraction(self):
        query = P2PDetectorQuery(custom_shedding=True)
        assert query.sampling_method == SAMPLING_CUSTOM
        batch = make_batch(n=500, seed=21, payloads=True)
        applied = query.shed_load(batch, target_fraction=0.5)
        assert 0.2 <= applied <= 0.8

    def test_custom_shedding_weighs_each_flow_by_its_threshold(self):
        """Heavy flows under the hash threshold lower it below the grant;
        weighing each kept flow by the inverse of its batch's threshold
        keeps the flow estimate on the true count over hash draws (scaled
        by the grant, it reads 67 of these 80 flows)."""
        rng = np.random.default_rng(5)
        flow = np.repeat(np.arange(80), rng.zipf(1.6, size=80).clip(max=200))
        n = len(flow)
        batch = Batch(
            ts=np.linspace(0.0, 0.1, n, endpoint=False),
            src_ip=(flow + 1).astype(np.uint32),
            dst_ip=np.full(n, 9, dtype=np.uint32),
            src_port=np.full(n, 1234, dtype=np.uint16),
            dst_port=np.full(n, 80, dtype=np.uint16),
            proto=np.full(n, 6, dtype=np.uint8),
            size=np.full(n, 100, dtype=np.uint32),
            payloads=[b"x" * 50] * n, time_bin=0.1, start_ts=0.0)
        estimates = []
        for key in range(100):
            query = P2PDetectorQuery(custom_shedding=True)
            query.reseed(key)
            assert query.shed_load(batch, 0.5) <= 0.5
            estimates.append(query.interval_partial()["flows_seen"])
        assert np.mean(estimates) == pytest.approx(80, rel=0.05)

    def test_selfish_variant_ignores_request(self):
        query = SelfishP2PDetectorQuery()
        batch = make_batch(n=300, seed=22, payloads=True)
        claimed = query.shed_load(batch, target_fraction=0.1)
        full_cost_query = SelfishP2PDetectorQuery()
        full_cost = process(full_cost_query, batch, 1.0)
        assert claimed == pytest.approx(0.1)
        assert query.consume_cycles() == pytest.approx(full_cost, rel=0.2)

    def test_buggy_variant_sheds_too_little(self):
        buggy = BuggyP2PDetectorQuery()
        honest = P2PDetectorQuery(custom_shedding=True)
        batch = make_batch(n=800, seed=23, payloads=True)
        applied_buggy = buggy.shed_load(batch, 0.25)
        applied_honest = honest.shed_load(batch, 0.25)
        assert applied_buggy > applied_honest

    def test_custom_shedding_disabled_by_default(self):
        query = P2PDetectorQuery()
        with pytest.raises(NotImplementedError):
            query.shed_load(make_batch(n=10, payloads=True), 0.5)


class TestMetrics:
    def test_relative_error(self):
        assert metrics.relative_error(90, 100) == pytest.approx(0.1)
        assert metrics.relative_error(0, 0) == 0.0
        assert metrics.relative_error(5, 0) == 1.0

    def test_counter_error_symmetric_components(self):
        result = {"packets": 90.0, "bytes": 100.0}
        reference = {"packets": 100.0, "bytes": 100.0}
        assert metrics.counter_error(result, reference) == pytest.approx(0.05)

    def test_application_error_weighted(self):
        reference = {"packets_by_app": {"http": 90, "dns": 10},
                     "bytes_by_app": {"http": 900, "dns": 100}}
        result = {"packets_by_app": {"http": 45, "dns": 10},
                  "bytes_by_app": {"http": 450, "dns": 100}}
        error = metrics.application_error(result, reference)
        assert 0.4 <= error <= 0.5

    def test_autofocus_error_overlap(self):
        reference = {"clusters": [(1, 8), (2, 16)]}
        assert metrics.autofocus_error({"clusters": [(1, 8), (2, 16)]},
                                       reference) == 0.0
        assert metrics.autofocus_error({"clusters": []}, reference) == 1.0

    def test_p2p_error_count_based(self):
        reference = {"p2p_flow_count": 100.0}
        assert metrics.p2p_detector_error({"p2p_flow_count": 100.0},
                                          reference) == 0.0
        assert metrics.p2p_detector_error({"p2p_flow_count": 50.0},
                                          reference) == pytest.approx(0.5)

    def test_query_error_dispatch_with_suffix(self):
        assert metrics.query_error("counter-3", {"packets": 1, "bytes": 1},
                                   {"packets": 1, "bytes": 1}) == 0.0
        with pytest.raises(KeyError):
            metrics.query_error("unknown-query", {}, {})

    def test_accuracy_degrades_with_packet_sampling(self, payload_trace_small):
        """End-to-end: stronger sampling should not improve accuracy."""
        from repro.experiments.runner import accuracy_vs_sampling_rate
        curve = accuracy_vs_sampling_rate("counter", payload_trace_small,
                                          rates=(0.2, 1.0))
        assert curve[1.0] >= curve[0.2] - 0.02
        assert curve[1.0] > 0.99
