"""Tests for traffic feature extraction."""

import numpy as np
import pytest
from oracles.bitmap import MultiResolutionBitmap as BoolMatrixBitmap

from repro.core import features
from repro.core.distinct import BitmapBank, CounterBank
from repro.core.features import (NUM_FEATURES, FeatureExtractor,
                                 FeatureVector, feature_names)
from repro.experiments import runner
from repro.monitor.packet import Batch
from repro.monitor.query import closed_intervals
from repro.testing import assert_results_identical
from tests.conftest import drop_memos, make_batch


class TestFeatureNames:
    def test_42_features(self):
        assert NUM_FEATURES == 42
        assert len(feature_names()) == 42
        assert feature_names()[:2] == ["packets", "bytes"]

    def test_every_aggregate_has_four_counters(self):
        names = feature_names()
        assert sum(1 for n in names if n.endswith("_unique")) == 10
        assert sum(1 for n in names if n.endswith("_new")) == 10
        assert sum(1 for n in names if n.endswith("_interval_repeated")) == 10


class TestFeatureVector:
    def test_lookup_by_name(self):
        values = np.arange(NUM_FEATURES, dtype=float)
        vector = FeatureVector(values)
        assert vector["packets"] == 0.0
        assert vector["bytes"] == 1.0
        assert len(vector.values) == NUM_FEATURES

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(np.zeros(5))


@pytest.mark.parametrize("method", ["exact", "bitmap"])
class TestFeatureExtractor:
    def test_packets_and_bytes_exact(self, method):
        batch = make_batch(n=150, seed=2)
        extractor = FeatureExtractor(method=method)
        features = extractor.extract(batch)
        assert features["packets"] == 150
        assert features["bytes"] == batch.byte_count

    def test_unique_counts_reasonable(self, method):
        batch = make_batch(n=300, seed=5, n_hosts=25)
        extractor = FeatureExtractor(method=method)
        features = extractor.extract(batch)
        true_unique = len(np.unique(batch.src_ip))
        assert abs(features["src_ip_unique"] - true_unique) <= \
            max(3, 0.15 * true_unique)

    def test_new_resets_each_interval(self, method):
        """``new`` counts against the interval the owner started last: the
        extractor keeps no clock, so a later batch of the same content is
        new again only after ``reset()``."""
        extractor = FeatureExtractor(method=method)
        batch1 = make_batch(n=200, seed=7, start_ts=0.0)
        batch2 = make_batch(n=200, seed=7, start_ts=0.5)   # same content
        batch3 = make_batch(n=200, seed=7, start_ts=1.0)   # next interval
        f1 = extractor.extract(batch1)
        f2 = extractor.extract(batch2)
        # Second batch repeats the first: very few new items.
        assert f2["five_tuple_new"] <= 0.2 * f1["five_tuple_new"] + 5
        # A later start time alone does not roll the interval...
        unrolled = extractor.extract(batch3, update_state=False)
        assert unrolled["five_tuple_new"] <= 0.2 * f1["five_tuple_new"] + 5
        # ...the owner's reset does: items count as new again.
        extractor.reset()
        f3 = extractor.extract(batch3)
        assert f3["five_tuple_new"] >= 0.5 * f1["five_tuple_new"]

    def test_repeated_definition(self, method):
        batch = make_batch(n=250, seed=9)
        extractor = FeatureExtractor(method=method)
        features = extractor.extract(batch)
        for agg in ("src_ip", "five_tuple"):
            assert features[f"{agg}_repeated"] == pytest.approx(
                max(0.0, 250 - features[f"{agg}_unique"]), abs=1e-6)

    def test_empty_batch(self, method):
        extractor = FeatureExtractor(method=method)
        features = extractor.extract(Batch.empty())
        assert features["packets"] == 0
        assert all(v == 0 for v in features.values)

    def test_peek_does_not_update_state(self, method):
        extractor = FeatureExtractor(method=method)
        batch = make_batch(n=200, seed=11, start_ts=0.0)
        peek = extractor.extract(batch, update_state=False)
        again = extractor.extract(batch, update_state=False)
        # Since state was not updated, "new" stays identical.
        assert peek["five_tuple_new"] == pytest.approx(
            again["five_tuple_new"], rel=0.05, abs=2)

    def test_commit_matches_update_state(self, method):
        batch1 = make_batch(n=200, seed=13, start_ts=0.0)
        batch2 = make_batch(n=200, seed=14, start_ts=0.1)
        committed = FeatureExtractor(method=method)
        updated = FeatureExtractor(method=method)
        peek = committed.extract(batch1, update_state=False)
        committed.commit(batch1)
        updated.extract(batch1, update_state=True)
        f_committed = committed.extract(batch2, update_state=False)
        f_updated = updated.extract(batch2, update_state=False)
        assert f_committed["five_tuple_new"] == pytest.approx(
            f_updated["five_tuple_new"], rel=0.05, abs=2)

    def test_extraction_cost_linear_in_packets(self, method):
        extractor = FeatureExtractor(method=method)
        small = make_batch(n=10)
        large = make_batch(n=1000)
        assert extractor.extraction_cost(large) > extractor.extraction_cost(small)


class TestExtractorValidation:
    def test_reset_clears_interval_state(self):
        extractor = FeatureExtractor(method="exact")
        batch = make_batch(n=100, seed=15, start_ts=0.0)
        extractor.extract(batch, update_state=True)
        extractor.reset()
        fresh = extractor.extract(batch, update_state=False)
        assert fresh["five_tuple_new"] > 0


class TestPackedBanksAgainstOracle:
    """The feature path over packed banks equals the same path over a
    generic bank of bool-matrix oracle counters, floats and all."""

    @staticmethod
    def _oracle_banks(monkeypatch, **kwargs):
        monkeypatch.setattr(
            features, "make_bank",
            lambda method, size: CounterBank(
                [BoolMatrixBitmap(**kwargs) for _ in range(size)]))

    def test_batched_read_equals_per_counter_reads(self, monkeypatch):
        batches = [make_batch(n=400, seed=seed, start_ts=0.1 * seed,
                              n_hosts=60) for seed in range(12)]

        def vectors(extractor):
            """Every batch's vector, in 0.5 s intervals."""
            values, interval_start = [], None
            for batch in batches:
                closed, interval_start = closed_intervals(
                    interval_start, 0.5, batch.start_ts)
                if closed:
                    extractor.reset()
                values.append(extractor.extract(batch).values)
            return values

        got = vectors(FeatureExtractor())
        self._oracle_banks(monkeypatch)
        for batch in batches:
            drop_memos(batch)  # the packed banks memoised above
        want = vectors(FeatureExtractor())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("mode", ["predictive", "reactive"])
    def test_whole_execution_is_bit_identical(self, small_trace, monkeypatch,
                                              mode):
        """Shared reads, forks to private state, sampled re-extraction and
        interval rolls, under shedding, small bitmaps so components
        saturate."""
        kinds = ("counter", "flows", "top-k")
        capacity, _ = runner.calibrate_capacity(kinds, small_trace)
        config = runner.system_config(
            mode=mode, seed=5, cycles_per_second=0.5 * capacity,
            queries=",".join(kinds), feature_method="bitmap")
        small = {"num_components": 4, "bits_per_component": 100}
        monkeypatch.setattr(features, "make_bank",
                            lambda method, size: BitmapBank(size, **small))
        for batch in small_trace.batch_list(0.1):
            drop_memos(batch)  # full-size banks memoised by other tests
        packed = config.build().run(small_trace, time_bin=0.1)
        self._oracle_banks(monkeypatch, **small)
        for batch in small_trace.batch_list(0.1):
            drop_memos(batch)  # the packed banks memoised above
        oracle = config.build().run(small_trace, time_bin=0.1)
        for batch in small_trace.batch_list(0.1):
            drop_memos(batch)  # nobody else reads small banks
        assert packed.mean_sampling_rate() < 1.0
        assert_results_identical(packed, oracle, label=mode)
