"""Property-based tests with seeded random generators.

Three families of invariants the load shedding scheme relies on:

* *Sampler unbiasedness* — packet and flow sampling keep a fraction of the
  traffic equal to the sampling rate in expectation, and scaling additive
  statistics by ``1 / rate`` recovers the unsampled value (Section 4.2).
* *Flow integrity* — flowwise sampling is all-or-nothing per 5-tuple flow:
  a sampled batch never contains a strict subset of a flow's packets.
* *Distinct-count error bounds* — the multi-resolution bitmap estimate stays
  within a small relative error of exact counting across four decades of
  cardinality (Section 3.2.1 dimensioning).

Everything is driven by seeded generators, so the "random" trials are
reproducible and the tolerances can be tight without flakiness.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.distinct import ExactDistinctCounter, MultiResolutionBitmap
from repro.core.sampling import FlowSampler, PacketSampler, scale_estimate
from repro.monitor.packet import HEADER_FIELDS
from tests.conftest import make_batch


def _flow_counts(batch):
    """Packet count per 5-tuple flow of a batch."""
    return Counter(zip(*(getattr(batch, field).tolist()
                         for field in HEADER_FIELDS)))


class TestPacketSamplerUnbiasedness:
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.8])
    def test_kept_fraction_matches_rate(self, rate):
        n, trials = 400, 60
        sampler = PacketSampler(1234)
        batch = make_batch(n=n, seed=7)
        kept = sum(len(sampler.sample(batch, rate)) for _ in range(trials))
        total = n * trials
        # Binomial: sigma = sqrt(rate * (1 - rate) / total); allow 5 sigma.
        sigma = np.sqrt(rate * (1.0 - rate) / total)
        assert abs(kept / total - rate) < 5.0 * sigma

    @pytest.mark.parametrize("rate", [0.2, 0.6])
    def test_scaled_count_estimate_unbiased(self, rate):
        n, trials = 300, 80
        sampler = PacketSampler(99)
        batch = make_batch(n=n, seed=8)
        estimates = [scale_estimate(len(sampler.sample(batch, rate)), rate)
                     for _ in range(trials)]
        sigma = np.sqrt(n * (1.0 - rate) / rate / trials)
        assert abs(float(np.mean(estimates)) - n) < 5.0 * sigma

    def test_degenerate_rates(self):
        sampler = PacketSampler(0)
        batch = make_batch(n=100, seed=9)
        assert len(sampler.sample(batch, 1.0)) == 100
        assert len(sampler.sample(batch, 0.0)) == 0
        with pytest.raises(ValueError):
            sampler.sample(batch, float("nan"))


class TestFlowSamplerIntegrity:
    @pytest.mark.parametrize("rate", [0.2, 0.5, 0.8])
    def test_flows_kept_whole_or_not_at_all(self, rate):
        # Few hosts => many multi-packet flows, the interesting case.
        batch = make_batch(n=600, seed=10, n_hosts=12)
        sampler = FlowSampler(55)
        sampled = sampler.sample(batch, rate)
        original = _flow_counts(batch)
        kept = _flow_counts(sampled)
        for flow, count in kept.items():
            assert count == original[flow], \
                "flowwise sampling must never split a flow"

    def test_kept_flow_fraction_matches_rate(self):
        rate, trials = 0.5, 120
        batch = make_batch(n=500, seed=11, n_hosts=15)
        n_flows = len(_flow_counts(batch))
        sampler = FlowSampler(77)
        kept_flows = 0
        for _ in range(trials):
            # Each trial draws the next H3 hash function of the stream, so
            # the per-flow keep event is resampled (2-universality).
            sampler.renew_hash()
            kept_flows += len(_flow_counts(sampler.sample(batch, rate)))
        total = n_flows * trials
        sigma = np.sqrt(rate * (1.0 - rate) / total)
        assert abs(kept_flows / total - rate) < 5.0 * sigma

    def test_same_seed_same_selection(self):
        batch = make_batch(n=300, seed=12, n_hosts=10)
        first = FlowSampler(5).sample(batch, 0.4)
        second = FlowSampler(5).sample(batch, 0.4)
        assert np.array_equal(first.ts, second.ts)
        assert np.array_equal(first.src_ip, second.src_ip)

    def test_hash_renewed_across_measurement_intervals(self):
        """A flow's fate holds until the owner of the query's intervals
        renews the hash: the sampler keeps no clock of its own."""
        batch1 = make_batch(n=400, seed=13, n_hosts=10, start_ts=0.0)
        batch2 = make_batch(n=400, seed=13, n_hosts=10, start_ts=1.5)
        sampler = FlowSampler(21)
        kept1 = set(_flow_counts(sampler.sample(batch1, 0.5)))
        # Same packet content, later start, same interval: same flows.
        assert set(_flow_counts(sampler.sample(batch2, 0.5))) == kept1
        sampler.renew_hash()
        kept2 = set(_flow_counts(sampler.sample(batch2, 0.5)))
        # Next interval: the hash must differ, so the selected flow set
        # should not be systematically identical.
        assert kept1 != kept2


class TestBitmapErrorBounds:
    @pytest.mark.parametrize("cardinality", [100, 1000, 20000, 100000])
    def test_relative_error_bounded(self, cardinality):
        errors = []
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            hashes = rng.integers(0, 2 ** 64, size=cardinality,
                                  dtype=np.uint64)
            exact = ExactDistinctCounter()
            exact.add_hashes(hashes)
            bitmap = MultiResolutionBitmap()
            bitmap.add_hashes(hashes)
            truth = exact.estimate()
            errors.append(abs(bitmap.estimate() - truth) / truth)
        # The default dimensioning (8 x 4096 bits) keeps the error around 1%
        # (Section 3.2.1); 5%/10% bands leave room without losing meaning.
        assert float(np.mean(errors)) < 0.05
        assert float(np.max(errors)) < 0.10

    def test_merge_matches_union(self):
        rng = np.random.default_rng(42)
        a = rng.integers(0, 2 ** 64, size=5000, dtype=np.uint64)
        b = rng.integers(0, 2 ** 64, size=5000, dtype=np.uint64)
        merged = MultiResolutionBitmap()
        merged.add_hashes(a)
        other = MultiResolutionBitmap()
        other.add_hashes(b)
        merged.merge(other)
        combined = MultiResolutionBitmap()
        combined.add_hashes(np.concatenate([a, b]))
        assert merged.estimate() == pytest.approx(combined.estimate())

    def test_new_estimate_consistent_with_union(self):
        rng = np.random.default_rng(43)
        base = rng.integers(0, 2 ** 64, size=3000, dtype=np.uint64)
        fresh = rng.integers(0, 2 ** 64, size=800, dtype=np.uint64)
        for make in (ExactDistinctCounter, MultiResolutionBitmap):
            interval = make()
            interval.add_hashes(base)
            batch = make()
            batch.add_hashes(fresh)
            before_interval = interval.estimate()
            before_batch = batch.estimate()
            union = interval.copy()
            union.merge(batch)
            expected = max(0.0, union.estimate() - interval.estimate())
            assert interval.new_estimate(batch) == pytest.approx(expected)
            # new_estimate must not mutate either side.
            assert interval.estimate() == before_interval
            assert batch.estimate() == before_batch

    def test_exact_counter_is_ground_truth(self):
        rng = np.random.default_rng(44)
        values = rng.integers(0, 500, size=3000, dtype=np.uint64)
        counter = ExactDistinctCounter()
        counter.add_hashes(values)
        assert counter.estimate() == len(np.unique(values))
