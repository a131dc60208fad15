"""Tests for the packet / batch / trace data model."""

import numpy as np
import pytest

from repro.monitor.packet import Batch, PacketTrace, format_ip, ip
from tests.conftest import make_batch


class TestIpHelpers:
    def test_ip_roundtrip(self):
        addr = ip(147, 83, 30, 12)
        assert format_ip(addr) == "147.83.30.12"

    def test_ip_bounds(self):
        with pytest.raises(ValueError):
            ip(256, 0, 0, 1)

    def test_ip_ordering(self):
        assert ip(10, 0, 0, 1) < ip(10, 0, 0, 2) < ip(10, 0, 1, 0)


class TestBatch:
    def test_length_and_counts(self):
        batch = make_batch(n=50)
        assert len(batch) == 50
        assert batch.byte_count == int(batch.size.sum())

    def test_empty_batch(self):
        batch = Batch.empty()
        assert len(batch) == 0
        assert batch.byte_count == 0
        assert not batch.has_payloads

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Batch(ts=[0.0, 0.1], src_ip=[1], dst_ip=[1, 2], src_port=[1, 2],
                  dst_port=[1, 2], proto=[6, 6], size=[40, 40])

    def test_payload_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Batch(ts=[0.0], src_ip=[1], dst_ip=[1], src_port=[1],
                  dst_port=[1], proto=[6], size=[40], payloads=[b"a", b"b"])

    def test_select_by_mask(self):
        batch = make_batch(n=30)
        mask = np.zeros(30, dtype=bool)
        mask[:10] = True
        sub = batch.select(mask)
        assert len(sub) == 10
        assert np.all(sub.ts == batch.ts[:10])

    def test_select_by_index(self):
        batch = make_batch(n=30)
        sub = batch.select(np.array([0, 5, 7]))
        assert len(sub) == 3
        assert sub.src_ip[1] == batch.src_ip[5]

    def test_select_preserves_payloads(self):
        batch = make_batch(n=10, payloads=True)
        sub = batch.select(np.array([2, 3]))
        assert sub.payloads == [batch.payloads[2], batch.payloads[3]]

    def test_concatenate(self):
        a = make_batch(n=10, seed=1)
        b = make_batch(n=15, seed=2, start_ts=0.1)
        merged = Batch.concatenate([a, b])
        assert len(merged) == 25

    def test_concatenate_empty_list(self):
        assert len(Batch.concatenate([])) == 0


class TestPacketTrace:
    def test_duration(self):
        batch = make_batch(n=100, time_bin=1.0)
        trace = PacketTrace(batch)
        assert trace.duration == pytest.approx(
            float(batch.ts[-1] - batch.ts[0]))

    def test_batches_cover_all_packets(self):
        batch = make_batch(n=500, time_bin=2.0)
        trace = PacketTrace(batch)
        total = sum(len(b) for b in trace.batches(0.1))
        assert total == 500

    def test_batches_are_time_ordered_and_contiguous(self):
        batch = make_batch(n=300, time_bin=1.0)
        trace = PacketTrace(batch)
        batches = list(trace.batches(0.1))
        starts = [b.start_ts for b in batches]
        assert starts == sorted(starts)
        diffs = np.diff(starts)
        assert np.allclose(diffs, 0.1)

    def test_empty_bins_are_yielded(self):
        ts = np.array([0.0, 0.05, 0.95])
        batch = Batch(ts=ts, src_ip=[1, 2, 3], dst_ip=[4, 5, 6],
                      src_port=[1, 2, 3], dst_port=[4, 5, 6],
                      proto=[6, 6, 6], size=[40, 40, 40])
        trace = PacketTrace(batch)
        batches = list(trace.batches(0.1))
        assert len(batches) == 10
        assert len(batches[0]) == 2
        assert all(len(b) == 0 for b in batches[1:9])
        assert len(batches[9]) == 1

    def test_num_batches_matches(self):
        batch = make_batch(n=200, time_bin=1.5)
        trace = PacketTrace(batch)
        assert trace.num_batches(0.1) == len(list(trace.batches(0.1)))

    def test_empty_trace(self):
        trace = PacketTrace(Batch.empty())
        assert trace.duration == 0.0
        assert list(trace.batches(0.1)) == []
