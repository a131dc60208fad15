"""Tests for stateless packet filters."""

import numpy as np
import pytest

from repro.monitor import filters
from repro.monitor.packet import PROTO_TCP, PROTO_UDP, ip


class TestBasicFilters:
    def test_all_packets(self, small_batch):
        assert filters.all_packets()(small_batch).all()

    def test_proto_filter(self, small_batch):
        mask = filters.proto(PROTO_TCP)(small_batch)
        assert mask.all()  # the fixture batch is all TCP
        assert not filters.proto(PROTO_UDP)(small_batch).any()

    def test_port_filter_directions(self, small_batch):
        either = filters.port(80)(small_batch)
        src = filters.port(80, "src")(small_batch)
        dst = filters.port(80, "dst")(small_batch)
        assert np.array_equal(either, src | dst)

    def test_size_filter(self, small_batch):
        mask = filters.size_at_least(1000)(small_batch)
        assert np.array_equal(mask, small_batch.size >= 1000)


class TestSubnetFilter:
    def test_matches_prefix(self, small_batch):
        # dst addresses in the fixture are small integers around 1000-1020;
        # use a /0 to match everything and a disjoint /8 to match nothing.
        assert filters.subnet(0, 0)(small_batch).all()
        assert not filters.subnet(ip(200, 0, 0, 0), 8)(small_batch).any()

    def test_invalid_prefix(self):
        try:
            filters.subnet(0, 40)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestComposition:
    def test_and_or_not(self, small_batch):
        f80 = filters.port(80)
        f443 = filters.port(443)
        both = (f80 | f443)(small_batch)
        assert np.array_equal(both, f80(small_batch) | f443(small_batch))
        negated = (~f80)(small_batch)
        assert np.array_equal(negated, ~f80(small_batch))
        assert not (f80 & ~f80)(small_batch).any()

    def test_any_of(self, small_batch):
        combined = filters.any_of([filters.port(80), filters.port(53)])
        expected = filters.port(80)(small_batch) | filters.port(53)(small_batch)
        assert np.array_equal(combined(small_batch), expected)

    def test_any_of_refuses_an_empty_collection(self):
        with pytest.raises(ValueError, match="at least one filter"):
            filters.any_of([])

    def test_apply_returns_subset(self, small_batch):
        sub = filters.port(80).apply(small_batch)
        assert len(sub) == int(filters.port(80)(small_batch).sum())
