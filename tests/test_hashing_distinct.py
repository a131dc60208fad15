"""Tests for hashing and distinct counting, including property-based tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.bitmap import MultiResolutionBitmap as OracleBitmap
from oracles.bitmap import unpack_words
from oracles.exact_counter import ExactDistinctCounter as OracleExact
from oracles.scalar import combine_columns as reference_combine_columns
from oracles.scalar import mix64

from repro.core.distinct import (BitmapBank, CounterBank,
                                 ExactDistinctCounter, MultiResolutionBitmap,
                                 make_bank, make_counter)
from repro.core.features import (TRAFFIC_AGGREGATES, FeatureExtractor,
                                 FeatureSharing)
from repro.core.hashing import (H3Hash, _mix64_in_place, combine_columns,
                                splitmix_stream, stream_key)
from tests.conftest import make_batch


def _mix(keys):
    """The product's finalizer kernel, out of place."""
    return _mix64_in_place(keys.astype(np.uint64, copy=True))


class TestMix64:
    def test_deterministic(self):
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(_mix(keys), _mix(keys))

    def test_distinct_inputs_rarely_collide(self):
        keys = np.arange(100000, dtype=np.uint64)
        hashes = _mix(keys)
        assert len(np.unique(hashes)) == len(keys)

    def test_unit_interval_uniformity(self):
        keys = np.arange(50000, dtype=np.uint64)
        unit = _mix(keys).astype(np.float64) / float(2 ** 64)
        assert 0.0 <= unit.min() and unit.max() < 1.0
        assert abs(unit.mean() - 0.5) < 0.02


class TestCombineColumns:
    def test_order_sensitivity(self):
        a = np.array([1, 2, 3], dtype=np.uint32)
        b = np.array([4, 5, 6], dtype=np.uint32)
        assert not np.array_equal(combine_columns([a, b]),
                                  combine_columns([b, a]))

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            combine_columns([])

    @pytest.mark.parametrize("size", [0, 1, 375, 6000])
    def test_in_place_kernel_equals_the_masked_reference(self, size):
        """Every hash downstream (features, flow sampling, sharding) is
        bit-identical only if this is; the extreme values wrap."""
        rng = np.random.default_rng(size)
        columns = [rng.integers(0, 2 ** bits, size=size, dtype=np.uint64)
                   .astype(dtype)
                   for bits, dtype in ((32, np.uint32), (32, np.uint32),
                                       (16, np.uint16), (16, np.uint16),
                                       (8, np.uint8))]
        columns.append(np.full(size, 2 ** 64 - 1, dtype=np.uint64))
        originals = [column.copy() for column in columns]
        for width in range(1, len(columns) + 1):
            got = combine_columns(columns[:width])
            want = reference_combine_columns(columns[:width])
            assert got.dtype == want.dtype == np.uint64
            assert np.array_equal(got, want)
        keys = columns[-1] - np.arange(size, dtype=np.uint64)
        assert np.array_equal(_mix(keys), mix64(keys))
        # Neither function writes to what it was given.
        assert all(np.array_equal(column, original)
                   for column, original in zip(columns, originals))


def _reference_splitmix(key, count):
    """SplitMix64 as published: a 64-bit state advanced by the golden
    gamma, each output the finalizer of the new state."""
    mask, state, out = (1 << 64) - 1, key, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMixStream:
    def test_published_outputs(self):
        """The first outputs of SplitMix64 seeded with 1234567."""
        assert splitmix_stream(1234567, 0, 5).tolist() == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @given(key=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 200),
           count=st.integers(0, 40))
    def test_any_stretch_is_the_generator_stepped_there(self, key, start,
                                                         count):
        stream = splitmix_stream(key, start, count)
        assert stream.dtype == np.uint64
        assert stream.tolist() == _reference_splitmix(key, start + count)[
            start:]

    def test_stream_keys_are_full_width_and_distinct(self):
        """Keyed by seed and name: every kind under ten seeds gets a key
        of its own, and the keys use all 64 bits."""
        kinds = ("counter", "flows", "top-k", "application", "autofocus",
                 "high-watermark", "p2p-detector", "pattern-search",
                 "super-sources", "trace")
        keys = [stream_key(seed, name) for seed in range(10)
                for name in kinds]
        assert len(set(keys)) == len(keys)
        assert all(0 <= key < 2 ** 64 for key in keys)
        assert max(keys) >= 2 ** 63
        assert stream_key(3, "flows") == stream_key(3, "flows")
        assert stream_key(-1, "flows") == stream_key(2 ** 64 - 1, "flows")


class TestH3Hash:
    def test_deterministic_per_instance(self):
        h = H3Hash(key=1)
        keys = np.arange(1000, dtype=np.uint64)
        assert np.array_equal(h(keys), h(keys))

    def test_different_instances_differ(self):
        keys = np.arange(1000, dtype=np.uint64)
        h1 = H3Hash(key=1)
        h2 = H3Hash(key=2)
        assert not np.array_equal(h1(keys), h2(keys))

    def test_unit_interval_uniform(self):
        h = H3Hash(key=3)
        keys = mix64(np.arange(20000, dtype=np.uint64))
        unit = h.unit_interval(keys)
        assert 0.0 <= unit.min() and unit.max() < 1.0
        assert abs(unit.mean() - 0.5) < 0.03

    def test_a_draw_is_its_stretch_of_the_stream(self):
        """Draw k's matrix rows are the top ``out_bits`` bits of outputs
        ``k * key_bits ..`` of the stream."""
        keys = np.arange(1000, dtype=np.uint64)
        h = H3Hash(key_bits=16, out_bits=8, key=11, draw=3)
        rows = splitmix_stream(11, 48, 16) >> np.uint64(56)
        expected = np.zeros(len(keys), dtype=np.uint64)
        for bit, row in enumerate(rows):
            expected ^= ((keys >> np.uint64(bit)) & np.uint64(1)) * row
        assert np.array_equal(h(keys), expected)
        assert not np.array_equal(h(keys), H3Hash(key_bits=16, out_bits=8,
                                                   key=11, draw=2)(keys))

    def test_out_bits_validation(self):
        with pytest.raises(ValueError):
            H3Hash(out_bits=0)
        with pytest.raises(ValueError):
            H3Hash(key_bits=70)


class TestExactCounter:
    def test_counts_distinct(self):
        counter = ExactDistinctCounter()
        counter.add_hashes(np.array([1, 2, 2, 3], dtype=np.uint64))
        counter.add_hashes(np.array([3, 4], dtype=np.uint64))
        assert counter.estimate() == 4

    def test_merge_and_copy(self):
        a = ExactDistinctCounter()
        b = ExactDistinctCounter()
        a.add_hashes(np.array([1, 2], dtype=np.uint64))
        b.add_hashes(np.array([2, 3], dtype=np.uint64))
        c = a.copy()
        c.merge(b)
        assert c.estimate() == 3
        assert a.estimate() == 2  # copy did not alias


class TestMultiResolutionBitmap:
    @pytest.mark.parametrize("cardinality", [100, 1000, 10000, 50000])
    def test_estimation_accuracy(self, cardinality):
        counter = MultiResolutionBitmap()
        keys = mix64(np.arange(cardinality, dtype=np.uint64))
        counter.add_hashes(keys)
        estimate = counter.estimate()
        assert abs(estimate - cardinality) / cardinality < 0.12

    def test_duplicates_do_not_inflate(self):
        counter = MultiResolutionBitmap()
        keys = mix64(np.arange(2000, dtype=np.uint64))
        counter.add_hashes(keys)
        first = counter.estimate()
        counter.add_hashes(keys)
        assert counter.estimate() == pytest.approx(first)

    def test_merge_is_union(self):
        a = MultiResolutionBitmap()
        b = MultiResolutionBitmap()
        keys_a = mix64(np.arange(0, 3000, dtype=np.uint64))
        keys_b = mix64(np.arange(1500, 4500, dtype=np.uint64))
        a.add_hashes(keys_a)
        b.add_hashes(keys_b)
        a.merge(b)
        assert abs(a.estimate() - 4500) / 4500 < 0.15

    def test_merge_geometry_mismatch(self):
        a = MultiResolutionBitmap(num_components=4)
        b = MultiResolutionBitmap(num_components=8)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_estimate_is_zero(self):
        assert MultiResolutionBitmap().estimate() < 5.0

    def test_memory_bits(self):
        bitmap = MultiResolutionBitmap(num_components=4, bits_per_component=256)
        assert bitmap.memory_bits == 1024

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MultiResolutionBitmap(num_components=0)
        with pytest.raises(ValueError):
            MultiResolutionBitmap(bits_per_component=4)


class TestFactory:
    def test_make_counter(self):
        assert isinstance(make_counter("exact"), ExactDistinctCounter)
        assert isinstance(make_counter("bitmap"), MultiResolutionBitmap)
        with pytest.raises(ValueError):
            make_counter("nope")

    def test_make_bank(self):
        bitmaps = make_bank("bitmap", 3, num_components=4,
                            bits_per_component=256)
        assert isinstance(bitmaps, BitmapBank)
        assert bitmaps.estimates().shape == (3,)
        exact = make_bank("exact", 3)
        assert type(exact) is CounterBank and len(exact.counters) == 3
        assert all(isinstance(counter, ExactDistinctCounter)
                   for counter in exact.counters)
        with pytest.raises(ValueError):
            make_bank("nope", 3)


class TestDistinctProperties:
    """Property-based tests on the distinct counters."""

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40),
                    min_size=0, max_size=500))
    @settings(deadline=None)
    def test_exact_counter_matches_set(self, values):
        counter = ExactDistinctCounter()
        counter.add_hashes(mix64(np.array(values, dtype=np.uint64)))
        assert counter.estimate() == len(set(values))

    @given(st.integers(min_value=1, max_value=5000))
    @settings(deadline=None)
    def test_bitmap_monotone_in_cardinality(self, cardinality):
        counter = MultiResolutionBitmap()
        keys = mix64(np.arange(cardinality, dtype=np.uint64))
        counter.add_hashes(keys)
        estimate = counter.estimate()
        assert estimate >= 0
        assert abs(estimate - cardinality) <= max(0.2 * cardinality, 10)

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 30), min_size=1,
                    max_size=300),
           st.lists(st.integers(min_value=0, max_value=2 ** 30), min_size=1,
                    max_size=300))
    @settings(deadline=None)
    def test_merge_upper_bounds_components(self, left, right):
        a = ExactDistinctCounter()
        b = ExactDistinctCounter()
        a.add_hashes(mix64(np.array(left, dtype=np.uint64)))
        b.add_hashes(mix64(np.array(right, dtype=np.uint64)))
        union = a.copy()
        union.merge(b)
        assert union.estimate() >= max(a.estimate(), b.estimate())
        assert union.estimate() <= a.estimate() + b.estimate()


# ----------------------------------------------------------------------
# Packed bitmaps against the bool-matrix oracle (strict float equality)
# ----------------------------------------------------------------------
#: (num_components, bits_per_component): the smallest legal counter, widths
#: that are not whole words, the width other tests use, and the default.
GEOMETRIES = [(1, 8), (4, 100), (4, 256), (8, 4096), (9, 70)]

#: Hashes on both sides of every component boundary (the float mapping
#: decides which side), and the ends of the hash space.
_boundary_hashes = st.builds(
    lambda component, offset: (2 ** 64 - 2 ** (64 - component) + offset)
    % 2 ** 64,
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=-2 ** 11, max_value=2 ** 11))


@st.composite
def hash_arrays(draw):
    """A uint64 hash array: hand-picked values plus a seeded random bulk.

    The bulk sizes reach far enough to saturate the leading components of
    every geometry in :data:`GEOMETRIES`; 0 + an empty list is the empty
    input.
    """
    picked = draw(st.lists(
        st.one_of(_boundary_hashes,
                  st.integers(min_value=0, max_value=2 ** 64 - 1)),
        max_size=40))
    size = draw(st.sampled_from([0, 0, 5, 60, 700, 9000, 120000]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    bulk = np.random.default_rng(seed).integers(
        0, 2 ** 64, size=size, dtype=np.uint64)
    return np.concatenate([np.array(picked, dtype=np.uint64), bulk])


def _pair(geometry, hashes):
    """The same hashes in an oracle counter and in a packed one."""
    oracle, packed = OracleBitmap(*geometry), MultiResolutionBitmap(*geometry)
    oracle.add_hashes(hashes)
    packed.add_hashes(hashes)
    return oracle, packed


def _bits(packed):
    """The packed counter's state as the oracle's bool matrix."""
    return unpack_words(packed._bank._words[0], packed.bits_per_component)


class TestPackedBitmapEqualsOracle:
    @given(st.sampled_from(GEOMETRIES), hash_arrays(), hash_arrays())
    def test_single_counter(self, geometry, left, right):
        oracle_a, packed_a = _pair(geometry, left)
        oracle_b, packed_b = _pair(geometry, right)
        assert np.array_equal(_bits(packed_a), oracle_a._bits)
        assert packed_a.memory_bits == oracle_a.memory_bits
        assert packed_a.estimate() == oracle_a.estimate()
        assert packed_b.estimate() == oracle_b.estimate()

        # new_estimate: equal both ways round, and it writes to neither.
        before_a, before_b = _bits(packed_a), _bits(packed_b)
        assert packed_a.new_estimate(packed_b) == \
            oracle_a.new_estimate(oracle_b)
        assert packed_b.new_estimate(packed_a) == \
            oracle_b.new_estimate(oracle_a)
        assert np.array_equal(_bits(packed_a), before_a)
        assert np.array_equal(_bits(packed_b), before_b)
        assert packed_a.estimate() == oracle_a.estimate()

        # copy is independent; merge into it equals the oracle's merge.
        oracle_union, packed_union = oracle_a.copy(), packed_a.copy()
        oracle_union.merge(oracle_b)
        packed_union.merge(packed_b)
        assert np.array_equal(_bits(packed_union), oracle_union._bits)
        assert packed_union.estimate() == oracle_union.estimate()
        assert np.array_equal(_bits(packed_a), before_a)
        assert packed_a.estimate() == oracle_a.estimate()

        # A pickle round trip lands on the same words.
        restored = pickle.loads(pickle.dumps(packed_union))
        assert np.array_equal(restored._bank._words,
                              packed_union._bank._words)
        assert restored.estimate() == oracle_union.estimate()
        assert restored.new_estimate(packed_b) == \
            oracle_union.new_estimate(oracle_b)

        # Writes after a read drop the remembered estimate.
        oracle_union.add_hashes(left[::-1] ^ np.uint64(0x9E3779B97F4A7C15))
        packed_union.add_hashes(left[::-1] ^ np.uint64(0x9E3779B97F4A7C15))
        assert packed_union.estimate() == oracle_union.estimate()
        oracle_union.reset()
        packed_union.reset()
        assert not _bits(packed_union).any()
        assert packed_union.estimate() == oracle_union.estimate()

    @given(st.sampled_from(GEOMETRIES),
           st.lists(hash_arrays(), min_size=10, max_size=10),
           st.lists(hash_arrays(), min_size=10, max_size=10))
    def test_bank_read_equals_ten_single_reads(self, geometry, lefts, rights):
        interval, incoming = BitmapBank(10, *geometry), BitmapBank(10, *geometry)
        singles_a, singles_b, oracles_a, oracles_b = [], [], [], []
        for index, (left, right) in enumerate(zip(lefts, rights)):
            interval.add_addresses(index, interval.addresses(left))
            incoming.add_addresses(index, incoming.addresses(right))
            for hashes, singles, oracles in ((left, singles_a, oracles_a),
                                            (right, singles_b, oracles_b)):
                oracle, packed = _pair(geometry, hashes)
                singles.append(packed)
                oracles.append(oracle)

        def singly(read):
            return [read(index) for index in range(10)]

        assert interval.estimates().tolist() == singly(
            lambda i: singles_a[i].estimate()) == singly(
            lambda i: oracles_a[i].estimate())
        assert interval.new_estimates(incoming).tolist() == singly(
            lambda i: singles_a[i].new_estimate(singles_b[i])) == singly(
            lambda i: oracles_a[i].new_estimate(oracles_b[i]))
        for bank, singles in ((interval, singles_a), (incoming, singles_b)):
            assert all(np.array_equal(words, single._bank._words[0])
                       for words, single in zip(bank._words, singles))

        snapshot = interval.copy()
        interval.merge(incoming)
        for oracle, other in zip(oracles_a, oracles_b):
            oracle.merge(other)
        assert interval.estimates().tolist() == singly(
            lambda i: oracles_a[i].estimate())
        # The copy kept the pre-merge state (and its remembered estimates).
        assert snapshot.estimates().tolist() == singly(
            lambda i: singles_a[i].estimate())

    def test_generic_bank_matches_its_counters(self):
        """The exact backend's bank is the per-counter calls, row by row."""
        rng = np.random.default_rng(7)
        interval, incoming = make_bank("exact", 4), make_bank("exact", 4)
        union_sizes = []
        for index in range(4):
            left = rng.integers(0, 50, size=40, dtype=np.uint64)
            right = rng.integers(25, 90, size=40, dtype=np.uint64)
            interval.add_hashes(index, left)
            incoming.add_hashes(index, right)
            union_sizes.append(
                float(len(set(left.tolist()) | set(right.tolist()))))
        assert interval.estimates().tolist() == [
            counter.estimate() for counter in interval.counters]
        assert interval.new_estimates(incoming).tolist() == [
            a.new_estimate(b)
            for a, b in zip(interval.counters, incoming.counters)]
        union = interval.copy()
        union.merge(incoming)
        assert union.estimates().tolist() == union_sizes

    def test_bank_geometry_mismatch(self):
        with pytest.raises(ValueError, match="geometry"):
            BitmapBank(2, 4, 100).merge(BitmapBank(2, 4, 120))
        with pytest.raises(ValueError, match="geometry"):
            BitmapBank(2, 4, 256).new_estimates(BitmapBank(3, 4, 256))


# ----------------------------------------------------------------------
# Banks filled from bit addresses against the oracle (strict equality)
# ----------------------------------------------------------------------
#: The ends of the hash space, and hashes within 2^10 of 2^64, whose float
#: unit rounds to 1.0 (the log's floor of 1e-300 keeps them finite).
_edge_hashes = st.lists(
    st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
              st.integers(min_value=2 ** 64 - 2 ** 10,
                          max_value=2 ** 64 - 1)),
    min_size=1, max_size=12)


def _oracle_row(geometry, hashes):
    oracle = OracleBitmap(*geometry)
    oracle.add_hashes(hashes)
    return oracle


class TestAddressedBankAgainstOracle:
    """A bank row filled by ``add_addresses(addresses(h))`` is the oracle's
    ``add_hashes(h)``, bit for bit and estimate for estimate, and so is
    one filled from any gather of the addresses (what a selection of a
    batch does with its parent's)."""

    @given(st.sampled_from(GEOMETRIES), hash_arrays(), _edge_hashes,
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_addresses_and_their_gathers(self, geometry, bulk, edges, seed):
        hashes = np.concatenate([np.array(edges, dtype=np.uint64), bulk])
        bank = BitmapBank(2, *geometry)
        addresses = bank.addresses(hashes)
        assert addresses.shape == hashes.shape
        assert addresses.dtype.kind == "u"
        assert np.iinfo(addresses.dtype).max >= bank._words[0].size * 64 - 1
        rows = np.random.default_rng(seed).random(len(hashes)) < 0.5
        bank.add_addresses(0, addresses)
        bank.add_addresses(1, addresses[rows])
        for row, oracle in ((0, _oracle_row(geometry, hashes)),
                            (1, _oracle_row(geometry, hashes[rows]))):
            assert np.array_equal(
                unpack_words(bank._words[row], geometry[1]), oracle._bits)
            assert bank.estimates()[row] == oracle.estimate()

    @settings(deadline=None)
    @given(st.sampled_from(GEOMETRIES),
           st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(["live", "dead", "none"]))
    def test_a_batch_and_its_selections(self, geometry, size, seed, parent):
        """The extractor's bank of a selection — gathered from a live
        parent's matrix, or computed from its own columns when the parent
        is dead or there never was one — equals the oracle's."""
        full = make_batch(n=size, seed=seed % 1000, n_hosts=1 + seed % 50)
        mask = np.random.default_rng(seed).random(size) < 0.4
        mask[seed % size] = True
        batch = full.select(mask)
        if parent == "dead":
            del full
        elif parent == "none":
            batch = pickle.loads(pickle.dumps(batch))
        assert (batch._selected_from() is not None) == (parent == "live")
        sharing = FeatureSharing()
        sharing._empty["bitmap"] = BitmapBank(10, *geometry).freeze()
        bank = FeatureExtractor("bitmap", sharing=sharing)._batch_counters(
            batch)
        for row, (_, columns) in enumerate(TRAFFIC_AGGREGATES):
            oracle = _oracle_row(
                geometry, combine_columns(batch.columns(columns)))
            assert np.array_equal(
                unpack_words(bank._words[row], geometry[1]), oracle._bits)
            assert bank.estimates()[row] == oracle.estimate()
        key = ("addresses",) + geometry
        if parent == "live":  # gathered: the parent holds the one matrix
            assert key in full._agg_cache and key not in batch._agg_cache
        else:
            assert key in batch._agg_cache
        assert sharing.stats()["address_matrices"] == 1


# ----------------------------------------------------------------------
# The sorted-array exact counter against the set oracle (strict equality)
# ----------------------------------------------------------------------
#: How a caller may hand hashes over, with the largest value each form can
#: carry to the oracle unchanged (``np.unique`` of a Python list holding an
#: int beyond ``int64`` goes through ``float64``).
_HASH_FORMS = [
    (lambda values: np.array(values, dtype=np.uint64), 2 ** 64 - 1),
    (lambda values: np.array(values, dtype=np.int64), 2 ** 63 - 1),
    (list, 2 ** 63 - 1),
]


@st.composite
def exact_case(draw):
    """``(interval_batches, batch)`` in one input form.

    The interval's hashes arrive in up to three ``add_hashes`` calls that
    repeat items within and across calls; the batch lies fully inside the
    interval's items, fully outside them, or straddles them.  Both ends of
    the hash space are likely, and either side may be empty.
    """
    form, ceiling = draw(st.sampled_from(_HASH_FORMS))
    items = st.one_of(st.sampled_from([0, 1, ceiling - 1, ceiling]),
                      st.integers(min_value=0, max_value=30),
                      st.integers(min_value=0, max_value=ceiling))
    interval_batches = draw(st.lists(st.lists(items, max_size=40),
                                     max_size=3))
    seen = sorted({item for batch in interval_batches for item in batch})
    inside = draw(st.lists(st.sampled_from(seen), max_size=30)) if seen else []
    outside = draw(st.lists(items.filter(lambda item: item not in seen),
                            max_size=30))
    batch = draw(st.sampled_from([inside, outside, inside + outside,
                                  outside + inside[::-1]]))
    return [form(values) for values in interval_batches], form(batch)


def _exact_pair(*batches):
    """The same hashes in an oracle counter and in an array one."""
    oracle, exact = OracleExact(), ExactDistinctCounter()
    for hashes in batches:
        oracle.add_hashes(hashes)
        exact.add_hashes(hashes)
    return oracle, exact


def _assert_same_items(exact, oracle):
    """The stored array is the oracle's set: sorted, unique, read-only."""
    items = exact._items
    assert items.dtype == np.uint64 and not items.flags.writeable
    assert items.tolist() == sorted(oracle._items)
    assert exact.estimate() == oracle.estimate()


class TestExactCounterEqualsOracle:
    @given(exact_case())
    def test_counter(self, case):
        interval_batches, batch = case
        oracle_a, exact_a = _exact_pair(*interval_batches)
        oracle_b, exact_b = _exact_pair(batch)
        _assert_same_items(exact_a, oracle_a)
        _assert_same_items(exact_b, oracle_b)

        # new_estimate: equal both ways round, and it writes to neither.
        before_a, before_b = exact_a._items, exact_b._items
        assert exact_a.new_estimate(exact_b) == oracle_a.new_estimate(oracle_b)
        assert exact_b.new_estimate(exact_a) == oracle_b.new_estimate(oracle_a)
        assert exact_a._items is before_a and exact_b._items is before_b
        _assert_same_items(exact_a, oracle_a)
        _assert_same_items(exact_b, oracle_b)

        # copy() shares the array; a merge into the copy leaves the
        # original alone ...
        oracle_union, exact_union = oracle_a.copy(), exact_a.copy()
        assert exact_union._items is exact_a._items
        oracle_union.merge(oracle_b)
        exact_union.merge(exact_b)
        _assert_same_items(exact_union, oracle_union)
        _assert_same_items(exact_a, oracle_a)
        _assert_same_items(exact_b, oracle_b)
        # ... and a merge or an add into the original leaves the copy alone.
        oracle_kept, exact_kept = oracle_a.copy(), exact_a.copy()
        oracle_a.merge(oracle_b)
        exact_a.merge(exact_b)
        _assert_same_items(exact_a, oracle_union)
        _assert_same_items(exact_kept, oracle_kept)
        oracle_a.add_hashes(batch[::-1])
        exact_a.add_hashes(batch[::-1])
        oracle_b.add_hashes([5, 5, 2 ** 40])
        exact_b.add_hashes([5, 5, 2 ** 40])
        _assert_same_items(exact_a, oracle_a)
        _assert_same_items(exact_b, oracle_b)
        _assert_same_items(exact_kept, oracle_kept)

        # A pickle round trip lands on the same array, at 8 bytes an item.
        pickled = pickle.dumps(exact_union)
        assert len(pickled) <= 8 * len(oracle_union._items) + 256
        restored = pickle.loads(pickled)
        _assert_same_items(restored, oracle_union)
        assert restored.new_estimate(exact_b) == \
            oracle_union.new_estimate(oracle_b)
        assert exact_kept.new_estimate(restored) == \
            oracle_kept.new_estimate(oracle_union)

    def test_add_hashes_keeps_the_callers_array(self):
        hashes = np.array([9, 3, 9, 2 ** 64 - 1, 0], dtype=np.uint64)
        given_hashes = hashes.copy()
        counter = ExactDistinctCounter()
        counter.add_hashes(hashes)
        assert hashes.flags.writeable
        assert np.array_equal(hashes, given_hashes)
        assert counter._items.tolist() == [0, 3, 9, 2 ** 64 - 1]
