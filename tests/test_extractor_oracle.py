"""The value-sharing feature extractor against its in-place oracle.

:class:`repro.core.features.FeatureExtractor` keeps an immutable interval
bank and memoises reads and merges on the batch; the oracle
(``tests/oracles/private_extractor.py``) is the one-bank-per-query extractor
that merges and wipes in place and shares nothing.  Up to four extractors
with one :class:`FeatureSharing` — as the queries of one system have — and
their oracle twins are driven through random per-bin operations; every
vector must be equal, number for number, and no bank an extractor can reach
may be writable.  Neither extractor keeps a clock: the harness starts each
member's next interval with ``reset()`` where the system's rule
(:func:`repro.monitor.query.closed_intervals`) ends one.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles.private_extractor import FeatureExtractor as PrivateExtractor

from repro.core.features import FeatureExtractor, FeatureSharing
from repro.monitor.query import closed_intervals
from tests.conftest import make_batch

TIME_BIN = 0.1
#: What one extractor does with one bin.  ``commit``: read the shared batch,
#: then merge it unsampled.  ``sample``: read it, then extract a sampled
#: sub-batch of its own with ``update_state=True``.  ``shed``: read it and
#: merge nothing (rate 0).  ``skip``: no call at all (the bin never reached
#: the query).  ``reset``: ``reset()``, then as ``commit`` (a fresh
#: execution, off the interval grid).
ACTIONS = ("commit", "commit", "sample", "shed", "skip", "reset")
METHODS = pytest.mark.parametrize("method", ("bitmap", "exact"))


def _assert_read_only(bank):
    """``bank`` is a value: its storage is frozen and writes raise."""
    if hasattr(bank, "_words"):
        assert not bank._words.flags.writeable
    else:
        assert all(not counter._items.flags.writeable
                   for counter in bank.counters)
    hashes = np.arange(5, dtype=np.uint64)
    if hasattr(bank, "_words"):
        def add():
            bank.add_addresses(0, bank.addresses(hashes))
    else:
        def add():
            bank.add_hashes(0, hashes)
    for write in (add, lambda: bank.merge(bank.copy())):
        with pytest.raises(ValueError, match="read-only"):
            write()


class _Twins:
    """One extractor and its oracle, fed the same calls, and the interval
    clock of the query they serve."""

    def __init__(self, interval, method, sharing):
        self.real = FeatureExtractor(method, sharing=sharing)
        self.oracle = PrivateExtractor(method)
        self.interval = interval
        self.interval_start = None

    def enter_bin(self, bin_start):
        """Start the next interval if the bin closes one, as the system
        does before anything reads the bin."""
        closed, self.interval_start = closed_intervals(
            self.interval_start, self.interval, bin_start)
        if closed:
            self.reset()

    def extract(self, batch, update_state):
        got = self.real.extract(batch, update_state=update_state)
        want = self.oracle.extract(batch, update_state=update_state)
        assert np.array_equal(got.values, want.values)

    def commit(self, batch):
        self.real.commit(batch)
        self.oracle.commit(batch)

    def reset(self):
        self.real.reset()
        self.oracle.reset()


@METHODS
@given(sizes=st.lists(st.one_of(st.just(0), st.integers(1, 60)),
                      min_size=2, max_size=14),
       members=st.lists(
           st.tuples(st.sampled_from((0.2, 0.4, 1.0)),   # interval
                     st.integers(0, 6),                  # joins at bin
                     st.integers(0, 2 ** 31)),           # action/sampling seed
           min_size=1, max_size=4))
def test_every_vector_equals_the_oracle(method, sizes, members):
    sharing = FeatureSharing()
    twins = {}
    reads = merges = samples = 0
    banked = set()  # the bins whose (non-empty) batch someone read
    for index, size in enumerate(sizes):
        # One batch object per bin, as the filter cache hands same-filter
        # queries.
        batch = make_batch(n=size, seed=70 + index, n_hosts=15,
                           start_ts=index * TIME_BIN)
        for member, (interval, joins_at, seed) in enumerate(members):
            if index < joins_at:
                continue
            if member not in twins:  # created mid-stream, like a live add
                twins[member] = _Twins(interval, method, sharing)
            pair = twins[member]
            pair.enter_bin(batch.start_ts)
            rng = np.random.default_rng(seed + index)
            action = ACTIONS[rng.integers(len(ACTIONS))]
            if action == "skip":
                continue
            if action == "reset":
                pair.reset()
            pair.extract(batch, update_state=False)
            reads += size > 0
            if size:
                banked.add(index)
            if action == "sample":
                sampled = batch.select(rng.random(size) < 0.5)
                pair.extract(sampled, update_state=True)
                reads += len(sampled) > 0
                merges += len(sampled) > 0
                samples += len(sampled) > 0
            elif action != "shed":
                pair.commit(batch)
                merges += size > 0
            _assert_read_only(pair.real._bank)
    stats = sharing.stats()
    assert stats["computed_reads"] + stats["shared_reads"] == reads
    assert stats["computed_merges"] + stats["deduped_merges"] == merges
    # One bank per batch read, and one address matrix per bin: a sampled
    # batch gathers its rows of the bin's.
    assert stats["full_bank_builds"] == len(banked)
    assert stats["sampled_bank_builds"] == samples
    assert stats["address_matrices"] == \
        (len(banked) if method == "bitmap" else 0)


@METHODS
def test_same_bank_and_same_batch_is_computed_once(method):
    """Four extractors in step pay one read and one merge per bin, a wipe
    brings a diverged one back, a second system shares nothing with the
    first, and all of it survives a pickle."""
    sharing = FeatureSharing()
    empty = sharing.empty_bank(method)
    _assert_read_only(empty)
    group = [FeatureExtractor(method, sharing=sharing) for _ in range(4)]
    other = FeatureExtractor(method, sharing=FeatureSharing())
    assert all(extractor._bank is empty for extractor in group)
    assert other._bank is not empty

    interval_start = None

    def one_bin(index, sampled=()):
        nonlocal interval_start
        batch = make_batch(n=40, seed=index, start_ts=index * TIME_BIN)
        # 0.3 s intervals: the fourth bin starts the second one.
        closed, interval_start = closed_intervals(interval_start, 0.3,
                                                  batch.start_ts)
        if closed:
            for extractor in group:
                extractor.reset()
        for extractor in group:
            extractor.extract(batch, update_state=False)
        for extractor in group:
            if extractor in sampled:
                extractor.extract(batch.select(np.arange(40) % 2 == 0))
            else:
                extractor.commit(batch)

    one_bin(0)
    assert sharing.stats() == {"computed_reads": 1, "shared_reads": 3,
                               "computed_merges": 1, "deduped_merges": 3,
                               "address_matrices": int(method == "bitmap"),
                               "full_bank_builds": 1,
                               "sampled_bank_builds": 0}
    assert len({id(extractor._bank) for extractor in group}) == 1
    one_bin(1, sampled=group[:1])     # group[0] diverges...
    assert group[0]._bank is not group[1]._bank
    one_bin(2)                        # ...and pays its own way...
    assert sharing.stats()["computed_reads"] == 1 + 2 + 2
    one_bin(3)                        # ...until the interval rolls over.
    assert len({id(extractor._bank) for extractor in group}) == 1
    assert sharing.stats()["computed_reads"] == 1 + 2 + 2 + 1
    assert FeatureSharing().stats()["computed_reads"] == 0
    # A checkpoint keeps both the sharing and the write protection.
    thawed = pickle.loads(pickle.dumps(group))
    assert len({id(extractor._bank) for extractor in thawed}) == 1
    _assert_read_only(thawed[0]._bank)
    _assert_read_only(thawed[0]._sharing.empty_bank(method))


@METHODS
def test_a_bank_the_product_memoised_is_not_the_oracles(method):
    """The product memoises a batch's bank on the batch under
    ``("counters", method)``; the oracle builds its own from the raw
    columns.  An empty bank planted under the product's key changes what
    the product reads and nothing the oracle reads."""
    planted = make_batch(n=300, seed=5, n_hosts=40)
    clean = make_batch(n=300, seed=5, n_hosts=40)
    product = FeatureExtractor(method, sharing=FeatureSharing())
    empty = product._empty_bank()
    assert planted.memo(("counters", method), lambda: empty) is empty
    misled = product.extract(planted, update_state=False).values
    truth = PrivateExtractor(method).extract(clean).values
    assert not np.array_equal(misled, truth)
    assert np.array_equal(
        PrivateExtractor(method).extract(planted).values, truth)
