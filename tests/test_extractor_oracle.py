"""The value-sharing feature extractor against its in-place oracle.

:class:`repro.core.features.FeatureExtractor` keeps an immutable interval
bank and memoises reads and merges on the batch; the oracle
(``tests/oracles/private_extractor.py``) is the one-bank-per-query extractor
that merges and wipes in place and shares nothing.  Up to four extractors
with one :class:`FeatureSharing` — as the queries of one system have — and
their oracle twins are driven through random per-bin operations; every
vector must be equal, number for number, and no bank an extractor can reach
may be writable.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles.private_extractor import FeatureExtractor as PrivateExtractor

from repro.core.features import FeatureExtractor, FeatureSharing
from tests.conftest import make_batch

TIME_BIN = 0.1
#: What one extractor does with one bin.  ``commit``: read the shared batch,
#: then merge it unsampled.  ``sample``: read it, then extract a sampled
#: sub-batch of its own with ``update_state=True``.  ``shed``: read it and
#: merge nothing (rate 0).  ``skip``: no call at all (the bin never reached
#: the query).  ``reset``: ``reset()``, then as ``commit``.
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
    for write in (lambda: bank.add_hashes(0, hashes),
                  lambda: bank.merge(bank.copy()), bank.reset):
        with pytest.raises(ValueError, match="read-only"):
            write()


class _Twins:
    """One extractor and its oracle, fed the same calls."""

    def __init__(self, interval, method, sharing):
        self.real = FeatureExtractor(interval, method, sharing=sharing)
        self.oracle = PrivateExtractor(interval, method)

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
    reads = merges = 0
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
            rng = np.random.default_rng(seed + index)
            action = ACTIONS[rng.integers(len(ACTIONS))]
            if action == "skip":
                continue
            if action == "reset":
                pair.reset()
            pair.extract(batch, update_state=False)
            reads += size > 0
            if action == "sample":
                sampled = batch.select(rng.random(size) < 0.5)
                pair.extract(sampled, update_state=True)
                reads += len(sampled) > 0
                merges += len(sampled) > 0
            elif action != "shed":
                pair.commit(batch)
                merges += size > 0
            _assert_read_only(pair.real._bank)
    stats = sharing.stats()
    assert stats["computed_reads"] + stats["shared_reads"] == reads
    assert stats["computed_merges"] + stats["deduped_merges"] == merges


@METHODS
def test_same_bank_and_same_batch_is_computed_once(method):
    """Four extractors in step pay one read and one merge per bin, a wipe
    brings a diverged one back, a second system shares nothing with the
    first, and all of it survives a pickle."""
    sharing = FeatureSharing()
    empty = sharing.empty_bank(method)
    _assert_read_only(empty)
    group = [FeatureExtractor(0.3, method, sharing=sharing) for _ in range(4)]
    other = FeatureExtractor(0.3, method, sharing=FeatureSharing())
    assert all(extractor._bank is empty for extractor in group)
    assert other._bank is not empty

    def one_bin(index, sampled=()):
        batch = make_batch(n=40, seed=index, start_ts=index * TIME_BIN)
        for extractor in group:
            extractor.extract(batch, update_state=False)
        for extractor in group:
            if extractor in sampled:
                extractor.extract(batch.select(np.arange(40) % 2 == 0))
            else:
                extractor.commit(batch)

    one_bin(0)
    assert sharing.stats() == {"computed_reads": 1, "shared_reads": 3,
                               "computed_merges": 1, "deduped_merges": 3}
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
