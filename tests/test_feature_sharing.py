"""Shared feature extraction: bit-identity under every disturbance.

Extractors that hold the same interval bank and are handed the same batch
share one feature read and one counter merge (:mod:`repro.core.features`).
That is an *exact* optimisation: a system must produce bit-identical
execution results to one whose extractors are the in-place,
one-bank-per-query oracle (``tests/oracles/private_extractor.py``),
whatever the stream throws at it.  The properties below drive both over
Hypothesis-drawn streams covering the hazards:

* measurement-interval rollovers (every extractor returns to the one empty
  bank, so queries that diverged share again);
* empty batches (no state change on either side);
* load shedding (an extractor that merges a sampled batch, or skips a fully
  shed bin, holds a different bank from then on);
* live ``add_query`` / ``remove_query`` mid-interval (a mid-stream joiner
  starts from the empty bank, not from the others' interval);
* checkpoint/restore (bank object identity survives pickling).

Plus a deterministic regression for the ``commit`` id-recycling hazard
(nothing an extractor keeps may be matched against a later batch's
``id()``), and the lifetime of what the extractors memoise on a batch.
"""

import gc
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.private_extractor import FeatureExtractor as PrivateExtractor

from repro.core.features import INTERVAL_MEMO, FeatureExtractor
from repro.monitor.config import SystemConfig
from repro.queries import make_query
from repro.testing import assert_results_identical
from tests.conftest import make_batch

TIME_BIN = 0.1
#: Query measurement interval: rolls over every 4 bins, so a dozen drawn
#: bins cross several interval boundaries.
INTERVAL = 0.4

#: Capacity levels: unconstrained (rate 1 everywhere), tight (sampling →
#: extractors diverge), and starved (fully shed bins).
CAPACITIES = (1e12, 3e7, 8e6)


def _queries(n):
    queries = [make_query("counter", name=f"q{i}") for i in range(n)]
    for query in queries:
        query.measurement_interval = INTERVAL
    return queries


@contextmanager
def _session(cycles, n_queries, oracle=False):
    """An open session; with ``oracle``, one whose system gives every query
    (the live additions too) the private oracle extractor."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr("repro.monitor.system.FeatureExtractor",
                          PrivateExtractor)
        system = SystemConfig(cycles_per_second=cycles, seed=5).build(
            _queries(n_queries))
        yield system.open_session(time_bin=TIME_BIN)


def _batches(sizes):
    return [make_batch(n=size, seed=40 + i, start_ts=i * TIME_BIN,
                       n_hosts=12)
            for i, size in enumerate(sizes)]


bin_sizes = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=80)),
    min_size=3, max_size=12)


# ----------------------------------------------------------------------
# Property: shared extraction is bit-identical to per-query extraction
# ----------------------------------------------------------------------
@given(sizes=bin_sizes, cycles=st.sampled_from(CAPACITIES),
       n_queries=st.integers(min_value=1, max_value=4))
@settings(deadline=None)
def test_shared_matches_private_stream(sizes, cycles, n_queries):
    batches = _batches(sizes)
    results = {}
    for oracle in (False, True):
        with _session(cycles, n_queries, oracle) as session:
            for batch in batches:
                session.ingest(batch)
            results[oracle] = session.close()
    assert_results_identical(results[False], results[True],
                             f"sizes={sizes} cycles={cycles}")


@given(sizes=bin_sizes, cycles=st.sampled_from(CAPACITIES),
       add_at=st.integers(min_value=0, max_value=11),
       remove_at=st.integers(min_value=0, max_value=11))
@settings(deadline=None)
def test_live_reconfiguration_matches_private(sizes, cycles, add_at,
                                              remove_at):
    """A query joining or leaving mid-interval never perturbs the others."""
    batches = _batches(sizes)
    results = {}
    for oracle in (False, True):
        with _session(cycles, 3, oracle) as session:
            for index, batch in enumerate(batches):
                if index == add_at:
                    late = make_query("counter", name="late")
                    late.measurement_interval = INTERVAL
                    session.add_query(late)
                if index == remove_at and "q1" in session.query_names:
                    session.remove_query("q1")
                session.ingest(batch)
            results[oracle] = session.close()
    assert_results_identical(
        results[False], results[True],
        f"sizes={sizes} cycles={cycles} add={add_at} remove={remove_at}")


@given(sizes=st.lists(st.integers(min_value=0, max_value=80),
                      min_size=4, max_size=10),
       cut=st.integers(min_value=1, max_value=9),
       cycles=st.sampled_from(CAPACITIES))
@settings(deadline=None)
def test_checkpoint_restore_matches_uninterrupted(sizes, cut, cycles):
    """Shared banks round-trip through a pickled checkpoint, and the run
    that was checkpointed and restored equals the oracle's as well."""
    cut = min(cut, len(sizes) - 1)
    batches = _batches(sizes)

    with _session(cycles, 3) as session:
        for batch in batches[:cut]:
            session.ingest(batch)
        payload = pickle.dumps(session.state_dict())
        # The uninterrupted run continues on the live session...
        for batch in batches[cut:]:
            session.ingest(batch)
        straight = session.close()
    # ...while the restored copy resumes from the checkpoint.
    restored = type(session).from_state(pickle.loads(payload))
    for batch in batches[cut:]:
        restored.ingest(batch)
    resumed = restored.close()
    with _session(cycles, 3, oracle=True) as session:
        for batch in batches:
            session.ingest(batch)
        private = session.close()
    label = f"sizes={sizes} cut={cut} cycles={cycles}"
    assert_results_identical(straight, resumed, label)
    assert_results_identical(private, resumed, label)


# ----------------------------------------------------------------------
# Regression: commit must recognise the batch, not its id()
# ----------------------------------------------------------------------
def test_commit_ignores_a_freed_pending_batch_despite_id_recycling():
    """``extract(update_state=False)`` used to remember only ``id(batch)``;
    once the batch was garbage-collected a later batch could land on the
    recycled id and ``commit`` would merge the *stale* pending counters.
    The extractor keeps nothing about the batch now: what it computed is
    memoised on the batch and goes with it."""
    extractor = FeatureExtractor(method="exact")
    first = make_batch(n=50, seed=1, start_ts=0.0)
    extractor.extract(first, update_state=False)
    assert not any(value is first for value in vars(extractor).values())
    del first
    gc.collect()

    second = make_batch(n=70, seed=2, start_ts=0.05, n_hosts=40)
    extractor.commit(second)

    # The committed state must be exactly what a fresh extractor gets from
    # committing ``second`` alone — no trace of the stale pending batch.
    reference = FeatureExtractor(method="exact")
    reference.extract(second, update_state=False)
    reference.commit(second)
    probe = make_batch(n=30, seed=3, start_ts=0.1, n_hosts=40)
    got = extractor.extract(probe, update_state=False)
    want = reference.extract(probe, update_state=False)
    assert np.array_equal(got.values, want.values)


# ----------------------------------------------------------------------
# Lifetime of the per-batch interval memo
# ----------------------------------------------------------------------
def test_a_kept_bin_keeps_no_interval_bank(small_trace):
    """What extractors memoise on a batch is keyed by (and holds) their
    interval banks; a trace that keeps its bins, run after run, must not
    accumulate one bank per query and bin.  The pipeline drops the memo
    when the bin is done."""
    with _session(1e12, 3) as session:
        bins = small_trace.batch_list(TIME_BIN)
        for batch in bins:
            session.ingest(batch)
            kept = [batch, *(sub for sub in batch._filter_cache.values()
                             if sub is not None)]
            assert all(INTERVAL_MEMO not in sub._agg_cache for sub in kept)
            assert any(key[0] == "counters"
                       for sub in kept for key in sub._agg_cache)
        # Nothing was shed: three same-filter queries, one read and one
        # merge computed per bin.  (The bins' banks outlive the bin with
        # the trace, so how many this run built depends on earlier runs.)
        stats = session.metrics["feature_sharing"]
        assert {key: stats[key] for key in (
            "computed_reads", "shared_reads", "computed_merges",
            "deduped_merges")} == {
            "computed_reads": len(bins), "shared_reads": 2 * len(bins),
            "computed_merges": len(bins), "deduped_merges": 2 * len(bins)}


# ----------------------------------------------------------------------
# Exact counts of the bank builds, by cause
# ----------------------------------------------------------------------
def test_bank_builds_are_counted_by_cause():
    """Every non-empty bin is read before shedding (one bank, one address
    matrix) and every non-empty sampled batch after it (one bank each,
    gathered from the bin's matrix): the counts are those, exactly."""
    sizes = [300, 0, 400, 350, 0, 380, 320, 400] * 2
    config = SystemConfig(queries="counter,flows,top-k", seed=5,
                          cycles_per_second=1.8e6)
    with config.build().open_session(time_bin=TIME_BIN) as session:
        records = [session.ingest(make_batch(n=size, seed=40 + i, n_hosts=30,
                                             start_ts=i * TIME_BIN))
                   for i, size in enumerate(sizes)]
        stats = session.metrics["feature_sharing"]
    sampled = sum(0.0 < rate < 1.0 for record in records
                  if record.incoming_packets
                  for rate in record.rates.values())
    assert stats["address_matrices"] == stats["full_bank_builds"] == \
        sum(size > 0 for size in sizes) == 12
    assert stats["sampled_bank_builds"] == sampled == 23
