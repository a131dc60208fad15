"""Shared feature-state correctness: bit-identity under every disturbance.

The shared per-interval counter registry (:mod:`repro.core.features`) is an
*exact* optimisation: a system with ``feature_sharing=True`` must produce
bit-identical execution results to the classic one-extractor-per-query
path, whatever the stream throws at it.  The properties below drive both
configurations over Hypothesis-drawn streams covering the hazards the
sharing protocol handles explicitly:

* measurement-interval rollovers (counter wipes heal round divergence);
* empty batches (no state change on either path; members stay attached);
* load shedding (sampled extraction forks a member out of its group, a
  fully shed bin forks from the pre-round snapshot);
* live ``add_query`` / ``remove_query`` mid-interval (mid-stream joiners
  must *not* adopt a running group's state);
* checkpoint/restore (group object identity survives pickling).

Plus a deterministic regression for the ``commit`` id-recycling hazard:
the extractor must hold the pending batch itself, not its ``id()``.
"""

import gc
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureExtractor
from repro.monitor.config import SystemConfig
from repro.queries import make_query
from repro.testing import assert_results_identical
from tests.conftest import make_batch

TIME_BIN = 0.1
#: Query measurement interval: rolls over every 4 bins, so a dozen drawn
#: bins cross several interval boundaries.
INTERVAL = 0.4

#: Capacity levels: unconstrained (rate 1 everywhere), tight (sampling →
#: extractors fork), and starved (fully shed bins → snapshot forks).
CAPACITIES = (1e12, 3e7, 8e6)


def _queries(n):
    queries = [make_query("counter", name=f"q{i}") for i in range(n)]
    for query in queries:
        query.measurement_interval = INTERVAL
    return queries


def _config(sharing, cycles):
    return SystemConfig(cycles_per_second=cycles, seed=5,
                        feature_sharing=sharing)


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
    for sharing in (True, False):
        system = _config(sharing, cycles).build(_queries(n_queries))
        session = system.open_session(time_bin=TIME_BIN)
        for batch in batches:
            session.ingest(batch)
        results[sharing] = session.close()
    assert_results_identical(results[True], results[False],
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
    for sharing in (True, False):
        system = _config(sharing, cycles).build(_queries(3))
        session = system.open_session(time_bin=TIME_BIN)
        for index, batch in enumerate(batches):
            if index == add_at:
                late = make_query("counter", name="late")
                late.measurement_interval = INTERVAL
                session.add_query(late)
            if index == remove_at and "q1" in session.query_names:
                session.remove_query("q1")
            session.ingest(batch)
        results[sharing] = session.close()
    assert_results_identical(
        results[True], results[False],
        f"sizes={sizes} cycles={cycles} add={add_at} remove={remove_at}")


@given(sizes=st.lists(st.integers(min_value=0, max_value=80),
                      min_size=4, max_size=10),
       cut=st.integers(min_value=1, max_value=9),
       cycles=st.sampled_from(CAPACITIES))
@settings(deadline=None)
def test_checkpoint_restore_matches_uninterrupted(sizes, cut, cycles):
    """Shared group state round-trips through a pickled checkpoint."""
    cut = min(cut, len(sizes) - 1)
    batches = _batches(sizes)

    system = _config(True, cycles).build(_queries(3))
    session = system.open_session(time_bin=TIME_BIN)
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
    assert_results_identical(straight, resumed,
                             f"sizes={sizes} cut={cut} cycles={cycles}")


# ----------------------------------------------------------------------
# Regression: commit must recognise the batch, not its id()
# ----------------------------------------------------------------------
def test_commit_ignores_a_freed_pending_batch_despite_id_recycling():
    """``extract(update_state=False)`` used to remember only ``id(batch)``;
    once the batch was garbage-collected a later batch could land on the
    recycled id and ``commit`` would merge the *stale* pending counters.
    The extractor remembers the batch by weak reference: that neither keeps
    a finished bin alive nor can match a later batch on a recycled id."""
    extractor = FeatureExtractor(measurement_interval=10.0, method="exact")
    first = make_batch(n=50, seed=1, start_ts=0.0)
    extractor.extract(first, update_state=False)
    assert extractor._pending_batch() is first
    del first
    gc.collect()
    assert extractor._pending_batch() is None

    second = make_batch(n=70, seed=2, start_ts=0.05, n_hosts=40)
    extractor.commit(second)

    # The committed state must be exactly what a fresh extractor gets from
    # committing ``second`` alone — no trace of the stale pending batch.
    reference = FeatureExtractor(measurement_interval=10.0, method="exact")
    reference.extract(second, update_state=False)
    reference.commit(second)
    probe = make_batch(n=30, seed=3, start_ts=0.1, n_hosts=40)
    got = extractor.extract(probe, update_state=False)
    want = reference.extract(probe, update_state=False)
    assert np.array_equal(got.values, want.values)
