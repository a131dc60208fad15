"""One result accumulator for every tier, whoever drives the session.

The contracts under test:

* **Every session is stepped, and its owner folds** — ``ingest`` /
  ``close`` are ``step`` / ``finish`` plus :meth:`ExecutionResult.fold`
  (that a session folded by hand reports what ``run`` does, in every mode
  and on both feature backends, is the ``step`` and ``shards`` rows of
  ``tests/test_conformance.py``).  Nothing in a session says which way it
  is driven: the pickles of the two differ only in the accumulated result.
* **One code path for logs and totals** — under any sequence of query
  arrivals, departures, same-name re-arrivals, arrivals withdrawn before
  their bin boundary, capacity changes and checkpoint/restore onto the other
  executor, a serial session, a 1-shard node and a 2-shard node agree on
  ``query_names``, the result logs, the budget, the per-tenant totals and
  ``partial_result()`` after every operation.
* **One metrics fold** — a sharded node's and a fleet's ``metrics`` are
  their parts' documents folded by :func:`repro.profile.fold_metrics`:
  every bin counted once, stage wall-time totals and feature-sharing
  counters the sums over the parts.
* **A result is a table of bins** — whatever records are folded (query
  sets that change, tenants on and off, shard-merged records, counts near
  the int64 range), every row, series and total of the result is what a
  loop over the records gives; a scalar write through a row is seen by the
  series; a snapshot stays as it was and shares no column with the result;
  pickle and deepcopy round-trip; and
  the result merge is :meth:`BinRecord.merge` row by row.
"""

import copy
import dataclasses
import pickle
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.cycles import CycleBudget
from repro.core.tenancy import TenantGroup
from repro.experiments import runner
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.pipeline import Bound
from repro.monitor.sharding import ShardedSystem
from repro.monitor.system import BinRecord, ExecutionResult
from repro.monitor.workers import fork_start_available
from repro.queries import make_query
from repro.serve.checkpoint import capture, restore_session
from tests.conftest import drop_memos, make_batch

def _logs(result):
    return {name: (log.intervals, log.results)
            for name, log in result.query_logs.items()}


def _assert_equal(first, second, bins=True):
    """Strict equality of two results: every record, log and total."""
    assert _logs(first) == _logs(second)
    assert (first.mode, first.strategy, first.budget) == \
        (second.mode, second.strategy, second.budget)
    if bins:
        assert first.bins == second.bins
        assert first.tenant_cycle_totals() == second.tenant_cycle_totals()
    else:
        assert len(first.bins) == len(second.bins)
        assert set(first.tenant_cycle_totals()) == \
            set(second.tenant_cycle_totals())


def test_no_role_is_pickled_with_a_session(small_trace):
    """After the same bins, a stepped and an ingested session of the same
    config pickle to the same bytes once the accumulated result (and the
    profiler's wall-clock readings) are set aside."""
    config = runner.system_config(seed=5, queries="counter,flows,top-k",
                                  cycles_per_second=8e5)
    bins = small_trace.batch_list(0.1)[:25]
    stepped = config.build().open_session(time_bin=0.1, name="t")
    ingested = config.build().open_session(time_bin=0.1, name="t")
    for batch in bins:  # each reads the batch with nothing memoised on it
        drop_memos(batch)
        stepped.step(batch)
        drop_memos(batch)
        ingested.ingest(batch)
    assert len(pickle.dumps(stepped)) < len(pickle.dumps(ingested))

    def without_results(session):
        clone = pickle.loads(pickle.dumps(session))
        assert set(vars(clone)) == set(vars(ingested))
        clone._result = None
        clone.system.profiler.reset()
        return pickle.dumps(clone)

    assert without_results(stepped) == without_results(ingested)


# ----------------------------------------------------------------------
# Any operation sequence: serial == 1 shard == 2 shards
# ----------------------------------------------------------------------
KINDS = ("counter", "flows", "top-k", "high-watermark", "application")
OPS = st.one_of(
    st.tuples(st.just("ingest"), st.integers(1, 7)),
    st.tuples(st.just("add"), st.sampled_from(KINDS)),
    st.tuples(st.just("remove"), st.integers(0, 9)),
    st.tuples(st.just("readd"), st.integers(0, 9)),
    st.tuples(st.just("withdraw"), st.sampled_from(KINDS)),
    st.tuples(st.just("capacity"), st.sampled_from((3e7, 5e7, 8e7))),
    st.tuples(st.just("checkpoint"), st.none()),
)
SEQUENCE_TENANTS = (TenantGroup(name="ops", queries=("counter",)),
                    TenantGroup(name="research", queries=("flows",)))


class _Tiers:
    """The same operations on a serial session, a 1-shard node and a
    2-shard node (reference mode: nothing is shed, so all three must agree
    on every answer)."""

    def __init__(self):
        config = runner.system_config(mode="reference", seed=5,
                                      tenants=SEQUENCE_TENANTS,
                                      cycles_per_second=5e7)
        self.serial = config.build().open_session(time_bin=0.1, name="t")
        self.nodes = [
            ShardedSystem(config=config, num_shards=shards,
                          backend="inprocess")
            .open_session(time_bin=0.1, name="t") for shards in (1, 2)]
        self.bins = 0

    def each(self, call):
        """Apply the operation to all three; they refuse it alike."""
        outcomes = []
        for session in [self.serial] + self.nodes:
            try:
                call(session)
                outcomes.append(None)
            except (KeyError, ValueError) as refused:
                outcomes.append(type(refused))
        assert len(set(outcomes)) == 1, outcomes

    def add(self, kind):
        self.each(lambda s: s.add_query(make_query(kind)))

    def remove(self, name):
        self.each(lambda s: s.remove_query(name))

    def apply(self, op, argument):
        names = self.serial.query_names
        if op == "ingest":
            for _ in range(argument):
                batch = make_batch(n=60, seed=self.bins,
                                   start_ts=0.1 * self.bins)
                self.each(lambda s: s.ingest(batch))
                self.bins += 1
        elif op == "add":
            self.add(argument)
        elif op == "withdraw":  # leaves before it ever ran
            self.add(argument)
            self.remove(argument)
        elif op in ("remove", "readd") and names:
            name = names[argument % len(names)]
            self.remove(name)
            if op == "readd":
                self.add(name)
        elif op == "capacity":
            self.each(lambda s: s.set_capacity(argument))
        elif op == "checkpoint":
            self.serial = restore_session(capture(self.serial))
            for index, node in enumerate(self.nodes):
                other = "workers" if (node.backend == "inprocess"
                                      and node.num_shards > 1
                                      and fork_start_available()) \
                    else "inprocess"
                blob = capture(node)
                node.close()
                self.nodes[index] = restore_session(blob, backend=other)

    def check(self):
        one, two = self.nodes
        expected = self.serial.partial_result()
        assert len(expected.bins) == self.bins
        assert self.serial.query_names == one.query_names == two.query_names
        _assert_equal(expected, one.partial_result())
        _assert_equal(expected, two.partial_result(), bins=False)
        tenants = self.serial.metrics["tenants"]
        assert tenants == one.metrics["tenants"]
        assert tenants["query_cycles"] == expected.tenant_cycle_totals()
        assert two.metrics["tenants"]["query_cycles"] == \
            two.partial_result().tenant_cycle_totals()

    def close(self):
        one, two = self.nodes
        expected = self.serial.close()
        _assert_equal(expected, one.close())
        _assert_equal(expected, two.close(), bins=False)


@given(st.lists(OPS, min_size=4, max_size=14))
# A capacity change still queued when the checkpoint is cut.
@example([("ingest", 2), ("capacity", 3e7), ("checkpoint", None),
          ("ingest", 1)])
def test_any_operation_sequence_agrees_across_tiers(operations):
    tiers = _Tiers()
    try:
        for op, argument in operations:
            tiers.apply(op, argument)
            tiers.check()
        tiers.close()
    finally:
        for node in tiers.nodes:  # no worker outlives a failing example
            node._executor.stop()


# ----------------------------------------------------------------------
# A departed query's last interval is finished by its own class
# ----------------------------------------------------------------------
def _open(tier, config):
    if tier == "serial":
        return config.build().open_session(time_bin=0.1, name="t")
    return ShardedSystem(config=config, num_shards=2, backend=tier) \
        .open_session(time_bin=0.1, name="t")


@pytest.mark.parametrize("tier", ("serial", "inprocess", "workers"))
def test_a_departed_querys_last_interval_is_finished_by_its_own_class(tier):
    """``remove_query("top-k")`` then ``add_query(<a counter named
    "top-k">)`` before the next bin: the top-k's last interval, flushed at
    the very boundary the counter arrives at, is a top-k result — not its
    raw partial finalised (serial) or merged (shards) as a counter's."""
    if tier == "workers" and not fork_start_available():
        pytest.skip("needs the fork start method")
    from repro.queries import CounterQuery, TopKQuery
    config = runner.system_config(mode="reference", seed=5,
                                  queries="counter,top-k")
    bins = [make_batch(n=80, seed=index, start_ts=0.1 * index)
            for index in range(25)]
    cut = 14  # mid-interval: the departure flushes a partial second

    uninterrupted = _open("serial", config)
    for batch in bins[:cut]:
        uninterrupted.ingest(batch)
    whole = uninterrupted.close().query_logs["top-k"]

    session = _open(tier, config)
    try:
        for batch in bins[:cut]:
            session.ingest(batch)
        session.remove_query("top-k")
        session.add_query(CounterQuery(name="top-k"))
        for batch in bins[cut:]:
            session.ingest(batch)
        log = session.close().query_logs["top-k"]
    finally:
        if tier != "serial":
            session._executor.stop()

    departed = len(whole)
    assert departed == 2 and len(log) > departed
    # The departed intervals, the one cut short included, are exactly what
    # the uninterrupted top-k reported ...
    assert log.intervals[:departed] == whole.intervals
    assert log.results[:departed] == whole.results
    assert all(set(result) == set(TopKQuery.finalize(
        TopKQuery().interval_partial())) for result in log.results[:departed])
    # ... and what follows under the name are counter results.
    counter_keys = set(CounterQuery().interval_result())
    assert counter_keys != set(whole.results[0])
    assert all(set(result) == counter_keys
               for result in log.results[departed:])
    assert sum(result["packets"] for result in log.results[departed:]) == \
        sum(len(batch) for batch in bins[cut:])


# ----------------------------------------------------------------------
# One metrics fold: serial, 2 shards on either executor, a 2-node fleet
# ----------------------------------------------------------------------
@pytest.mark.parametrize("setup", ("serial", "inprocess", "workers",
                                   "fleet"))
def test_one_metrics_fold_on_every_tier(small_trace, setup):
    """``profile.bins`` is the bins ingested, whatever the parts, and each
    stage's ``calls`` / ``seconds_total`` and every ``feature_sharing``
    counter is the sum over the parts' own documents.  A stage entry is
    wall time only: the cycles are the result's columns."""
    if setup == "workers" and not fork_start_available():
        pytest.skip("needs the fork start method")
    config = runner.system_config(seed=5, queries="counter,flows,top-k",
                                  cycles_per_second=8e5)
    bins = small_trace.batch_list(0.1)
    if setup == "fleet":
        fleet = FleetRunner(FleetTopology.uniform(2), config=config,
                            backend="inprocess").run(small_trace,
                                                     time_bin=0.1)
        metrics, parts = fleet.metrics, fleet.node_metrics
    else:
        session = _open(setup, config)
        try:
            for batch in bins:
                session.ingest(batch)
            metrics = session.metrics
            parts = [metrics] if setup == "serial" else \
                session._executor.session_metrics()
            session.close()
        finally:
            if setup != "serial":
                session._executor.stop()
    assert len(parts) == (1 if setup == "serial" else 2)
    profile = metrics["profile"]
    assert profile["bins"] == len(bins)
    assert profile["bin_seconds"]["n"] == len(bins)
    assert profile["stages"]
    for stage, totals in profile["stages"].items():
        assert set(totals) == {"calls", "seconds_total", "mean_seconds"}
        for key in ("calls", "seconds_total"):
            assert totals[key] == sum(part["profile"]["stages"][stage][key]
                                      for part in parts), (stage, key)
        assert totals["calls"] == len(parts) * len(bins)
    assert metrics["feature_sharing"] == {
        key: sum(part["feature_sharing"][key] for part in parts)
        for key in parts[0]["feature_sharing"]}


# ----------------------------------------------------------------------
# A result is a table of bins
# ----------------------------------------------------------------------
TABLE_QUERIES = tuple(f"q{index}" for index in range(10))
TABLE_TENANTS = ("ops", "research")
#: Small enough that merging four records stays within int64.
_COUNTS = st.integers(0, 2 ** 60)
_CYCLES = st.floats(0.0, 1e9)
MAP_FIELDS = ("rates", "query_cycles_by_query", "tenant_cycles",
              "predicted_by_query", "decided_rates", "bounds")
SCALAR_FIELDS = tuple(field.name for field in dataclasses.fields(BinRecord)
                      if field.name not in MAP_FIELDS)
INT_FIELDS = ("index", "incoming_packets", "incoming_bytes",
              "dropped_packets")


def _record(draw, index, queries, costed, tenants):
    return BinRecord(
        index=index, start_ts=0.1 * index, incoming_packets=draw(_COUNTS),
        incoming_bytes=draw(_COUNTS), dropped_packets=draw(_COUNTS),
        unsampled_packets=draw(_CYCLES), predicted_cycles=draw(_CYCLES),
        expected_cycles=draw(_CYCLES), query_cycles=draw(_CYCLES),
        prediction_overhead=draw(_CYCLES), shedding_overhead=draw(_CYCLES),
        system_overhead=draw(_CYCLES), available_cycles=draw(_CYCLES),
        delay=draw(_CYCLES), buffer_occupation=draw(st.floats(0.0, 1.0)),
        plan_cycles=draw(_CYCLES), allowance=draw(_CYCLES),
        error_ewma=draw(st.floats(0.0, 1.0)),
        shedding_overhead_ewma=draw(_CYCLES),
        rates={name: draw(st.floats(0.0, 1.0)) for name in queries},
        query_cycles_by_query={name: draw(_CYCLES)
                               for name in queries if costed},
        tenant_cycles={name: draw(_CYCLES) for name in tenants},
        predicted_by_query={name: draw(_CYCLES) for name in queries},
        decided_rates={name: draw(st.floats(0.0, 1.0)) for name in queries},
        bounds={name: draw(st.sampled_from(Bound)) for name in queries})


@st.composite
def _record_sequences(draw):
    """Bins in runs with one query set each (queries arrive and depart,
    a dropped bin costs no query, tenants come and go); some bins are the
    merge of two shards' records."""
    records = []
    for _ in range(draw(st.integers(1, 6))):
        queries = draw(st.lists(st.sampled_from(TABLE_QUERIES), unique=True))
        costed = draw(st.booleans())
        tenants = draw(st.lists(st.sampled_from(TABLE_TENANTS), unique=True))
        for _ in range(draw(st.integers(1, 4))):
            index = len(records)
            shards = [_record(draw, index, queries, costed, tenants)
                      for _ in range(draw(st.integers(1, 2)))]
            records.append(BinRecord.merge(shards))
    return records


@st.composite
def _shard_records(draw):
    """Two to four partitions' records of one bin, with one query set."""
    queries = draw(st.lists(st.sampled_from(TABLE_QUERIES), unique=True))
    costed = draw(st.booleans())
    tenants = draw(st.lists(st.sampled_from(TABLE_TENANTS), unique=True))
    return [_record(draw, 0, queries, costed, tenants)
            for _ in range(draw(st.integers(2, 4)))]


#: How ``BinRecord.merge`` folds each field that does not add up.
WORST = ("delay", "buffer_occupation", "error_ewma", "bounds")
AVERAGED = ("rates", "decided_rates")


def _assert_same_fold(merged, other):
    """Counts, maxima and codes equal; sums and means to rounding."""
    for name in SCALAR_FIELDS + MAP_FIELDS:
        mine, theirs = getattr(merged, name), getattr(other, name)
        if name in INT_FIELDS + WORST:
            assert mine == theirs, name
        elif name in MAP_FIELDS:
            assert set(mine) == set(theirs), name
            assert all(mine[key] == pytest.approx(theirs[key], rel=1e-12,
                                                  abs=1e-12)
                       for key in mine), name
        else:
            assert mine == pytest.approx(theirs, rel=1e-12), name


@given(_shard_records())
def test_bin_record_merge_folds_every_field_by_its_rule(records):
    """Each field folds by its rule, the decision columns included, and
    the fold neither depends on the order of the partitions nor on how
    they are grouped (the rate means up to the grouping's weights)."""
    merged = BinRecord.merge(records)
    for name in SCALAR_FIELDS[2:]:
        column = [getattr(record, name) for record in records]
        assert getattr(merged, name) == (max(column) if name in WORST
                                         else sum(column)), name
    for name in MAP_FIELDS:
        for key, value in getattr(merged, name).items():
            column = [getattr(record, name)[key] for record in records]
            if name in WORST:
                assert value == max(column) and type(value) is int
            elif name in AVERAGED:
                assert value == float(np.mean(column))
            else:
                assert value == sum(column)
    _assert_same_fold(merged, BinRecord.merge(list(reversed(records))))
    if len(records) == 2:
        return
    nested = BinRecord.merge([BinRecord.merge(records[:2])] + records[2:])
    for name in AVERAGED:  # a grouped mean weights its groups
        setattr(nested, name, getattr(merged, name))
    _assert_same_fold(merged, nested)


def _table_of(records):
    result = ExecutionResult("predictive", "eq_srates", "t",
                             CycleBudget(1e6, 0.1))
    for record in records:
        result.add_bin(record)
    return result


def _assert_table(result, records):
    """Every row, series and total of ``result`` is what the loop over
    ``records`` says."""
    assert len(result.bins) == len(records)
    assert result.bins == records and records == result.bins
    for row, record in zip(result.bins, records):
        assert all(type(getattr(row, name)) is int for name in INT_FIELDS)
        for name in MAP_FIELDS:
            assert list(getattr(row, name).items()) == \
                list(getattr(record, name).items())
    for name in SCALAR_FIELDS + ("total_cycles", "mean_rate"):
        assert np.array_equal(
            result.series(name),
            np.array([getattr(record, name) for record in records],
                     dtype=np.float64)), name
    for name in TABLE_QUERIES:
        assert np.array_equal(result.rate_series(name), np.array(
            [record.rates.get(name, 1.0) for record in records]))
    rated = [record.mean_rate for record in records if record.rates]
    assert result.mean_sampling_rate() == \
        (float(np.mean(rated)) if rated else 1.0)
    assert result.total_packets == sum(r.incoming_packets for r in records)
    assert result.total_bytes == sum(r.incoming_bytes for r in records)
    assert result.dropped_packets == sum(r.dropped_packets for r in records)
    assert result.unsampled_packets == \
        float(sum(r.unsampled_packets for r in records))
    tenants = {}
    for record in records:
        for name, cycles in record.tenant_cycles.items():
            tenants[name] = tenants.get(name, 0.0) + cycles
    assert list(result.tenant_cycle_totals().items()) == list(tenants.items())


@given(_record_sequences())
def test_a_result_is_a_table_of_the_records_it_folded(records):
    result = _table_of(records[:len(records) // 2])
    snapshot = result.snapshot()
    for record in records[len(records) // 2:]:
        result.add_bin(record)
    _assert_table(result, records)
    _assert_table(snapshot, records[:len(records) // 2])
    # A snapshot keeps columns of its own: neither a write through the
    # result's rows nor a bin folded into the snapshot reaches the other.
    if len(snapshot.bins):
        before = snapshot.series("query_cycles")
        result.bins[0].query_cycles += 1.0
        assert np.array_equal(snapshot.series("query_cycles"), before)
        result.bins[0].query_cycles = records[0].query_cycles
    snapshot.add_bin(records[0])
    _assert_table(snapshot, records[:len(records) // 2] + records[:1])
    _assert_table(result, records)

    for copied in (pickle.loads(pickle.dumps(result)),
                   copy.deepcopy(result)):
        _assert_table(copied, records)
        # A write through a row is a write to the column the series read.
        copied.bins[-1].query_cycles += 1.0
        assert copied.series("query_cycles")[-1] == \
            records[-1].query_cycles + 1.0
        assert copied.series("total_cycles")[-1] == \
            copied.bins[-1].total_cycles
    _assert_table(result, records)

    # A row pickles as the plain record it shows.
    assert type(pickle.loads(pickle.dumps(result.bins[0]))) is BinRecord

    # The result merge is the record merge, row by row.
    reverse = list(reversed(records))
    merged = ExecutionResult.merge([result, _table_of(reverse)],
                                   query_classes={})
    _assert_table(merged, [BinRecord.merge(pair)
                           for pair in zip(records, reverse)])


def test_a_snapshot_is_read_while_its_result_keeps_growing():
    """The daemon's pattern: bins fold in under a lock on one thread; ops
    take a snapshot under the lock and read it outside, on another.  The
    snapshot's columns are its own, so the reads never hold a buffer of an
    array the fold is appending to (a growing ``array`` refuses to resize
    while it exports one)."""
    record = BinRecord(
        index=0, start_ts=0.0, incoming_packets=5, incoming_bytes=500,
        dropped_packets=0, unsampled_packets=0.0, predicted_cycles=1.0,
        expected_cycles=1.0, query_cycles=1.0, prediction_overhead=0.0,
        shedding_overhead=0.0, system_overhead=0.0, available_cycles=2.0,
        delay=0.0, buffer_occupation=0.0, rates={"a": 0.5, "b": 1.0},
        query_cycles_by_query={"a": 0.5, "b": 0.5}, tenant_cycles={})
    result = _table_of([])
    lock, done, errors, polls = threading.Lock(), threading.Event(), [], []

    def poll():
        while not done.is_set():
            with lock:
                snapshot = result.snapshot()
            try:
                total = snapshot.series("query_cycles").sum()
                snapshot.rate_series("a")
                snapshot.mean_sampling_rate()
            except BaseException as exc:  # reported below
                errors.append(exc)
                return
            polls.append(total == len(snapshot.bins))

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        for _ in range(20000):
            with lock:
                result.add_bin(record)
    finally:
        done.set()
        poller.join(timeout=30.0)
    assert not errors, errors
    assert polls and all(polls)
    assert len(result.bins) == 20000
