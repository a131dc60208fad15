"""The tier contract: one table, a cell per (tier, mode, feature method).

Algorithm 1 is one predict -> shed loop, and every way this repository
runs it must give one session's answer.  A row of :data:`TIERS` is a way
to run a config and the oracle it must equal on every bin record column
and query log: ``serial`` (``config.build().run(trace)``), ``sharded``
(4 in-process shards) or ``fleet`` (a 4-node in-process fleet); four
parts, as two would fold each sum in either order alike.  Shards shed on
slices of the budget, so in ``reference`` mode a sharded row's logs must
also equal serial's (what ``verify_shard_exactness`` checks).  A replay
row (:data:`REPLAYS`) runs the bins at the rates its oracle recorded, so
it must equal the oracle on what those rates decide: every query log, and
each bin's ``rates``, ``query_cycles_by_query`` and ``dropped_packets``.
A row's five cells are the rows of :data:`MODES`: ``predictive`` with
``bitmap`` and ``exact`` counting, ``reactive``, ``original``,
``reference``.  A mix is a set: each mode lists the mix in its own order,
the oracles as :data:`QUERIES`.  A row that checkpoints names its bins in
the table.  A new tier is a new row.  One cell or row::

    pytest tests/test_conformance.py -k "workers and predictive"
"""

import asyncio
import itertools
import json
from functools import partial
from typing import NamedTuple

import pytest

from repro.experiments import runner
from repro.fleet import FleetRunner, FleetTopology
from repro.monitor.pipeline import LOST
from repro.monitor.sharding import ShardedSystem, build_system
from repro.monitor.system import ExecutionResult
from repro.monitor.workers import fork_start_available
from repro.serve import MonitorDaemon, ReplayFeed, SocketFeed
from repro.serve.checkpoint import capture, restore_session
from repro.testing import assert_results_identical
from repro.traffic import TrafficProfile, generate_trace
from repro.traffic.trace_io import save_trace_store
from tests.mutants import MUTANTS, REPO

TIME_BIN = 0.1
QUERIES = "application,counter,flows,top-k"
#: (mode, feature method, the order its cells list the mix in)
MODES = (("predictive", "bitmap", "top-k,flows,counter,application"),
         ("predictive", "exact", "flows,application,top-k,counter"),
         ("reactive", "exact", "counter,top-k,application,flows"),
         ("original", "exact", "top-k,application,counter,flows"),
         ("reference", "exact", "flows,counter,application,top-k"))
#: The shards of a sharded row, the nodes of the forked fleet.
PARTS = 4


class Cell(NamedTuple):
    tier: str
    mode: str
    feature_method: str
    mix: str

    @property
    def id(self) -> str:
        method = f"-{self.feature_method}" * (self.mode == "predictive")
        return f"{self.tier}-{self.mode}{method}"


class World:
    """What the cells share: the trace, its store, its JSONL records, the
    capacity, and each oracle run once per (mode, feature method)."""

    def __init__(self, trace, store) -> None:
        self.trace, self.store = trace, store
        self.bins = trace.batch_list(TIME_BIN)
        self.capacity = 0.5 * runner.calibrate_capacity(QUERIES, trace)[0]
        self.oracles = {}
        columns = ("ts", "src_ip", "dst_ip", "src_port", "dst_port",
                   "proto", "size")
        self.jsonl = "".join(
            json.dumps(dict(zip(columns, row))) + "\n"
            for row in zip(*(getattr(trace.packets, name).tolist()
                             for name in columns))).encode()

    def config(self, cell: Cell, oracle="serial", mix=QUERIES):
        # A fleet's nodes each pay a bin's fixed costs on a quarter of it:
        # on half the capacity, every node sheds everything.
        return runner.system_config(
            queries=mix, mode=cell.mode, seed=7,
            feature_method=cell.feature_method,
            num_shards=PARTS if oracle == "sharded" else 1,
            cycles_per_second=self.capacity * (1 + (oracle == "fleet")))

    def oracle(self, name: str, cell: Cell):
        key = (name, cell.mode, cell.feature_method)
        if key not in self.oracles:
            config = self.config(cell, name)
            self.oracles[key] = (
                _fleet(self, config, backend="inprocess") if name == "fleet"
                else build_system(config, backend="inprocess").run(
                    self.trace, time_bin=TIME_BIN))
        return self.oracles[key]


def _fleet(world, config, nodes=PARTS, **execution):
    return FleetRunner(FleetTopology.uniform(nodes), config=config,
                       **execution).run(world.trace, time_bin=TIME_BIN)


def _by_hand(session, bins, config) -> ExecutionResult:
    """``session`` stepped and folded as owners do; each interval it
    delivers names its query's class, and it keeps nothing itself."""
    classes = {query.name: type(query) for query in config.build_queries()}
    result = ExecutionResult(config.mode, config.strategy, session.name,
                             session.budget)
    for record, flushed in [session.step(batch) for batch in bins] + [
            (None, session.finish())]:
        assert all(cls is classes[name] for name, _, cls, _ in flushed)
        result.fold(record, flushed, session.query_names)
    kept = session.close()
    assert kept.bins == [] and not any(map(len, kept.query_logs.values()))
    return result


def _ingested(session, bins) -> ExecutionResult:
    for batch in bins:
        session.ingest(batch)
    return session.close()


def _opened(config, **execution):
    return build_system(config, **execution).open_session(time_bin=TIME_BIN)


def _store(world, cell, config):
    return _opened(config).ingest_trace(world.store).close()


def _step(world, cell, config):
    return _by_hand(_opened(config), world.bins, config)


def _fleet_of_one(world, cell, config):
    fleet = _fleet(world, config, nodes=1, backend="inprocess")
    assert_results_identical(fleet.node_results[0], fleet.federated)
    return fleet.federated


def _daemon(world, cell, config):
    feed = ReplayFeed(str(world.store.path), time_bin=TIME_BIN)
    return asyncio.run(MonitorDaemon(config, feed).run())


def _socket(world, cell, config):
    """Every record is sent and the feed stopped before the daemon reads a
    bin: a stopped feed still hands over each bin it cut.  A feed that
    never parses the last line fails the cell, not the suite."""
    async def serve():
        feed = SocketFeed(time_bin=TIME_BIN)
        await feed.start()
        _, writer = await asyncio.open_connection("127.0.0.1",
                                                  feed.bound_port)
        writer.write(world.jsonl + b"end\n")  # a line it skips, and counts
        await writer.drain()
        writer.close()
        while not feed.malformed_lines:
            await asyncio.sleep(0.005)
        feed.stop()
        assert feed.late_packets == 0
        return await MonitorDaemon(config, feed).run()
    return asyncio.run(asyncio.wait_for(serve(), timeout=60))


def _restore(world, cell, config, cuts):
    """Checkpointed at each of ``cuts``, restored, and on to the end."""
    session = _opened(config)
    for cut in cuts:
        for batch in world.bins[session.bins_ingested:cut]:
            session.ingest(batch)
        session = restore_session(capture(session))
        assert session.bins_ingested == cut
    return _ingested(session, world.bins[cuts[-1]:])


def _one_shard(world, cell, config):
    return ShardedSystem(config=config, num_shards=1).run(world.trace,
                                                          time_bin=TIME_BIN)


def _shards(world, cell, config):
    return _by_hand(_opened(config, backend="inprocess"), world.bins, config)


def _workers(world, cell, config):
    """One worker a shard, fed through the run-ahead ``ingest_trace``."""
    return build_system(config, n_workers=PARTS, respect_cores=False,
                        backend="workers").run(world.store.streaming(),
                                               time_bin=TIME_BIN)


def _restore_across(world, cell, config, cuts):
    """One worker a shard to the second cut (a checkpoint at the first
    leaves the live pool as it was), in-process to the third, two shards a
    worker to the end."""
    node = _opened(config, n_workers=PARTS, respect_cores=False,
                   backend="workers")
    try:
        for cut, backend in zip(cuts, (None, "inprocess", "workers")):
            for batch in world.bins[node.bins_ingested:cut]:
                node.ingest(batch)
            blob = capture(node)
            if backend is not None:
                node.close()
                node = restore_session(
                    blob, n_workers=1 + (backend == "workers"),
                    respect_cores=False, backend=backend)
                assert (node.backend, node.bins_ingested) == (backend, cut)
        return _ingested(node, world.bins[cuts[-1]:])
    finally:
        node.close()


def _rates(world, cell, config):
    """A fresh session handed each bin's recorded rates as its grants, a
    recorded drop as a drop."""
    session = _opened(config)
    for batch, record in zip(world.bins, world.oracle("serial", cell).bins):
        session.ingest(batch, LOST if record.dropped_packets else record.rates)
    return session.close()


def _fleet_forked(world, cell, config):
    fleet = _fleet(world, config, n_workers=2, respect_cores=False,
                   backend="fork")
    assert fleet.backend == "fork"
    for mine, theirs in zip(world.oracle("fleet", cell).node_results,
                            fleet.node_results):
        assert_results_identical(mine, theirs, cell.id)
    return fleet


#: tier -> (how it runs a cell, its oracle); the bins a restore row
#: checkpoints at are mid-interval (7, 4, 15) and at the boundary (10).
TIERS = {
    "store": (_store, "serial"),
    "step": (_step, "serial"),
    "fleet-1": (_fleet_of_one, "serial"),
    "daemon": (_daemon, "serial"),
    "socket": (_socket, "serial"),
    "restore": (partial(_restore, cuts=(7, 10)), "serial"),
    "shard-1": (_one_shard, "serial"),
    "shards": (_shards, "sharded"),
    "daemon-shards": (_daemon, "sharded"),
    "workers": (_workers, "sharded"),
    "restore-x": (partial(_restore_across, cuts=(4, 10, 15)), "sharded"),
    "fleet-fork": (_fleet_forked, "fleet"),
    "rates": (_rates, "serial"),
}
#: The rows that start worker processes.
POOLED = ("workers", "restore-x", "fleet-fork")
#: The rows that replay their oracle's rate decisions.
REPLAYS = ("rates",)

CELLS = [Cell(tier, *mode) for tier, mode in itertools.product(TIERS, MODES)]


@pytest.fixture(scope="session")
def world(tmp_path_factory):
    """Two seconds of header traffic (20 bins, two measurement intervals),
    at half the mix's calibrated capacity."""
    trace = generate_trace(TrafficProfile(
        duration=2.0, flow_arrival_rate=150.0, name="conformance"), seed=3)
    path = tmp_path_factory.mktemp("conformance") / "store"
    return World(trace, save_trace_store(trace, path))


def _logs(result):
    return {name: (log.intervals, log.results)
            for name, log in result.query_logs.items()}


@pytest.mark.parametrize("cell", CELLS, ids=[cell.id for cell in CELLS])
def test_cell(world, cell):
    run, oracle = TIERS[cell.tier]
    if cell.tier in POOLED and not fork_start_available():
        pytest.skip("a worker pool needs fork and os.memfd_create")
    config = world.config(cell, oracle, cell.mix)
    result, expected = run(world, cell, config), world.oracle(oracle, cell)
    if oracle == "fleet":
        result, expected = result.federated, expected.federated
    if cell.tier in REPLAYS:
        assert _logs(result) == _logs(expected)
        for name in ("rates", "query_cycles_by_query", "dropped_packets"):
            assert [getattr(record, name) for record in result.bins] == \
                [getattr(record, name) for record in expected.bins], name
        return
    assert_results_identical(expected, result, cell.id)
    assert result.bins == expected.bins
    if cell.mode == "reference" and oracle == "sharded":
        assert _logs(result) == _logs(world.oracle("serial", cell))


@pytest.mark.parametrize("mode,method", [mode[:2] for mode in MODES])
def test_the_oracle_sheds_and_accounts_each_bin_once(world, mode, method):
    """Each oracle sheds in every mode but ``reference``, and none sheds
    all (a cell that sheds nothing, or all, proves little); a serial
    record's ``delay`` is the last one's carried by this bin's total over
    its budget, its buffer occupation read at that delay."""
    cell = Cell("", mode, method, QUERIES)
    for name in ("sharded", "fleet", "serial"):
        result = world.oracle(name, cell)
        rate = getattr(result, "federated", result).mean_sampling_rate()
        assert 0.0 < rate and (rate < 1.0) == (mode != "reference"), name
    capacity = _opened(world.config(cell)).buffer.capacity_cycles
    delay = 0.0
    for record in result.bins:
        delay = max(0.0, delay + (record.total_cycles -
                                  record.available_cycles))
        assert record.delay == delay
        assert record.buffer_occupation == min(1.0, delay / capacity)


def test_every_mutant_still_applies():
    """Each old text of ``tests/mutants.py`` occurs once in its file."""
    for mutant in MUTANTS:
        assert (REPO / mutant.file).read_text().count(mutant.old) == 1, \
            mutant.name
