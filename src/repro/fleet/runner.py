"""Execute a fleet topology over a traffic stream and federate the answer.

:class:`FleetRunner` is the scenario runner of the fleet tier: it splits
every time bin of a trace across the topology's nodes
(:class:`~repro.fleet.partition.FleetPartitioner`), drives one full
predict/shed loop per node — a :class:`~repro.monitor.session.MonitoringSession`
or, for nodes configured with ``num_shards > 1``, a sharded session, so the
shard tier nests under the fleet tier unchanged — and folds the per-node
results and metrics through the :class:`~repro.fleet.aggregate.FleetAggregator`.

Node execution reuses :meth:`repro.experiments.parallel.ParallelRunner.map`
as its process pool: ``n_workers <= 1`` runs the nodes serially in-process,
larger pools fork one job per node over the pre-partitioned streams
(inherited copy-on-write through ``_POOL_STATE``, the one pre-fork handoff
left in the tree).  Both
paths run the same pure per-node function, so the federated result is
bit-identical either way.  The pre-partitioned streams *keep* their packets
until the whole fleet is done, so what a session memoises on a bin (hashes,
filter results, distinct counters) would stay as long: a node job drops
each bin's memos once the bin is ingested, and a pool worker's footprint is
that of one node however many it runs.  (Batches the job makes itself go
with their bin without help; only the kept ones need this.)

:func:`verify_exactness` is the fleet's correctness gate: it runs the fleet
and a single unpartitioned node in reference mode (no shedding, sampling
rate 1.0 — every reported quantity is an integer-valued float, so addition
order cannot perturb it) and checks the federated query logs are
*bit-identical* to the single-node logs for every merge-exact query kind
(:data:`repro.queries.MERGE_EXACT_KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.pool import pool_state
from ..monitor.workers import fork_start_available
from ..experiments.parallel import ParallelRunner
from ..monitor.config import SystemConfig
from ..monitor.packet import Batch, PacketTrace, as_trace
from ..monitor.sharding import ShardedSystem
from ..monitor.system import ExecutionResult
from ..profile import summarize
from ..queries import MERGE_EXACTNESS, QUERY_CLASSES
from .aggregate import FleetAggregator
from .partition import FleetPartitioner
from .topology import FleetTopology

#: Fleet node execution backends.
BACKENDS: Tuple[str, ...] = ("auto", "inprocess", "fork")


# ----------------------------------------------------------------------
# Per-node execution (pure function of its inputs; pool-safe)
# ----------------------------------------------------------------------
def _run_node(config: SystemConfig, batches: List[Batch], time_bin: float,
              name: str) -> Tuple[ExecutionResult, Dict, List[float]]:
    """Run one node's session over its sub-stream, timing every bin.

    The stream outlives the job (the caller, or the pool worker's inherited
    state, holds it until the whole fleet is done), and a memo lives as long
    as the batch it is on, so each bin's memos are dropped once it is
    ingested: what a job leaves behind does not grow with the number of
    bins or of nodes a worker has run.
    """
    if config.num_shards > 1:
        session = ShardedSystem(config=config).open_session(
            time_bin=time_bin, name=name)
    else:
        session = config.build().open_session(time_bin=time_bin, name=name)
    bin_seconds: List[float] = []
    for batch in batches:
        started = perf_counter()
        session.ingest(batch)
        bin_seconds.append(perf_counter() - started)
        batch.drop_memos()
    result = session.close()
    return result, session.metrics, bin_seconds


#: Pre-fork state for pooled node execution (see repro.core.pool.pool_state).
_POOL_STATE: dict = {}


def _run_node_job(index: int) -> Tuple[ExecutionResult, Dict, List[float]]:
    """Run one node from the fork-inherited pre-partitioned streams."""
    return _run_node(_POOL_STATE["configs"][index],
                     _POOL_STATE["streams"][index],
                     _POOL_STATE["time_bin"],
                     _POOL_STATE["names"][index])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Everything a fleet run produced: the one answer plus the evidence."""

    federated: ExecutionResult
    node_results: List[ExecutionResult]
    node_metrics: List[Dict]
    #: Wall seconds each node spent ingesting each bin; shape (nodes, bins).
    node_bin_seconds: np.ndarray
    topology: FleetTopology
    time_bin: float
    backend: str
    metrics: Dict = field(default_factory=dict)
    #: Query instance name -> registry kind (accuracy metrics go by kind).
    query_kinds: Dict[str, str] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.node_results)

    @property
    def bin_latency(self) -> np.ndarray:
        """Per-bin fleet latency: the straggler node's ingest seconds.

        A bin's federated answer is ready when its slowest node finishes,
        so the fleet-level per-bin latency is the max across nodes.
        """
        if self.node_bin_seconds.size == 0:
            return np.zeros(0)
        return self.node_bin_seconds.max(axis=0)

    def report(self, reference: Optional[ExecutionResult] = None) -> Dict:
        """The fleet report: one JSON-able dict for dashboards and CI.

        Includes per-bin shed-latency percentiles both in wall time (the
        measured straggler ingest latency) and on the simulated cycle
        clock (the federated ``delay`` series: the cycles by which the
        worst node runs behind real time), the folded node metrics, and —
        when a reference execution is given — per-query mean and per-bin
        accuracy percentiles.
        """
        federated = self.federated
        report = {
            "nodes": self.num_nodes,
            "partition_by": self.topology.partition_by,
            "backend": self.backend,
            "bins": len(federated.bins),
            "time_bin": self.time_bin,
            "total_packets": federated.total_packets,
            "dropped_packets": federated.dropped_packets,
            "drop_fraction": federated.drop_fraction,
            "mean_sampling_rate": federated.mean_sampling_rate(),
            "bin_latency_seconds": summarize(self.bin_latency),
            "node_bin_latency_seconds": summarize(
                self.node_bin_seconds.ravel()),
            "delay_cycles": summarize(federated.series("delay")),
            "metrics": self.metrics,
        }
        if reference is not None:
            from ..experiments import runner as experiments_runner
            report["accuracy"] = experiments_runner.accuracy_by_query(
                federated, reference, self.query_kinds)
            report["accuracy_per_bin"] = {
                name: summarize(experiments_runner.accuracy_series(
                    federated, reference, name, self.query_kinds))
                for name in federated.query_logs
                if name in reference.query_logs
            }
        return report


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class FleetRunner:
    """Runs every node of a topology over a partitioned stream.

    Parameters
    ----------
    topology:
        The fleet description (nodes, partition rule, overlays).
    config:
        Base :class:`SystemConfig` every node derives from.  Must carry a
        declarative ``queries`` field — the fleet ships configs, not query
        instances (defaults to the experiment harness's config with the
        standard ``counter,flows,top-k`` mix).
    n_workers:
        Node-execution parallelism; the runner executes nodes through a
        :class:`~repro.experiments.parallel.ParallelRunner` pool of this
        size.  Per-node shard parallelism is separate (each node honours
        its own config's ``num_shards``/``shard_backend``).
    backend:
        ``"inprocess"`` (serial), ``"fork"`` (one pooled job per node over
        the pre-partitioned streams), or ``"auto"`` — fork when
        ``n_workers > 1``, more than one node, and the host supports the
        fork start method.
    """

    def __init__(self, topology: FleetTopology,
                 config: Optional[SystemConfig] = None,
                 n_workers: int = 1, backend: str = "auto",
                 respect_cores: bool = True) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown fleet backend {backend!r}; "
                             f"valid backends: {BACKENDS}")
        self.topology = topology
        if config is None:
            from ..experiments.runner import system_config
            from ..queries import parse_query_specs
            config = system_config(
                queries=parse_query_specs("counter,flows,top-k"))
        if config.queries is None:
            raise ValueError(
                "the fleet base config needs a declarative 'queries' field "
                "(nodes are built from shipped configs, not from query "
                "instances); set config = config.replace(queries=...)")
        self.config = config
        self.partitioner = FleetPartitioner(topology)
        self.pool = ParallelRunner(n_workers=n_workers,
                                   respect_cores=respect_cores)
        self.backend = backend
        self.aggregator = FleetAggregator()

    # ------------------------------------------------------------------
    def resolve_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        if (self.pool.n_workers > 1 and self.topology.num_nodes > 1
                and fork_start_available()):
            return "fork"
        return "inprocess"

    def node_streams(self, trace, time_bin: float
                     ) -> Tuple[List[List[Batch]], "PacketTrace"]:
        """Partition every bin of the trace into per-node sub-streams."""
        trace = as_trace(trace)
        streams: List[List[Batch]] = [[] for _ in
                                      range(self.topology.num_nodes)]
        for batch in trace.batch_list(time_bin):
            for index, sub in enumerate(self.partitioner.split(batch)):
                streams[index].append(sub)
        return streams, trace

    def query_classes(self) -> Dict[str, type]:
        """Query class per instance name, resolved from the node configs.

        Federation folds per-name logs through the owning class's
        ``RESULT_MERGE`` spec; the classes come from the first node's
        config (every node must run the same query names for the merge to
        be defined — per-node overlays may change budgets and modes, not
        the query set's names).
        """
        queries = self.topology.node_configs(self.config)[0].build_queries()
        return {query.name: type(query) for query in queries}

    # ------------------------------------------------------------------
    def run(self, trace, time_bin: float = 0.1,
            force: Optional[Dict[str, object]] = None) -> FleetResult:
        """Execute every node over its partition and federate the results.

        ``force`` overlays config fields onto *every* node after all
        topology overlays (used by the exactness check to pin the whole
        fleet to reference mode).
        """
        configs = self.topology.node_configs(self.config, force=force)
        streams, trace = self.node_streams(trace, time_bin)
        names = [f"{trace.name}[{node.name}]" for node in self.topology.nodes]
        backend = self.resolve_backend()
        if backend == "fork" and self.topology.num_nodes > 1:
            with pool_state(_POOL_STATE, configs=configs, streams=streams,
                            time_bin=float(time_bin), names=names):
                outcomes = self.pool.map(_run_node_job,
                                         list(range(len(configs))),
                                         require_fork=True)
        else:
            backend = "inprocess"
            outcomes = [_run_node(config, stream, float(time_bin), name)
                        for config, stream, name in zip(configs, streams,
                                                        names)]
        results = [result for result, _, _ in outcomes]
        metrics = [node_metrics for _, node_metrics, _ in outcomes]
        bin_seconds = np.array([seconds for _, _, seconds in outcomes],
                               dtype=np.float64)
        federated = self.aggregator.federate(
            results, query_classes=self.query_classes(),
            name=f"{trace.name}[fleet]")
        return FleetResult(
            federated=federated, node_results=results, node_metrics=metrics,
            node_bin_seconds=bin_seconds, topology=self.topology,
            time_bin=float(time_bin), backend=backend,
            metrics=self.aggregator.fold_metrics(metrics),
            query_kinds=self.config.query_kinds())


# ----------------------------------------------------------------------
# The federated ≡ single-node identity check
# ----------------------------------------------------------------------
def _query_kind(query_cls: type) -> Optional[str]:
    for kind, cls in QUERY_CLASSES.items():
        if cls is query_cls:
            return kind
    return None


def verify_exactness(topology: FleetTopology, trace,
                     config: Optional[SystemConfig] = None,
                     time_bin: float = 0.1, n_workers: int = 1) -> Dict:
    """Check the federated answer equals one node over the whole stream.

    Runs the fleet *and* a single unpartitioned system in reference mode
    (no shedding — results are deterministic integer-valued floats, so
    merge-exact queries must agree bit for bit) and compares every query
    log.  Returns a JSON-able verdict::

        {"queries": {name: {"kind", "exactness", "checked", "identical"}},
         "exact_queries_identical": bool}   # the fleet correctness gate

    Only kinds whose :data:`repro.queries.MERGE_EXACTNESS` entry is
    ``"exact"`` are gated (``checked=True``); bounded/prefix/union kinds
    report their observed identity for information but cannot fail the
    check.
    """
    fleet = FleetRunner(topology, config=config, n_workers=n_workers)
    fleet_result = fleet.run(trace, time_bin=time_bin,
                             force={"mode": "reference"})
    single_config = fleet.config.replace(mode="reference", num_shards=1)
    single = single_config.build().run(as_trace(trace), time_bin=time_bin)

    classes = fleet.query_classes()
    queries: Dict[str, Dict] = {}
    gate = True
    for name, log in fleet_result.federated.query_logs.items():
        kind = _query_kind(classes.get(name))
        exactness = MERGE_EXACTNESS.get(kind, "unknown")
        reference_log = single.query_logs.get(name)
        identical = (
            reference_log is not None
            and log.intervals == reference_log.intervals
            and log.results == reference_log.results)
        checked = exactness == "exact"
        if checked and not identical:
            gate = False
        queries[name] = {"kind": kind, "exactness": exactness,
                         "checked": checked, "identical": identical}
    return {"queries": queries, "exact_queries_identical": gate,
            "nodes": topology.num_nodes,
            "partition_by": topology.partition_by,
            "bins": len(fleet_result.federated.bins)}


__all__ = ["BACKENDS", "FleetResult", "FleetRunner", "verify_exactness"]
