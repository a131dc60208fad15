"""Execute a fleet topology over a traffic stream and federate the answer.

:class:`FleetRunner` is the scenario runner of the fleet tier: it reads a
trace one time bin at a time, splits the bin across the topology's nodes
(:class:`~repro.fleet.partition.FleetPartitioner`), hands part ``i`` to
node ``i``'s resident session and lets the bin go — every node runs one
full predict/shed loop, a :class:`~repro.monitor.session.MonitoringSession`
or, for nodes configured with ``num_shards > 1``, a sharded session, so the
shard tier nests under the fleet tier unchanged — and federates the
per-node results through the :class:`~repro.fleet.aggregate.FleetAggregator`.

The node sessions live in one of the two session executors a
:class:`~repro.monitor.sharding.ShardedSession` also drives:
:class:`~repro.monitor.sharding.InProcessShards` (backend ``"inprocess"``)
or a :class:`~repro.monitor.workers.ShardWorkerPool` of resident worker
processes (backend ``"fork"``), forked before the first bin is read, node
``i`` on process ``i mod n``, fed through shared memory and running up to
two bins behind the reader.  Either steps the node sessions; the runner
folds what they deliver into the node results it owns, and their metrics
documents with :func:`repro.profile.fold_metrics`, as a node does for its
shards.  What is resident is the N node sessions, two buffer slots per
node, the one bin being dealt out and the node results — nothing else that
grows with the trace, so a store replays out of core.  Every node sees the
same sub-batches in the same order with the same config and seed on either
executor, so the federated result is bit-identical.

:func:`verify_exactness` is the fleet's correctness gate: it runs the fleet
and a single unpartitioned node in reference mode (no shedding, sampling
rate 1.0 — every reported quantity is an integer-valued float, so addition
order cannot perturb it) and checks the federated query logs are
*bit-identical* to the single-node logs for every merge-exact query kind
(:data:`repro.queries.MERGE_EXACT_KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..monitor.config import SystemConfig
from ..monitor.packet import Batch, PacketTrace, as_trace
from ..monitor.sharding import InProcessShards, build_system
from ..monitor.system import ExecutionResult
from ..monitor.workers import (ShardWorkerPool, effective_workers,
                               fork_start_available)
from ..profile import fold_metrics, summarize
from ..queries import MERGE_EXACTNESS, QUERY_CLASSES
from .aggregate import FleetAggregator
from .partition import FleetPartitioner
from .topology import FleetTopology

#: Fleet node execution backends.
BACKENDS: Tuple[str, ...] = ("auto", "inprocess", "fork")


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
        Node-execution parallelism: how many resident worker processes the
        ``"fork"`` backend deals the node sessions onto (clamped to the
        node count and, unless ``respect_cores=False``, to the host's
        cores).  A node's own ``num_shards`` run in-process inside it.
    backend:
        ``"inprocess"`` (serial), ``"fork"`` (node sessions resident in
        worker processes, fed bin by bin), or ``"auto"`` — fork when more
        than one worker process would run and the host supports the fork
        start method.
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
        self.processes = max(1, effective_workers(
            n_workers, topology.num_nodes, respect_cores))
        self.backend = backend
        self.aggregator = FleetAggregator()

    # ------------------------------------------------------------------
    def resolve_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        if self.processes > 1 and fork_start_available():
            return "fork"
        return "inprocess"

    def node_streams(self, trace, time_bin: float
                     ) -> Tuple[List[List[Batch]], "PacketTrace"]:
        """Every bin of the trace, split, as per-node lists of sub-batches.

        Materialises the whole partitioned stream: for oracles and tests
        that replay one node by hand; :meth:`run` streams instead.
        """
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
        """Stream the trace through every node and federate the results.

        Each bin is read, split, dealt to the resident node sessions and
        dropped; on the ``"fork"`` backend the workers run up to two bins
        behind.  ``force`` overlays config fields onto *every* node after
        all topology overlays (used by the exactness check to pin the
        whole fleet to reference mode).
        """
        configs = self.topology.node_configs(self.config, force=force)
        trace, time_bin = as_trace(trace), float(time_bin)
        names = [f"{trace.name}[{node.name}]" for node in self.topology.nodes]
        results = [ExecutionResult(config.mode, config.strategy, name,
                                   config.make_budget(time_bin))
                   for config, name in zip(configs, names)]
        backend = self.resolve_backend()
        if backend == "fork" and self.topology.num_nodes > 1:
            nodes = ShardWorkerPool(configs, None, time_bin, names,
                                    processes=self.processes)
        else:
            backend = "inprocess"
            nodes = InProcessShards([build_system(config)
                                     for config in configs], time_bin, names)

        # Per node, the wall seconds of every bin.
        bin_seconds: List[List[float]] = [[] for _ in configs]

        def fold_delivered() -> None:
            """What the nodes delivered, into their results, and each bin's
            wall seconds, into the node's series."""
            for queue, seconds, result, config, kept in zip(
                    nodes.arrived, nodes.ingest_seconds, results, configs,
                    bin_seconds):
                while queue:
                    result.fold(*queue.popleft(), config.query_kinds())
                kept.extend(seconds)
                seconds.clear()

        try:
            for batch in trace.batches(time_bin):
                for node, part in enumerate(self.partitioner.split(batch)):
                    nodes.ingest_async(node, part)
                fold_delivered()
            documents = nodes.session_metrics()
            nodes.close()
        finally:
            nodes.stop()
        fold_delivered()
        federated = self.aggregator.federate(
            results, query_classes=self.query_classes(),
            name=f"{trace.name}[fleet]")
        fleet = FleetResult(
            federated=federated, node_results=results,
            node_metrics=documents,
            node_bin_seconds=np.array(bin_seconds, dtype=np.float64),
            topology=self.topology, time_bin=time_bin, backend=backend,
            query_kinds=self.config.query_kinds())
        fleet.metrics = fold_metrics(documents, fleet.bin_latency, federated)
        return fleet


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
                     time_bin: float = 0.1, n_workers: int = 1,
                     backend: str = "auto") -> Dict:
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
    fleet = FleetRunner(topology, config=config, n_workers=n_workers,
                        backend=backend)
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
