"""Fleet federation: hundreds of monitor nodes, one answer, one API.

The paper's system is a single CoMo node; a production deployment is a
fleet of them over partitioned traffic.  This package is that second tier:

* :mod:`~repro.fleet.topology` — the declarative fleet spec (YAML/JSON):
  node count, per-node traffic partition (flow-hash / source-prefix /
  ingress link), per-node :class:`~repro.monitor.config.SystemConfig`
  overlays and independent cycle budgets.
* :mod:`~repro.fleet.partition` — flow-affine per-batch routing of packets
  to nodes, memoised independently of the shard-level splits.
* :mod:`~repro.fleet.runner` — streams the trace bin by bin through every
  node's own resident predict/shed loop (in-process, or in the persistent
  worker processes of :class:`~repro.monitor.workers.ShardWorkerPool`) and
  measures per-bin latency; :func:`~repro.fleet.runner.verify_exactness` gates the
  federated answer against a single-node run.
* :mod:`~repro.fleet.aggregate` — the global
  :class:`~repro.fleet.aggregate.FleetAggregator`: folds per-node
  :class:`~repro.monitor.system.ExecutionResult` objects through the
  ``RESULT_MERGE`` rules (via the public :meth:`ExecutionResult.merge` /
  :meth:`BinRecord.merge` API).

``python -m repro.fleet`` runs a topology from the shell.
"""

from .. import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "aggregate": ("FleetAggregator",),
    "partition": ("FleetPartitioner",),
    "runner": ("BACKENDS", "FleetResult", "FleetRunner", "verify_exactness"),
    "topology": ("FleetTopology", "NodeSpec", "PARTITION_MODES",
                 "load_topology"),
})

__all__ = [
    "BACKENDS",
    "FleetAggregator",
    "FleetPartitioner",
    "FleetResult",
    "FleetRunner",
    "FleetTopology",
    "NodeSpec",
    "PARTITION_MODES",
    "load_topology",
    "verify_exactness",
]
