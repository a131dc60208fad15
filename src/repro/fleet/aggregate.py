"""Second merge tier: fold per-node results into one answer.

The :class:`FleetAggregator` is the global half of the fleet split: nodes
run their own predict/shed loops and produce ordinary
:class:`~repro.monitor.system.ExecutionResult` objects; the aggregator
folds the results through the declarative ``RESULT_MERGE`` rules — the
same associative fold the shard tier uses, one level up.  The nodes'
metrics documents fold where a node's shards' do, in
:func:`repro.profile.fold_metrics`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..monitor.system import ExecutionResult


class FleetAggregator:
    """Folds per-node executions into the fleet-global one."""

    # ------------------------------------------------------------------
    # Result federation
    # ------------------------------------------------------------------
    @staticmethod
    def federate(results: Sequence[ExecutionResult],
                 query_classes: Optional[Dict[str, type]] = None,
                 name: str = "fleet") -> ExecutionResult:
        """Fold per-node executions into the fleet-global execution.

        A thin, named entry point over :meth:`ExecutionResult.merge` (the
        public second-tier merge API): bin records sum / worst-case fold,
        query logs merge interval by interval under each query's
        ``RESULT_MERGE`` spec, and the fleet budget is the summed node
        capacity.  Because every registered merge is associative, regional
        pre-aggregation composes: ``federate(results)`` equals
        ``federate([federate(region) for region in regions])`` for any
        grouping of the same nodes.
        """
        return ExecutionResult.merge(results, query_classes=query_classes,
                                     name=name)


__all__ = ["FleetAggregator"]
