"""Second merge tier: fold per-node results into one answer.

The :class:`FleetAggregator` is the global half of the fleet split: nodes
run their own predict/shed loops and produce ordinary
:class:`~repro.monitor.system.ExecutionResult` objects; the aggregator
folds the results through the declarative ``RESULT_MERGE`` rules — the
same associative fold the shard tier uses, one level up — and scrapes the
Prometheus text a live ``repro.serve`` node exposes on ``/metrics``.  The
nodes' metrics documents fold where a node's shards' do, in
:func:`repro.profile.fold_metrics`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..monitor.system import ExecutionResult


class FleetAggregator:
    """Folds per-node executions into the fleet-global one; scrapes nodes."""

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

    # ------------------------------------------------------------------
    # Scraping live nodes
    # ------------------------------------------------------------------
    @staticmethod
    def parse_prometheus_text(text: str) -> Dict[str, float]:
        """Parse Prometheus exposition text into ``{sample name: value}``.

        Understands the subset ``repro.serve`` emits: ``# HELP``/``# TYPE``
        comment lines are skipped, a sample is ``name[{labels}] value``,
        and the label block (if any) stays part of the returned key, so
        per-query samples remain distinct.
        """
        samples: Dict[str, float] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if not name:
                continue
            try:
                samples[name.strip()] = float(value)
            except ValueError:
                continue
        return samples

    @classmethod
    def scrape(cls, url: str, timeout: float = 5.0) -> Dict[str, float]:
        """Fetch and parse one node's ``/metrics`` endpoint.

        ``url`` is the full endpoint of a running ``repro.serve`` daemon
        (e.g. ``http://127.0.0.1:9090/metrics``).
        """
        # Imported here: the HTTP client stack (``http.client``, ``email``,
        # ``ssl``) is a sixth of ``import repro``, and only this needs it.
        import urllib.request

        with urllib.request.urlopen(url, timeout=timeout) as response:
            return cls.parse_prometheus_text(
                response.read().decode("utf-8", errors="replace"))

    @classmethod
    def scrape_fleet(cls, urls: Sequence[str],
                     timeout: float = 5.0) -> Dict[str, Dict[str, float]]:
        """Scrape several nodes; returns ``{url: samples}``.

        A node that cannot be reached maps to an empty dict instead of
        failing the sweep — a fleet scrape must survive one dead node.
        """
        scraped: Dict[str, Dict[str, float]] = {}
        for url in urls:
            try:
                scraped[url] = cls.scrape(url, timeout=timeout)
            except OSError:
                scraped[url] = {}
        return scraped


__all__ = ["FleetAggregator"]
