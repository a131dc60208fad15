"""Second merge tier: fold per-node results and metrics into one answer.

The :class:`FleetAggregator` is the global half of the fleet split: nodes
run their own predict/shed loops and produce ordinary
:class:`~repro.monitor.system.ExecutionResult` objects plus operational
metrics (:attr:`MonitoringSession.metrics`, or the Prometheus text a
``repro.serve`` daemon exposes on ``/metrics``); the aggregator folds the
results through the declarative ``RESULT_MERGE`` rules — the same
associative fold the shard tier uses, one level up — and the metrics into
one fleet report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..monitor.system import ExecutionResult


class FleetAggregator:
    """Folds per-node executions and metrics into fleet-global views."""

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
    # Metrics folding
    # ------------------------------------------------------------------
    @staticmethod
    def fold_metrics(node_metrics: Iterable[Dict]) -> Dict:
        """Fold per-node ``session.metrics`` dicts into fleet totals.

        Stage profiles sum their call counts and wall/cycle totals (the
        mean recomputes from the folded totals); feature-sharing counters
        sum.  Per-bin latency *percentiles* cannot be folded from per-node
        summaries — that is why :class:`~repro.fleet.runner.FleetRunner`
        measures its own per-bin ingest latencies — so the per-node
        ``bin_seconds`` summaries are kept as a list under
        ``profile.bin_seconds_per_node``.
        """
        metrics = [m for m in node_metrics if m]
        stages: Dict[str, Dict[str, float]] = {}
        bins = 0
        bin_summaries: List[Dict] = []
        sharing: Dict[str, float] = {}
        for node in metrics:
            profile = node.get("profile", {})
            bins = max(bins, int(profile.get("bins", 0)))
            if "bin_seconds" in profile:
                bin_summaries.append(profile["bin_seconds"])
            for stage, values in profile.get("stages", {}).items():
                folded = stages.setdefault(
                    stage, {"calls": 0, "seconds_total": 0.0,
                            "cycles_total": 0.0})
                folded["calls"] += values.get("calls", 0)
                folded["seconds_total"] += values.get("seconds_total", 0.0)
                folded["cycles_total"] += values.get("cycles_total", 0.0)
            for key, value in node.get("feature_sharing", {}).items():
                sharing[key] = sharing.get(key, 0) + value
        for folded in stages.values():
            folded["mean_seconds"] = (folded["seconds_total"] /
                                      folded["calls"]
                                      if folded["calls"] else 0.0)
        return {
            "profile": {
                "bins": bins,
                "stages": stages,
                "bin_seconds_per_node": bin_summaries,
            },
            "feature_sharing": sharing,
        }

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
