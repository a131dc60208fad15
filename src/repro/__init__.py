"""repro: a reproduction of "Load Shedding in Network Monitoring Applications".

The package implements the predictive load shedding scheme of Barlet-Ros,
Iannaccone et al. (USENIX 2007) together with every substrate needed to
exercise it: a CoMo-like monitoring system, the standard query set, a
synthetic traffic generator with anomaly injection, and an experiment harness
that regenerates each table and figure of the paper's evaluation.

Quick start: a run is a config, built and run.  Three queries on a short
synthetic trace, with a capacity below their demand, so the predictive
system samples their traffic:

>>> from repro import SystemConfig
>>> from repro.traffic import load_preset
>>> trace = load_preset("CESCA-I", seed=1, duration=2.0)
>>> config = SystemConfig(queries="counter,flows,top-k", mode="predictive",
...                       strategy="mmfs_pkt", cycles_per_second=1.2e6)
>>> result = config.build().run(trace)
>>> len(result.bins), sorted(result.query_logs)
(20, ['counter', 'flows', 'top-k'])
>>> result.mean_sampling_rate() < 1.0
True

Streaming ingestion (live traffic, no materialised trace)::

    session = config.build().open_session(time_bin=0.1)
    for batch in batch_source:          # any generator of Batch objects
        session.ingest(batch)           # full per-bin pipeline
    session.add_query(make_query("top-k"))   # arrives at the next bin
    result = session.close()

``README.md`` describes the system (its Architecture and Layout sections);
``benchmarks/bench_chapter2.py`` .. ``bench_chapter6.py`` regenerate the
paper's tables and figures and assert the shapes the paper reports.
"""

from __future__ import annotations

import sys
from importlib import import_module

__version__ = "1.3.0"


def _lazy_facade(package: str, exports: dict[str, tuple[str, ...]],
                 submodules: tuple[str, ...] = ()) -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazy package.

    ``exports`` maps a submodule, relative to ``package``, to the public
    names it defines; ``submodules`` are public names that are submodules
    themselves.  Nothing is imported until a name is first looked up: the
    submodule that defines it is imported then, and the name is bound in
    the package's namespace, so later lookups never come back here.  Every
    package of repro is such a facade, so a process imports the modules it
    uses and no others (Scientific Python SPEC 1's lazy loading).  This
    lives in the root package because ``import repro`` loads nothing else.
    """
    origins = {name: module for module, names in exports.items()
               for name in names}
    origins.update((name, name) for name in submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = import_module(f"{package}.{origin}")
        value = module if origin == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_facade(__name__, {
    "core.cycles": ("CycleBudget",),
    "core.features": ("FeatureExtractor",),
    "core.prediction": ("EWMAPredictor", "MLRPredictor", "SLRPredictor"),
    "core.shedding": ("LoadSheddingController",),
    "core.tenancy": ("TenantGroup", "TenantRegistry"),
    "fleet.aggregate": ("FleetAggregator",),
    "fleet.runner": ("FleetRunner",),
    "fleet.topology": ("FleetTopology", "NodeSpec", "load_topology"),
    "monitor.config": ("SystemConfig",),
    "monitor.packet": ("Batch", "PacketTrace", "StreamingTrace"),
    "monitor.query": ("Query",),
    "monitor.session": ("MonitoringSession",),
    "monitor.sharding": ("ShardedSession", "ShardedSystem"),
    "monitor.system": ("ExecutionResult", "MonitoringSystem"),
    "queries": ("make_query",),
    "traffic.generator": ("generate_trace", "generate_trace_store"),
    "traffic.models": ("load_preset",),
    "traffic.trace_io": ("TraceStore", "TraceWriter", "open_trace"),
})

__all__ = [
    "Batch",
    "CycleBudget",
    "EWMAPredictor",
    "ExecutionResult",
    "FeatureExtractor",
    "FleetAggregator",
    "FleetRunner",
    "FleetTopology",
    "LoadSheddingController",
    "MLRPredictor",
    "MonitoringSession",
    "MonitoringSystem",
    "NodeSpec",
    "PacketTrace",
    "Query",
    "SLRPredictor",
    "ShardedSession",
    "ShardedSystem",
    "StreamingTrace",
    "SystemConfig",
    "TenantGroup",
    "TenantRegistry",
    "TraceStore",
    "TraceWriter",
    "__version__",
    "generate_trace",
    "generate_trace_store",
    "load_preset",
    "load_topology",
    "make_query",
    "open_trace",
]
