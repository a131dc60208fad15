"""repro: a reproduction of "Load Shedding in Network Monitoring Applications".

The package implements the predictive load shedding scheme of Barlet-Ros,
Iannaccone et al. (USENIX 2007) together with every substrate needed to
exercise it: a CoMo-like monitoring system, the standard query set, a
synthetic traffic generator with anomaly injection, and an experiment harness
that regenerates each table and figure of the paper's evaluation.

Quick start::

    from repro import SystemConfig, standard_queries
    from repro.traffic import load_preset

    trace = load_preset("CESCA-I", seed=1, duration=10.0)
    config = SystemConfig(mode="predictive", strategy="mmfs_pkt")
    system = config.build(standard_queries(["counter", "flows", "top-k"]))
    result = system.run(trace)
    print(result.drop_fraction, result.mean_sampling_rate())

Streaming ingestion (live traffic, no materialised trace)::

    session = system.open_session(time_bin=0.1)
    for batch in batch_source:          # any generator of Batch objects
        session.ingest(batch)           # full per-bin pipeline
    session.add_query(make_query("top-k"))   # arrives at the next bin
    result = session.close()

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured comparison of every reproduced experiment.
"""

from .core import (EWMAPredictor, FeatureExtractor, LoadSheddingController,
                   MLRPredictor, SLRPredictor)
from .core.cycles import CycleBudget
from .core.tenancy import TenantGroup, TenantRegistry
from .fleet import (FleetAggregator, FleetRunner, FleetTopology, NodeSpec,
                    load_topology)
from .monitor import (Batch, ExecutionResult, MonitoringSession,
                      MonitoringSystem, PacketTrace, Query, ShardedSession,
                      ShardedSystem, StreamingTrace, SystemConfig)
from .queries import make_query, standard_queries
from .traffic import (TraceStore, TraceWriter, generate_trace,
                      generate_trace_store, load_preset, open_trace)

__version__ = "1.3.0"

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
    "standard_queries",
]
