"""Monitoring-system substrate: packets, filters, queries, capture, metrics."""

from . import filters, metrics
from .capture import BufferStatus, CaptureBuffer
from .config import MODES, MODE_ALIASES, SystemConfig
from .packet import (PROTO_ICMP, PROTO_TCP, PROTO_UDP, Batch, Packet,
                     PacketTrace, StreamingTrace, as_trace, format_ip, ip)
from .query import (SAMPLING_CUSTOM, SAMPLING_FLOW, SAMPLING_PACKET, Query,
                    QueryResultLog)
from .session import MonitoringSession
from .sharding import SHARD_BACKENDS, ShardedSession, ShardedSystem
from .system import (BinRecord, ExecutionResult, MonitoringSystem)
from .workers import ShardExecutionWarning, ShardWorkerError, ShardWorkerPool

__all__ = [
    "Batch",
    "BinRecord",
    "BufferStatus",
    "CaptureBuffer",
    "ShardedSession",
    "ShardedSystem",
    "ExecutionResult",
    "MODES",
    "MODE_ALIASES",
    "MonitoringSession",
    "MonitoringSystem",
    "SHARD_BACKENDS",
    "ShardExecutionWarning",
    "ShardWorkerError",
    "ShardWorkerPool",
    "SystemConfig",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketTrace",
    "Query",
    "QueryResultLog",
    "SAMPLING_CUSTOM",
    "SAMPLING_FLOW",
    "SAMPLING_PACKET",
    "StreamingTrace",
    "as_trace",
    "filters",
    "format_ip",
    "ip",
    "metrics",
]
