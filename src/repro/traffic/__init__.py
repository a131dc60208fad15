"""Synthetic traffic substrate: generation, anomalies, presets and trace I/O."""

from .. import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "anomalies": ("AnomalyWindow", "ddos_attack", "flow_spike", "inject",
                  "syn_flood"),
    "generator": ("ATTACK_SIGNATURE", "P2P_SIGNATURES", "ApplicationProfile",
                  "TrafficProfile", "generate_trace", "generate_trace_store",
                  "merge_traces"),
    "models": ("TRACE_PROFILES", "load_preset", "trace_profile"),
    "trace_io": ("TraceStore", "TraceWriter", "load_trace", "open_trace",
                 "save_trace", "save_trace_store"),
})

__all__ = [
    "ATTACK_SIGNATURE",
    "AnomalyWindow",
    "ApplicationProfile",
    "P2P_SIGNATURES",
    "TRACE_PROFILES",
    "TraceStore",
    "TraceWriter",
    "TrafficProfile",
    "ddos_attack",
    "flow_spike",
    "generate_trace",
    "generate_trace_store",
    "inject",
    "load_preset",
    "load_trace",
    "merge_traces",
    "open_trace",
    "save_trace",
    "save_trace_store",
    "syn_flood",
    "trace_profile",
]
