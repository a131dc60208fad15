"""Standard experiment scenarios: trace presets and query sets.

Experiments share a small number of workload definitions; keeping them here
guarantees that, e.g., the Chapter 4 figures and Table 4.1 describe the same
execution.  The ``scale`` parameter shrinks or stretches trace durations so
the whole benchmark suite stays laptop-sized; the shapes of the results do
not depend on it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..monitor.packet import PacketTrace
from ..queries import EVALUATION_NINE, VALIDATION_SEVEN
from ..traffic import (AnomalyWindow, ddos_attack, flow_spike, inject,
                       syn_flood)
from ..traffic.models import load_preset

#: Queries robust to sampling used in the Table 4.1 accuracy comparison.
SAMPLING_ROBUST_FIVE: Tuple[str, ...] = (
    "application", "counter", "flows", "high-watermark", "top-k",
)

#: Query set of the Chapter 6 validation (Table 6.1): a mix of cheap,
#: ranking and payload-inspection queries including the custom-shedding
#: P2P detector.
CUSTOM_VALIDATION_SET: Tuple[str, ...] = (
    "counter", "flows", "high-watermark", "top-k", "p2p-detector",
)

#: Named query mixes addressable from the scenario matrix and the
#: ``python -m repro.replay --queries`` flag.  Values are anything
#: :func:`repro.queries.parse_query_specs` accepts — plain name tuples for
#: the paper's canonical sets, richer declarative specs for the mixes that
#: exercise multi-instance and filtered queries.
QUERY_MIXES: Dict[str, Tuple] = {
    "validation-seven": VALIDATION_SEVEN,
    "evaluation-nine": EVALUATION_NINE,
    "sampling-robust-five": SAMPLING_ROBUST_FIVE,
    "custom-validation": CUSTOM_VALIDATION_SET,
    # Per-protocol accounting: the same counter run thrice behind
    # different declarative filters, a mix no name tuple can express.
    "protocol-split": (
        {"kind": "counter", "kwargs": {"name": "counter-all"}},
        {"kind": "counter", "kwargs": {"name": "counter-tcp"},
         "filter": "tcp"},
        {"kind": "counter", "kwargs": {"name": "counter-udp"},
         "filter": "udp"},
        "flows",
    ),
    # Ranking-heavy mix with two top-k widths side by side.
    "rankings": (
        {"kind": "top-k", "kwargs": {"k": 5, "name": "top-5"}},
        {"kind": "top-k", "kwargs": {"k": 20, "name": "top-20"}},
        "super-sources",
        "autofocus",
    ),
}


#: Default durations (seconds of generated traffic) at scale 1.0.
DEFAULT_DURATIONS: Dict[str, float] = {
    "short": 6.0,
    "medium": 12.0,
    "long": 24.0,
}


def scaled_duration(kind: str, scale: float = 1.0) -> float:
    """Duration of a named workload size, scaled by ``scale``."""
    return DEFAULT_DURATIONS[kind] * float(scale)


def header_trace(seed: int = 1, duration: Optional[float] = None,
                 scale: float = 1.0) -> PacketTrace:
    """CESCA-I-like header-only trace."""
    if duration is None:
        duration = scaled_duration("medium", scale)
    return load_preset("CESCA-I", seed=seed, duration=duration)


def payload_trace(seed: int = 2, duration: Optional[float] = None,
                  scale: float = 1.0) -> PacketTrace:
    """CESCA-II-like full-payload trace (needed by payload queries)."""
    if duration is None:
        duration = scaled_duration("medium", scale)
    return load_preset("CESCA-II", seed=seed, duration=duration)


def backbone_traces(seed: int = 3, duration: Optional[float] = None,
                    scale: float = 1.0) -> Dict[str, PacketTrace]:
    """ABILENE- and CENIC-like header traces (Figure 3.8)."""
    if duration is None:
        duration = scaled_duration("short", scale)
    return {
        "ABILENE": load_preset("ABILENE", seed=seed, duration=duration),
        "CENIC": load_preset("CENIC", seed=seed + 1, duration=duration),
    }


def ddos_trace(seed: int = 4, duration: Optional[float] = None,
               scale: float = 1.0, on_off: bool = True,
               packets_per_second: float = 12000.0) -> PacketTrace:
    """Payload trace with a spoofed-source DDoS burst in the middle.

    With ``on_off`` the attack goes idle every other second, reproducing the
    deliberately hard-to-predict workload of Figures 3.13-3.15.
    """
    if duration is None:
        duration = scaled_duration("medium", scale)
    base = header_trace(seed=seed, duration=duration)
    window = AnomalyWindow(start=duration * 0.3, duration=duration * 0.4)
    attack = ddos_attack(window, packets_per_second=packets_per_second,
                         on_off_period=2.0 if on_off else None, seed=seed + 1)
    return inject(base, attack, name="cesca-ddos")


def syn_flood_trace(seed: int = 5, duration: Optional[float] = None,
                    scale: float = 1.0,
                    packets_per_second: float = 10000.0) -> PacketTrace:
    """Header trace with a SYN-flood burst (Figures 4.5/4.6)."""
    if duration is None:
        duration = scaled_duration("medium", scale)
    base = header_trace(seed=seed, duration=duration)
    window = AnomalyWindow(start=duration * 0.35, duration=duration * 0.3)
    attack = syn_flood(window, packets_per_second=packets_per_second,
                       seed=seed + 1)
    return inject(base, attack, name="cesca-synflood")


def flow_anomaly_trace(seed: int = 6, duration: Optional[float] = None,
                       scale: float = 1.0) -> PacketTrace:
    """Header trace with a flow-count spike (Figure 3.1)."""
    if duration is None:
        duration = scaled_duration("medium", scale)
    base = header_trace(seed=seed, duration=duration)
    window = AnomalyWindow(start=duration * 0.4, duration=duration * 0.25)
    anomaly = flow_spike(window, flows_per_second=4000.0, seed=seed + 1)
    return inject(base, anomaly, name="cesca-flowspike")


#: Workloads addressable by name (:func:`build_workload`, the CLIs'
#: ``--workload``).  Every builder accepts ``(seed, duration, scale)`` and
#: returns a :class:`PacketTrace`.
WORKLOADS: Dict[str, "object"] = {
    "cesca": header_trace,
    "cesca-payload": payload_trace,
    "ddos": ddos_trace,
    "syn-flood": syn_flood_trace,
    "flow-spike": flow_anomaly_trace,
}


def build_workload(name: str, seed: Optional[int] = None,
                   duration: Optional[float] = None,
                   scale: float = 1.0) -> PacketTrace:
    """Build the workload trace :data:`WORKLOADS` names ``name``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"available: {sorted(WORKLOADS)}")
    builder = WORKLOADS[name]
    kwargs = {"duration": duration, "scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return builder(**kwargs)


__all__ = [
    "CUSTOM_VALIDATION_SET",
    "EVALUATION_NINE",
    "QUERY_MIXES",
    "SAMPLING_ROBUST_FIVE",
    "VALIDATION_SEVEN",
    "WORKLOADS",
    "backbone_traces",
    "build_workload",
    "ddos_trace",
    "flow_anomaly_trace",
    "header_trace",
    "payload_trace",
    "scaled_duration",
    "syn_flood_trace",
]
