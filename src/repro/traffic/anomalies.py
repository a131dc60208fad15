"""Traffic anomaly injection.

The paper stresses the prediction and load shedding schemes with synthetic
anomalies injected into real traces (Sections 3.4.3, 4.5.5, 6.3.2):

* volume-based (D)DoS attacks — an overwhelming number of packets towards a
  single target;
* SYN-flood attacks with spoofed sources — a sudden explosion in the number
  of distinct 5-tuple flows while the packet count grows much less;
* on/off attacks that go idle every other second to create a workload that
  is deliberately hard to predict (Figure 3.13-3.15).

Each injector returns a :class:`~repro.monitor.packet.PacketTrace` holding
only the anomaly packets; callers merge it into a baseline trace with
:func:`repro.traffic.generator.merge_traces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..monitor.packet import PROTO_TCP, Batch, PacketTrace, ip
from .generator import merge_traces


@dataclass
class AnomalyWindow:
    """Time window during which an anomaly is active."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


def _uniform_times(window: AnomalyWindow, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.uniform(window.start, window.end, size=count))


def _on_off_times(window: AnomalyWindow, count: int, period: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw times only during the 'on' half of each ``period`` seconds."""
    times = rng.uniform(window.start, window.end, size=count * 2)
    phase = np.mod(times - window.start, period)
    times = times[phase < period / 2.0][:count]
    return np.sort(times)


def ddos_attack(
    window: AnomalyWindow,
    packets_per_second: float = 20000.0,
    target: Optional[int] = None,
    target_port: int = 80,
    spoofed_sources: bool = True,
    on_off_period: Optional[float] = None,
    seed: int = 1,
    name: str = "ddos",
) -> PacketTrace:
    """Distributed denial-of-service flood towards a single target.

    With ``spoofed_sources`` the source addresses and ports are random per
    packet, so the attack inflates every flow-related traffic feature; this is
    the anomaly of Figures 3.13-3.15.  ``on_off_period`` makes the attack go
    idle every other half-period, producing the hard-to-predict on/off load.
    """
    rng = np.random.default_rng(seed)
    count = int(packets_per_second * window.duration)
    if on_off_period is not None:
        ts = _on_off_times(window, count, on_off_period, rng)
    else:
        ts = _uniform_times(window, count, rng)
    count = len(ts)
    if target is None:
        target = ip(147, 83, 30, 30)
    if spoofed_sources:
        src_ip = rng.integers(ip(1, 0, 0, 1), ip(223, 255, 255, 254),
                              size=count, dtype=np.int64).astype(np.uint32)
        src_port = rng.integers(1024, 65535, size=count).astype(np.uint16)
    else:
        sources = rng.integers(ip(60, 0, 0, 1), ip(90, 0, 0, 1), size=200,
                               dtype=np.int64).astype(np.uint32)
        src_ip = rng.choice(sources, size=count)
        src_port = rng.integers(1024, 65535, size=count).astype(np.uint16)
    packets = Batch(
        ts=ts,
        src_ip=src_ip,
        dst_ip=np.full(count, target, dtype=np.uint32),
        src_port=src_port,
        dst_port=np.full(count, target_port, dtype=np.uint16),
        proto=np.full(count, PROTO_TCP, dtype=np.uint8),
        size=np.full(count, 64, dtype=np.uint32),
    )
    return PacketTrace(packets, name=name)


def syn_flood(
    window: AnomalyWindow,
    packets_per_second: float = 15000.0,
    target: Optional[int] = None,
    target_port: int = 80,
    seed: int = 2,
    name: str = "syn-flood",
) -> PacketTrace:
    """SYN flood with spoofed sources: every packet is a new 40-byte flow."""
    return ddos_attack(
        window,
        packets_per_second=packets_per_second,
        target=target,
        target_port=target_port,
        spoofed_sources=True,
        seed=seed,
        name=name,
    )


def flow_spike(
    window: AnomalyWindow,
    flows_per_second: float = 5000.0,
    packets_per_flow: int = 2,
    dst_port: int = 80,
    seed: int = 5,
    name: str = "flow-spike",
) -> PacketTrace:
    """A spike in the number of distinct flows with modest packet volume.

    This is the "unknown query" anomaly of Figure 3.1: packet and byte counts
    stay roughly flat while the number of 5-tuple flows explodes, so only a
    flow-aware feature explains the extra CPU usage.
    """
    rng = np.random.default_rng(seed)
    n_flows = int(flows_per_second * window.duration)
    count = n_flows * packets_per_flow
    ts = _uniform_times(window, count, rng)
    flow_src = rng.integers(ip(1, 0, 0, 1), ip(223, 255, 255, 254),
                            size=n_flows, dtype=np.int64).astype(np.uint32)
    flow_sport = rng.integers(1024, 65535, size=n_flows).astype(np.uint16)
    idx = np.repeat(np.arange(n_flows), packets_per_flow)[:count]
    packets = Batch(
        ts=ts,
        src_ip=flow_src[idx],
        dst_ip=np.full(count, ip(147, 83, 40, 40), dtype=np.uint32),
        src_port=flow_sport[idx],
        dst_port=np.full(count, dst_port, dtype=np.uint16),
        proto=np.full(count, PROTO_TCP, dtype=np.uint8),
        size=np.full(count, 60, dtype=np.uint32),
    )
    return PacketTrace(packets, name=name)


def inject(base: PacketTrace, *anomalies: PacketTrace,
           name: Optional[str] = None) -> PacketTrace:
    """Merge anomaly traces into a baseline trace, preserving time order.

    Payloads are dropped if the baseline carries payloads but the anomaly
    traces do not (header-only attack packets), matching how a header-only
    flood would appear to payload-based queries as empty payloads.
    """
    if base.packets.payloads is not None:
        # Give anomaly packets empty payloads so the merged trace stays
        # payload-complete.
        patched = []
        for anomaly in anomalies:
            pkts = anomaly.packets
            if pkts.payloads is None and len(pkts) > 0:
                pkts = Batch(
                    ts=pkts.ts, src_ip=pkts.src_ip, dst_ip=pkts.dst_ip,
                    src_port=pkts.src_port, dst_port=pkts.dst_port,
                    proto=pkts.proto, size=pkts.size,
                    payloads=[b""] * len(pkts),
                    time_bin=pkts.time_bin, start_ts=pkts.start_ts,
                )
            patched.append(PacketTrace(pkts, name=anomaly.name))
        anomalies = tuple(patched)
    merged_name = name if name is not None else f"{base.name}+anomalies"
    return merge_traces(base, *anomalies, name=merged_name)
