"""Synthetic traffic generation.

The paper evaluates on real Gigabit-link traces (CESCA, UPC, ABILENE, CENIC)
which are not redistributable; this module generates synthetic traces with
the statistical structure the load shedding scheme actually reacts to:

* flow arrivals with a bursty, time-varying rate;
* heavy-tailed flow sizes (a few elephants, many mice);
* a port-based application mix (web, DNS, P2P, mail, ...);
* Zipf-like popularity of hosts, so that top-k / autofocus style queries see
  realistic skew;
* optional packet payloads with a configurable density of signature strings
  (for pattern-search and p2p-detector queries).

All generation is vectorised with NumPy and fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..monitor.packet import PROTO_TCP, PROTO_UDP, Batch, PacketTrace, ip

#: Signature strings that the p2p-detector and pattern-search queries look
#: for.  They are injected into generated payloads with configurable
#: probability.
P2P_SIGNATURES: Tuple[bytes, ...] = (
    b"BitTorrent protocol",
    b"GNUTELLA CONNECT",
    b"X-Kazaa-Username",
)
ATTACK_SIGNATURE: bytes = b"\x90\x90\x90\x90EVILPAYLOAD"


@dataclass
class ApplicationProfile:
    """One application class in the traffic mix."""

    name: str
    dst_port: int
    weight: float
    proto: int = PROTO_TCP
    mean_packets_per_flow: float = 12.0
    mean_packet_size: float = 700.0
    p2p: bool = False


#: Default application mix, loosely modelled on an academic access link.
DEFAULT_APPLICATIONS: Tuple[ApplicationProfile, ...] = (
    ApplicationProfile("http", 80, 0.42, PROTO_TCP, 14.0, 820.0),
    ApplicationProfile("https", 443, 0.18, PROTO_TCP, 12.0, 780.0),
    ApplicationProfile("dns", 53, 0.12, PROTO_UDP, 2.0, 90.0),
    ApplicationProfile("smtp", 25, 0.06, PROTO_TCP, 10.0, 560.0),
    ApplicationProfile("ssh", 22, 0.05, PROTO_TCP, 20.0, 220.0),
    ApplicationProfile("p2p-bt", 6881, 0.10, PROTO_TCP, 30.0, 1050.0, p2p=True),
    ApplicationProfile("p2p-gnutella", 6346, 0.04, PROTO_TCP, 22.0, 900.0, p2p=True),
    ApplicationProfile("other", 8080, 0.03, PROTO_TCP, 8.0, 500.0),
)


@dataclass
class TrafficProfile:
    """Parameters controlling synthetic trace generation."""

    duration: float = 30.0                  # seconds of traffic
    flow_arrival_rate: float = 250.0        # mean new flows per second
    burstiness: float = 0.35                # amplitude of rate modulation [0, 1)
    burst_period: float = 7.0               # seconds per modulation cycle
    rate_noise: float = 0.15                # multiplicative per-bin rate noise
    pareto_shape: float = 1.4               # heavy tail of flow sizes
    max_packets_per_flow: int = 2000
    mean_flow_duration: float = 2.0         # seconds
    n_external_hosts: int = 4000
    n_local_hosts: int = 600
    zipf_exponent: float = 1.1              # host popularity skew
    local_network: Tuple[int, int, int, int] = (147, 83, 0, 0)
    applications: Tuple[ApplicationProfile, ...] = DEFAULT_APPLICATIONS
    with_payloads: bool = False
    mean_payload_bytes: int = 160
    max_payload_bytes: int = 512
    signature_probability: float = 0.002    # pattern-search hit density
    name: str = "synthetic"


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _host_pools(profile: TrafficProfile,
                rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Generate the external and local host address pools."""
    external = rng.integers(ip(1, 0, 0, 1), ip(223, 255, 255, 254),
                            size=profile.n_external_hosts, dtype=np.int64)
    a, b, _, _ = profile.local_network
    base = ip(a, b, 0, 0)
    local = base + rng.integers(1, 255 * 255, size=profile.n_local_hosts,
                                dtype=np.int64)
    return external.astype(np.uint32), local.astype(np.uint32)


def _flow_arrivals(profile: TrafficProfile,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw flow start times with a bursty, modulated arrival rate.

    The modulation combines a slow sinusoid (the load oscillation of a real
    link) with a log-normal noise process that changes once per second, so
    consecutive 100 ms bins see similar rates but the trace still exhibits
    second-scale burstiness.
    """
    bin_len = 0.1
    n_bins = max(1, int(round(profile.duration / bin_len)))
    t = (np.arange(n_bins) + 0.5) * bin_len
    modulation = 1.0 + profile.burstiness * np.sin(
        2.0 * np.pi * t / profile.burst_period)
    n_seconds = n_bins // 10 + 1
    per_second_noise = np.exp(rng.normal(0.0, profile.rate_noise,
                                         size=n_seconds))
    noise = np.repeat(per_second_noise, 10)[:n_bins]
    rate_per_bin = profile.flow_arrival_rate * bin_len * modulation * noise
    counts = rng.poisson(np.maximum(rate_per_bin, 0.0))
    starts = np.repeat(np.arange(n_bins) * bin_len, counts)
    starts = starts + rng.uniform(0.0, bin_len, size=len(starts))
    return np.sort(starts)


def _flow_sizes(n_flows: int, app_index: np.ndarray,
                profile: TrafficProfile,
                rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed number of packets per flow, scaled by application."""
    apps = profile.applications
    means = np.array([a.mean_packets_per_flow for a in apps])[app_index]
    # Pareto with unit scale has mean shape/(shape-1); rescale to per-app mean.
    shape = profile.pareto_shape
    raw = rng.pareto(shape, size=n_flows) + 1.0
    raw_mean = shape / (shape - 1.0) if shape > 1.0 else 3.0
    sizes = np.maximum(1, np.round(raw * means / raw_mean)).astype(np.int64)
    return np.minimum(sizes, profile.max_packets_per_flow)


def _make_payloads(sizes: np.ndarray, dst_ports: np.ndarray,
                   within_flow_index: np.ndarray,
                   profile: TrafficProfile,
                   rng: np.random.Generator) -> List[bytes]:
    """Generate per-packet payloads with occasional embedded signatures.

    The first two packets of every P2P flow carry a protocol handshake
    signature (the exchange signature-based detectors key on); this is what
    makes the P2P detector fragile under packet sampling — losing either
    handshake packet makes the flow undetectable — while flow-wise shedding
    keeps surviving flows fully classifiable (Chapter 6).
    """
    p2p_ports = {a.dst_port for a in profile.applications if a.p2p}
    payload_lens = np.minimum(
        rng.geometric(1.0 / max(profile.mean_payload_bytes, 1), size=len(sizes)),
        profile.max_payload_bytes,
    )
    payload_lens = np.minimum(payload_lens, np.maximum(sizes, 1))
    signature_hits = rng.random(len(sizes)) < profile.signature_probability
    p2p_mask = np.isin(dst_ports, list(p2p_ports)) if p2p_ports else np.zeros(
        len(sizes), dtype=bool)
    p2p_hits = p2p_mask & (within_flow_index < 2)
    # Make room for the signature so short handshake payloads still carry it.
    min_sig_len = max(len(sig) for sig in P2P_SIGNATURES) + 4
    payload_lens = np.where(p2p_hits,
                            np.maximum(payload_lens, min_sig_len), payload_lens)
    blob = rng.integers(32, 127, size=int(payload_lens.sum()),
                        dtype=np.uint8).tobytes()
    payloads: List[bytes] = []
    offset = 0
    sig_cycle = 0
    for i, length in enumerate(payload_lens):
        length = int(length)
        body = blob[offset:offset + length]
        offset += length
        if p2p_hits[i]:
            sig = P2P_SIGNATURES[sig_cycle % len(P2P_SIGNATURES)]
            sig_cycle += 1
            body = sig + body[len(sig):]
        elif signature_hits[i]:
            body = ATTACK_SIGNATURE + body[len(ATTACK_SIGNATURE):]
        payloads.append(body)
    return payloads


def generate_trace(profile: Optional[TrafficProfile] = None,
                   seed: int = 0) -> PacketTrace:
    """Generate a synthetic :class:`~repro.monitor.packet.PacketTrace`.

    Parameters
    ----------
    profile:
        Generation parameters; defaults to :class:`TrafficProfile`.
    seed:
        Seed for the NumPy random generator; identical seeds produce
        identical traces.
    """
    profile = profile if profile is not None else TrafficProfile()
    rng = np.random.default_rng(seed)
    external, local = _host_pools(profile, rng)
    ext_probs = _zipf_probabilities(len(external), profile.zipf_exponent)
    loc_probs = _zipf_probabilities(len(local), profile.zipf_exponent)

    starts = _flow_arrivals(profile, rng)
    n_flows = len(starts)
    if n_flows == 0:
        return PacketTrace(Batch.empty(with_payloads=profile.with_payloads),
                           name=profile.name)

    apps = profile.applications
    app_weights = np.array([a.weight for a in apps], dtype=np.float64)
    app_weights = app_weights / app_weights.sum()
    app_index = rng.choice(len(apps), size=n_flows, p=app_weights)

    # Per-flow attributes --------------------------------------------------
    flow_src = rng.choice(external, size=n_flows, p=ext_probs)
    flow_dst = rng.choice(local, size=n_flows, p=loc_probs)
    flow_dst_port = np.array([apps[i].dst_port for i in app_index],
                             dtype=np.uint16)
    flow_proto = np.array([apps[i].proto for i in app_index], dtype=np.uint8)
    flow_src_port = rng.integers(1024, 65535, size=n_flows).astype(np.uint16)
    flow_pkts = _flow_sizes(n_flows, app_index, profile, rng)
    flow_mean_size = np.array([apps[i].mean_packet_size for i in app_index])

    # Expand flows to packets ----------------------------------------------
    total_pkts = int(flow_pkts.sum())
    pkt_flow = np.repeat(np.arange(n_flows), flow_pkts)
    # Inter-packet gaps: exponential with per-flow mean so that the flow
    # roughly spans ``mean_flow_duration`` seconds.
    gap_mean = profile.mean_flow_duration / np.maximum(flow_pkts, 1)
    gaps = rng.exponential(1.0, size=total_pkts) * gap_mean[pkt_flow]
    # First packet of each flow starts exactly at the flow start time.
    first_of_flow = np.zeros(total_pkts, dtype=bool)
    first_of_flow[np.cumsum(flow_pkts)[:-1]] = True
    first_of_flow[0] = True
    gaps[first_of_flow] = 0.0
    # Cumulative sum of gaps within each flow.
    cum = np.cumsum(gaps)
    flow_offsets = np.concatenate(([0.0], cum[np.cumsum(flow_pkts)[:-1] - 1]))
    within_flow = cum - flow_offsets[pkt_flow]
    ts = starts[pkt_flow] + within_flow
    # Index of each packet within its flow (0 for the first packet).
    flow_first_index = np.concatenate(([0], np.cumsum(flow_pkts)[:-1]))
    within_flow_index = np.arange(total_pkts) - flow_first_index[pkt_flow]

    sizes = rng.normal(flow_mean_size[pkt_flow],
                       flow_mean_size[pkt_flow] * 0.35)
    sizes = np.clip(sizes, 40, 1514).astype(np.uint32)

    # Trim the drain-out tail: flows started near the end of the trace would
    # otherwise trickle packets for several extra seconds of near-empty bins,
    # which no real fixed-length capture would contain.
    keep = ts <= profile.duration
    ts, pkt_flow, sizes = ts[keep], pkt_flow[keep], sizes[keep]
    within_flow_index = within_flow_index[keep]
    if len(ts) == 0:
        return PacketTrace(Batch.empty(with_payloads=profile.with_payloads),
                           name=profile.name)

    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    pkt_flow = pkt_flow[order]
    sizes = sizes[order]
    within_flow_index = within_flow_index[order]

    payloads = None
    if profile.with_payloads:
        payloads = _make_payloads(sizes, flow_dst_port[pkt_flow],
                                  within_flow_index, profile, rng)

    packets = Batch(
        ts=ts,
        src_ip=flow_src[pkt_flow],
        dst_ip=flow_dst[pkt_flow],
        src_port=flow_src_port[pkt_flow],
        dst_port=flow_dst_port[pkt_flow],
        proto=flow_proto[pkt_flow],
        size=sizes,
        payloads=payloads,
    )
    return PacketTrace(packets, name=profile.name)


def trace_segments(profile: TrafficProfile, seed: int = 0,
                   segment_duration: float = 10.0) -> Iterator[Batch]:
    """The ``profile``'s packets, one ``segment_duration``-second segment
    at a time, each time-shifted to its position in the stream.

    Segment ``i`` is drawn from its own deterministic seed
    ``SeedSequence([seed, i])``, so only one segment is ever in memory and
    the same ``(profile, seed)`` always yields the same stream, however far
    it is read (``profile.duration`` may be infinite).  A segment without
    packets is yielded as it was drawn, empty.
    """
    offset = 0.0
    index = 0
    while offset < profile.duration:
        seg_len = min(segment_duration, profile.duration - offset)
        seg_seed = int(np.random.SeedSequence([int(seed), index])
                       .generate_state(1)[0])
        pkts = generate_trace(replace(profile, duration=seg_len),
                              seed=seg_seed).packets
        if len(pkts) > 0:
            pkts = Batch(ts=pkts.ts + offset, src_ip=pkts.src_ip,
                         dst_ip=pkts.dst_ip, src_port=pkts.src_port,
                         dst_port=pkts.dst_port, proto=pkts.proto,
                         size=pkts.size, payloads=pkts.payloads)
        yield pkts
        offset += segment_duration
        index += 1


def generate_trace_store(path: Union[str, Path],
                         profile: Optional[TrafficProfile] = None,
                         seed: int = 0,
                         segment_duration: float = 10.0,
                         time_bin: float = 0.1):
    """Synthesise a v2 trace store segment by segment, bounded in memory.

    :func:`generate_trace` materialises the whole trace, which caps the
    workloads it can produce at the host's RAM.  This driver appends the
    :func:`trace_segments` of the ``profile`` to a
    :class:`~repro.traffic.trace_io.TraceWriter`, so only one segment is
    ever in memory and a store of any size can be written.

    The packet stream is *not* sample-identical to
    ``generate_trace(profile, seed)`` (flows do not span segment
    boundaries and each segment consumes its own RNG stream); it is the
    same traffic model at unbounded scale, and identical inputs always
    regenerate an identical store.

    Returns the finished :class:`~repro.traffic.trace_io.TraceStore`.
    """
    from .trace_io import TraceWriter

    profile = profile if profile is not None else TrafficProfile()
    segment_duration = float(segment_duration)
    if segment_duration <= 0:
        raise ValueError("segment_duration must be positive")
    writer = TraceWriter(path, name=profile.name,
                         with_payloads=profile.with_payloads,
                         time_bin=time_bin)
    for segment in trace_segments(profile, seed, segment_duration):
        if len(segment) > 0:
            writer.append(segment)
    return writer.close()


def merge_traces(*traces: PacketTrace, name: str = "merged") -> PacketTrace:
    """Merge traces by interleaving their packets in timestamp order."""
    non_empty = [t for t in traces if len(t) > 0]
    if not non_empty:
        return PacketTrace(Batch.empty(), name=name)
    combined = Batch.concatenate([t.packets for t in non_empty])
    order = np.argsort(combined.ts, kind="stable")
    merged = combined.select(order)
    return PacketTrace(merged, name=name)
