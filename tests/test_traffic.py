"""Tests for the synthetic traffic generator, anomalies and trace I/O."""

import numpy as np
import pytest

from repro.monitor.packet import PROTO_TCP
from repro.traffic import (AnomalyWindow, TrafficProfile, ddos_attack,
                           flow_spike, generate_trace, inject, load_preset,
                           load_trace, merge_traces, save_trace, syn_flood,
                           trace_profile)
from repro.traffic.generator import P2P_SIGNATURES


class TestGenerator:
    def test_deterministic_given_seed(self):
        profile = TrafficProfile(duration=2.0, flow_arrival_rate=100.0)
        a = generate_trace(profile, seed=42)
        b = generate_trace(profile, seed=42)
        assert len(a) == len(b)
        assert np.array_equal(a.packets.ts, b.packets.ts)

    def test_different_seeds_differ(self):
        profile = TrafficProfile(duration=2.0, flow_arrival_rate=100.0)
        a = generate_trace(profile, seed=1)
        b = generate_trace(profile, seed=2)
        assert len(a) != len(b) or not np.array_equal(a.packets.ts, b.packets.ts)

    def test_timestamps_sorted_and_bounded(self):
        profile = TrafficProfile(duration=3.0, flow_arrival_rate=120.0)
        trace = generate_trace(profile, seed=5)
        ts = trace.packets.ts
        assert np.all(np.diff(ts) >= 0)
        assert ts.max() <= profile.duration + 1e-9

    def test_traffic_volume_scales_with_rate(self):
        low = generate_trace(TrafficProfile(duration=3.0,
                                            flow_arrival_rate=50.0), seed=1)
        high = generate_trace(TrafficProfile(duration=3.0,
                                             flow_arrival_rate=400.0), seed=1)
        assert len(high) > 3 * len(low)

    def test_payload_generation(self):
        profile = TrafficProfile(duration=2.0, flow_arrival_rate=120.0,
                                 with_payloads=True)
        trace = generate_trace(profile, seed=9)
        assert trace.packets.has_payloads
        assert len(trace.packets.payloads) == len(trace)
        p2p_payloads = sum(
            1 for p in trace.packets.payloads
            if any(sig in p for sig in P2P_SIGNATURES))
        assert p2p_payloads > 0

    def test_application_mix_ports_present(self):
        trace = generate_trace(TrafficProfile(duration=3.0), seed=3)
        ports = set(np.unique(trace.packets.dst_port).tolist())
        assert 80 in ports and 53 in ports

    def test_empty_duration(self):
        trace = generate_trace(TrafficProfile(duration=0.05,
                                              flow_arrival_rate=0.1), seed=1)
        assert len(trace) >= 0  # must not raise


class TestPresets:
    def test_named_presets_load(self):
        trace = load_preset("CESCA-I", seed=1, duration=1.0)
        assert len(trace) > 0
        assert trace.name == "CESCA-I"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            trace_profile("NOT-A-TRACE")

    def test_override(self):
        profile = trace_profile("CESCA-II", duration=2.0,
                                flow_arrival_rate=10.0)
        assert profile.duration == 2.0
        assert profile.flow_arrival_rate == 10.0
        assert profile.with_payloads


class TestAnomalies:
    def test_ddos_targets_single_destination(self):
        attack = ddos_attack(AnomalyWindow(1.0, 2.0), packets_per_second=500.0)
        assert len(np.unique(attack.packets.dst_ip)) == 1
        assert len(np.unique(attack.packets.src_ip)) > 100

    def test_syn_flood_small_packets(self):
        attack = syn_flood(AnomalyWindow(0.0, 1.0), packets_per_second=1000.0)
        assert attack.packets.size.max() <= 64
        assert np.all(attack.packets.proto == PROTO_TCP)

    def test_flow_spike_many_flows(self):
        attack = flow_spike(AnomalyWindow(0.0, 1.0), flows_per_second=1000.0)
        assert len(np.unique(attack.packets.src_port)) > 300

    def test_on_off_attack_has_gaps(self):
        attack = ddos_attack(AnomalyWindow(0.0, 4.0), packets_per_second=500.0,
                             on_off_period=2.0)
        ts = attack.packets.ts
        # No packets should fall in the "off" half-periods.
        phase = np.mod(ts, 2.0)
        assert np.all(phase <= 1.0 + 1e-9)

    def test_window_end(self):
        window = AnomalyWindow(start=3.0, duration=2.0)
        assert window.end == 5.0

    def test_inject_sorted_and_complete(self, small_trace):
        attack = ddos_attack(AnomalyWindow(1.0, 1.0), packets_per_second=300.0)
        merged = inject(small_trace, attack)
        assert len(merged) == len(small_trace) + len(attack)
        assert np.all(np.diff(merged.packets.ts) >= 0)

    def test_inject_preserves_payload_completeness(self, payload_trace_small):
        attack = ddos_attack(AnomalyWindow(1.0, 1.0), packets_per_second=200.0)
        merged = inject(payload_trace_small, attack)
        assert merged.packets.has_payloads
        assert len(merged.packets.payloads) == len(merged)


class TestMergeAndIO:
    def test_merge_empty(self):
        from repro.monitor.packet import Batch, PacketTrace
        merged = merge_traces(PacketTrace(Batch.empty()))
        assert len(merged) == 0

    def test_save_load_roundtrip(self, tmp_path, small_trace):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(small_trace)
        assert np.array_equal(loaded.packets.ts, small_trace.packets.ts)
        assert np.array_equal(loaded.packets.src_ip, small_trace.packets.src_ip)
        assert loaded.name == small_trace.name

    def test_save_load_payloads(self, tmp_path, payload_trace_small):
        path = tmp_path / "payload.npz"
        save_trace(payload_trace_small, path)
        loaded = load_trace(path)
        assert loaded.packets.payloads[:10] == \
            payload_trace_small.packets.payloads[:10]
