#!/usr/bin/env python3
"""Live feeds: tail a store another process writes, bin JSON off a socket.

A monitor in production is fed by a capture, not by a finished trace.
``repro.serve`` has two live feeds, and both are exact by construction —
the bins they deliver are the bins a replay of the same packets cuts:

1. ``TailFeed`` follows a v2 trace store while a writer is still appending
   to it: the writer publishes what it has with ``TraceWriter.flush()``,
   and the feed releases only the bins that can no longer gain a packet.
2. ``SocketFeed`` accepts newline-delimited JSON packet records over TCP
   (addresses as integers or dotted quads) and bins them on the same grid.

The socket daemon also records everything it ingests (``rotate_dir``), so
the capture can be replayed offline afterwards.  The shell equivalents::

    python -m repro.serve capture/ --feed tail --queries counter,flows ...
    python -m repro.serve 127.0.0.1:9999 --feed socket --rotate-dir rec ...
"""

import asyncio
import json
import socket
import tempfile
import threading
import time
from pathlib import Path

from repro.experiments import runner
from repro.monitor.packet import format_ip
from repro.serve import MonitorDaemon, SocketFeed, TailFeed
from repro.traffic import TraceStore, TraceWriter, TrafficProfile
from repro.traffic.generator import generate_trace

TIME_BIN = 0.1
CONFIG = runner.system_config(mode="predictive", queries="counter,flows",
                              cycles_per_second=2e7, seed=3)


def serve(daemon):
    """Run ``daemon`` on a thread of its own; return the thread."""
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()))
    thread.start()
    return thread


def tail_a_growing_store(trace, workdir: Path) -> None:
    store_path = workdir / "capture"
    daemon = MonitorDaemon(
        CONFIG, TailFeed(store_path, time_bin=TIME_BIN, poll_interval=0.02),
        name="tail")
    thread = serve(daemon)
    # The capture process: one chronological chunk a second of traffic,
    # each published with flush() while the store stays open.
    packets = trace.packets
    with TraceWriter(store_path, name="capture") as writer:
        for start in range(int(trace.duration) + 1):
            chunk = packets.select((packets.ts >= start)
                                   & (packets.ts < start + 1))
            writer.append(chunk)
            writer.flush()
            time.sleep(0.05)
    thread.join()
    replayed = CONFIG.build().run(TraceStore(store_path))
    print(f"tail:   {len(daemon.result.bins)} bins followed while the store "
          f"grew; a replay of the finished store cuts "
          f"{len(replayed.bins)}, counting the same "
          f"{replayed.total_packets:,} packets: "
          f"{daemon.result.total_packets == replayed.total_packets}")


def listen_on_a_socket(trace, workdir: Path) -> None:
    feed = SocketFeed(port=0, time_bin=TIME_BIN)
    daemon = MonitorDaemon(CONFIG, feed, rotate_dir=workdir / "recorded",
                           rotate_every_bins=20, name="socket")
    thread = serve(daemon)
    while feed.bound_port == 0:
        time.sleep(0.01)
    packets = trace.packets
    lines = [json.dumps({"ts": float(packets.ts[i]),
                         "src_ip": format_ip(int(packets.src_ip[i])),
                         "dst_ip": int(packets.dst_ip[i]),
                         "src_port": int(packets.src_port[i]),
                         "dst_port": int(packets.dst_port[i]),
                         "proto": int(packets.proto[i]),
                         "size": int(packets.size[i])})
             for i in range(len(packets))]
    lines.insert(len(lines) // 2, "not json")
    with socket.create_connection(("127.0.0.1", feed.bound_port)) as client:
        client.sendall(("\n".join(lines) + "\n").encode())
    # Wait until the records stop arriving, then end the feed: stop()
    # flushes the partial last bin.
    seen = None
    while seen != (feed.malformed_lines, daemon.status()["packets"]):
        seen = (feed.malformed_lines, daemon.status()["packets"])
        time.sleep(0.2)
    feed.stop()
    thread.join()
    segments = sorted((workdir / "recorded").iterdir())
    recorded = sum(len(TraceStore(segment)) for segment in segments)
    print(f"socket: {len(daemon.result.bins)} bins from "
          f"{daemon.result.total_packets:,} records "
          f"({feed.malformed_lines} malformed line skipped); recorded into "
          f"{len(segments)} segments holding {recorded:,} packets")


def main() -> None:
    trace = generate_trace(TrafficProfile(duration=3.0,
                                          flow_arrival_rate=150.0,
                                          name="live"), seed=5)
    print(f"Live traffic: {len(trace):,} packets over "
          f"{trace.duration:.1f} s")
    with tempfile.TemporaryDirectory(prefix="repro-feeds-") as tmp:
        tail_a_growing_store(trace, Path(tmp))
        listen_on_a_socket(trace, Path(tmp))


if __name__ == "__main__":
    main()
