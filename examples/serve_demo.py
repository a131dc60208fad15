#!/usr/bin/env python3
"""Run the monitor as a service: live feed, HTTP ops, checkpoint/restore.

``repro.serve`` wraps a streaming session in a long-lived daemon: batches
arrive from a feed (here: synthetic traffic generated on the fly), an
HTTP ops API serves status/metrics and accepts live reconfiguration, and
the whole session state checkpoints to disk and restores bit-identically.

This demo drives the daemon exactly like an operator would — over HTTP:

1. start a daemon on an ephemeral port, fed by a ``GeneratorFeed``;
2. poll ``GET /status``, scrape ``GET /metrics`` (Prometheus text);
3. hot-add a top-k query with ``POST /queries`` mid-stream;
4. snapshot the session with ``POST /checkpoint``;
5. cut the capacity (``POST /capacity``), hot-reload it through
   ``POST /config``, remove a query (``DELETE /queries/flows``) and read
   the partial result (``GET /result``);
6. shut down gracefully, read the checkpoint's summary without thawing it
   (``describe_checkpoint``), and restore it into a fresh in-process
   session, proving the resumed state is usable.

The same flow works from a shell against ``python -m repro.serve``::

    python -m repro.serve --feed generate --port 8080 \
        --queries counter,flows --cycles-per-second 2e7 &
    curl localhost:8080/status
    curl -X POST localhost:8080/queries -d '{"kind": "top-k"}'
    curl localhost:8080/metrics
    kill -TERM %1   # graceful: drain, checkpoint, close
"""

import asyncio
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.experiments import runner
from repro.serve import (GeneratorFeed, MonitorDaemon, describe_checkpoint,
                         restore_session)
from repro.traffic.generator import TrafficProfile

CAPACITY = 2.0e7
TIME_BIN = 0.1


def http(method, port, path, document=None):
    data = json.dumps(document).encode() if document is not None else None
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                 data=data, method=method)
    with urllib.request.urlopen(req, timeout=10) as resp:
        body = resp.read()
    return body.decode() if path == "/metrics" else json.loads(body)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        serve(Path(tmp))


def serve(checkpoint_dir: Path) -> None:
    """Run the demo, checkpointing under ``checkpoint_dir``."""
    profile = TrafficProfile(duration=6.0, flow_arrival_rate=200.0,
                             name="serve-demo")
    config = runner.system_config(mode="predictive",
                                  queries="counter,flows",
                                  cycles_per_second=CAPACITY, seed=7)
    # Live traffic arrives in real time (pace=1): unpaced, the feed could
    # run dry, and the daemon and its API go with it, before the operator
    # below is done.
    daemon = MonitorDaemon(
        config, GeneratorFeed(profile, seed=7, time_bin=TIME_BIN, pace=1.0),
        checkpoint_dir=checkpoint_dir, name="demo")

    # The daemon owns an asyncio loop; run it on a thread so this script
    # can play the operator from the outside, over plain HTTP.
    thread = threading.Thread(target=lambda: asyncio.run(daemon.run()))
    thread.start()
    while daemon.bound_port == 0:
        time.sleep(0.01)
    port = daemon.bound_port
    print(f"daemon up: http://127.0.0.1:{port}")

    while http("GET", port, "/status")["bins_ingested"] < 20:
        time.sleep(0.02)
    status = http("GET", port, "/status")
    print(f"status: {status['bins_ingested']} bins, "
          f"{status['packets']:,} packets, "
          f"queries {sorted(status['queries'])}")

    added = http("POST", port, "/queries",
                 {"kind": "top-k", "kwargs": {"k": 10}})
    print(f"hot-added query {added['added']!r} (applies next bin)")

    ckpt = http("POST", port, "/checkpoint")
    print(f"checkpointed at bin {ckpt['bins_ingested']} "
          f"-> {ckpt['checkpoint']}")
    # Graceful shutdown writes a final checkpoint over the same file, so
    # keep the mid-stream snapshot under its own name.
    snapshot = checkpoint_dir / "mid-stream.pkl"
    snapshot.write_bytes(Path(ckpt["checkpoint"]).read_bytes())

    http("POST", port, "/capacity", {"cycles_per_second": CAPACITY * 0.5})
    http("POST", port, "/config", {"cycles_per_second": CAPACITY * 0.8})
    removed = http("DELETE", port, "/queries/flows")
    partial = http("GET", port, "/result")
    print(f"capacity cut to 50%, reloaded at 80%; removed "
          f"{removed['removed']!r}; partial result: {partial['bins']} bins, "
          f"{len(partial['query_logs']['counter']['results'])} counter "
          f"intervals")

    metrics = http("GET", port, "/metrics")
    shown = [line for line in metrics.splitlines()
             if line.startswith(("repro_bins", "repro_packets",
                                 "repro_dropped"))]
    print("metrics sample:")
    for line in shown:
        print(f"  {line}")

    http("POST", port, "/shutdown")
    thread.join()
    result = daemon.result
    print(f"final result: {len(result.bins)} bins, dropped "
          f"{result.dropped_packets:,}/{result.total_packets:,} "
          f"({result.drop_fraction:.1%}), "
          f"queries {sorted(result.query_logs)}")

    # Restore the mid-stream checkpoint into a fresh session and keep
    # going by hand — the resumed session carries the pending top-k add.
    meta = describe_checkpoint(snapshot)
    print(f"checkpoint summary: {meta['kind']} session, "
          f"{meta['bins_ingested']} bins, queries {meta['query_names']}")
    restored = restore_session(snapshot)
    print(f"restored session at bin {restored.bins_ingested}; "
          f"resuming in-process...")

    async def regenerate():  # the same deterministic stream, offline
        feed = GeneratorFeed(profile, seed=7, time_bin=TIME_BIN)
        return [batch async for batch in feed.batches()]

    for batch in asyncio.run(regenerate())[restored.bins_ingested:]:
        restored.ingest(batch)
    resumed = restored.close()
    print(f"resumed result: {len(resumed.bins)} bins, "
          f"queries {sorted(resumed.query_logs)}")
    assert "top-k" in resumed.query_logs


if __name__ == "__main__":
    main()
