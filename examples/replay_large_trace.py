#!/usr/bin/env python3
"""Out-of-core replay: synthesise a trace store chunk-wise, stream it back.

``MonitoringSystem.run(trace)`` needs the whole trace in memory, which caps
an experiment at the host's RAM.  This example never holds the trace: it
writes a v2 trace store segment by segment (``generate_trace_store`` keeps
only the current segment alive), then replays it through the full
predict/shed pipeline with ``config.build().run(streaming)`` — each bin is
read from its row range of the column files and freed when the pipeline is
done with it, so peak memory stays flat no matter how long the trace is.  Scale
``DURATION`` up to multi-hour, multi-GB workloads; the mechanics are
identical.
"""

import tempfile
from pathlib import Path

from repro.experiments import runner
from repro.monitor.sharding import build_system
from repro.profile import peak_rss_mb
from repro.traffic import generate_trace_store, open_trace
from repro.traffic.generator import TrafficProfile

DURATION = 20.0          # seconds of traffic; raise freely, RAM stays flat
SEGMENT = 2.5            # seconds generated (and held) at a time
QUERY_SET = ("counter", "flows", "top-k")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-store-"))
    profile = TrafficProfile(duration=DURATION, flow_arrival_rate=400.0,
                             name="large-synthetic")

    # 1. Write the store chunk-at-a-time: only one SEGMENT is ever in RAM.
    store = generate_trace_store(workdir / "store", profile, seed=7,
                                 segment_duration=SEGMENT)
    size_mb = sum(f.stat().st_size for f in store.path.iterdir()) / 1e6
    print(f"Wrote {store.path}: {store.num_packets:,} packets "
          f"({size_mb:.1f} MB on disk, {int(DURATION / SEGMENT)} segments)")

    # 2. Reopen it (open_trace dispatches on the format) and build the
    #    streaming view; only the manifest has been read so far.
    streaming = open_trace(store.path).streaming()
    print(f"Streaming view: {streaming.num_batches(0.1)} bins, "
          f"peak resident set before replay {peak_rss_mb():.1f} MB")

    # 3. Calibrate and replay out-of-core through the full pipeline.
    capacity, _ = runner.calibrate_capacity(QUERY_SET, streaming)
    config = runner.system_config(queries=QUERY_SET,
                                  cycles_per_second=capacity * 0.5, seed=1)
    result = config.build().run(streaming)
    print(f"\nSerial replay: {len(result.bins)} bins, dropped "
          f"{result.dropped_packets:,}/{result.total_packets:,} packets, "
          f"mean sampling rate {result.mean_sampling_rate():.2f}")
    print(f"Peak resident set after two passes over the store: "
          f"{peak_rss_mb():.1f} MB")

    # 4. The same store through four flow-affine shards, still out-of-core.
    merged = build_system(config.replace(num_shards=4)).run(streaming)
    print(f"\nSharded x4 replay: {len(merged.bins)} bins, dropped "
          f"{merged.dropped_packets:,} packets, peak resident set "
          f"{peak_rss_mb():.1f} MB")


if __name__ == "__main__":
    main()
