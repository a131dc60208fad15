"""Run the monitoring daemon from the shell.

::

    # Replay a recorded store as a service, ops API on :8080
    python -m repro.serve trace_store/ --queries counter,flows --port 8080

    # Follow a store another process is writing, checkpoint every 100 bins
    python -m repro.serve capture_dir/ --feed tail \\
        --checkpoint-dir ckpt/ --checkpoint-every 100

    # Live synthetic traffic at real-time pace, forever
    python -m repro.serve --feed generate --pace 1 --duration inf

    # Resume a checkpointed run
    python -m repro.serve trace_store/ --restore ckpt/checkpoint.pkl

System flags (``--queries``, ``--mode``, ``--num-shards``, ...) are shared
with ``python -m repro.replay``; here they have no baked-in defaults so a
``--config config.json`` file provides the base and explicit flags
override it.  The daemon prints one line with the ops URL once the API is
bound, serves until the feed ends or SIGTERM arrives, then prints the
usual result summary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    from ..cli import add_backend_arg, add_system_args

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived monitoring daemon: ingest a live feed, "
                    "expose an HTTP ops API, checkpoint and restore.")
    parser.add_argument("source", nargs="?", default=None,
                        help="feed source: a trace/store path (replay, "
                             "tail) or HOST:PORT to listen on (socket)")
    parser.add_argument("--feed", default="replay",
                        choices=("replay", "tail", "generate", "socket"),
                        help="batch source type (default: %(default)s)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file with a full SystemConfig document; "
                             "explicit flags below override its fields")
    add_system_args(parser, with_defaults=False)
    add_backend_arg(parser)
    parser.add_argument("--cycles-per-second", type=float, default=None,
                        help="cycle capacity of the host (no calibration "
                             "pass in serve mode; measure offline or set "
                             "it in --config)")
    parser.add_argument("--pace", type=float, default=0.0,
                        help="wall-clock pacing as a multiple of real time "
                             "(0 = as fast as possible; 1 = real time)")
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        help="tail feed: seconds between manifest polls "
                             "(default: %(default)s)")
    parser.add_argument("--duration", type=float, default=None,
                        help="generate feed: seconds of traffic to "
                             "synthesise ('inf' accepted; default: the "
                             "profile's 30s)")
    parser.add_argument("--flow-arrival-rate", type=float, default=None,
                        help="generate feed: mean new flows per second")
    parser.add_argument("--host", default="127.0.0.1",
                        help="ops API bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8080,
                        help="ops API port, 0 picks a free one "
                             "(default: %(default)s)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write checkpoint.pkl here (periodically and "
                             "at shutdown)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="BINS",
                        help="checkpoint every N ingested bins "
                             "(0 = only at shutdown)")
    parser.add_argument("--rotate-dir", default=None, metavar="DIR",
                        help="append ingested traffic to v2 trace stores "
                             "under this directory")
    parser.add_argument("--rotate-every", type=int, default=600,
                        metavar="BINS",
                        help="start a new rotation segment every N bins "
                             "(default: %(default)s)")
    parser.add_argument("--restore", default=None, metavar="CKPT",
                        help="resume from a checkpoint file instead of "
                             "starting a fresh session")
    parser.add_argument("--max-bins", type=int, default=None,
                        help="stop after ingesting this many bins")
    parser.add_argument("--name", default="serve",
                        help="session/daemon name (default: %(default)s)")
    return parser


def _build_feed(args, time_bin: float):
    from .feeds import GeneratorFeed, ReplayFeed, SocketFeed, TailFeed

    if args.feed in ("replay", "tail") and args.source is None:
        raise SystemExit(f"error: --feed {args.feed} needs a source path")
    if args.feed == "replay":
        return ReplayFeed(args.source, time_bin=time_bin, pace=args.pace)
    if args.feed == "tail":
        return TailFeed(args.source, time_bin=time_bin,
                        poll_interval=args.poll_interval)
    if args.feed == "generate":
        from dataclasses import replace

        from ..traffic.generator import TrafficProfile
        profile = TrafficProfile()
        if args.duration is not None:
            profile = replace(profile, duration=args.duration)
        if args.flow_arrival_rate is not None:
            profile = replace(profile,
                              flow_arrival_rate=args.flow_arrival_rate)
        return GeneratorFeed(profile, seed=args.seed or 0,
                             time_bin=time_bin, pace=args.pace,
                             max_bins=args.max_bins)
    # socket: source is HOST:PORT (default loopback, ephemeral port)
    host, port = "127.0.0.1", 0
    if args.source:
        host, _, port_text = args.source.rpartition(":")
        host = host or "127.0.0.1"
        port = int(port_text)
    return SocketFeed(host=host, port=port, time_bin=time_bin)


def main(argv: Optional[List[str]] = None) -> int:
    from ..experiments import runner
    from ..monitor.config import SystemConfig
    from ..cli import apply_system_args
    from .checkpoint import (CheckpointCorruptError, CheckpointVersionError,
                             restore_session)
    from .daemon import MonitorDaemon

    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = SystemConfig.from_dict(
                json.loads(Path(args.config).read_text()))
        else:
            config = runner.system_config()
        config = apply_system_args(config, args)
        if args.cycles_per_second is not None:
            config = config.replace(
                cycles_per_second=args.cycles_per_second)
        if config.queries is None and args.restore is None:
            raise ValueError("no query mix: pass --queries, or a --config "
                             "whose document carries 'queries'")
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    session = None
    if args.restore is not None:
        try:
            session = restore_session(args.restore,
                                      n_workers=args.n_workers or 1,
                                      backend=args.backend)
        except (CheckpointCorruptError, CheckpointVersionError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"restored {type(session).__name__} at bin "
              f"{session.bins_ingested} from {args.restore}", flush=True)

    time_bin = args.time_bin if args.time_bin is not None else \
        (session.time_bin if session is not None else 0.1)
    feed = _build_feed(args, time_bin)

    # A restored session already carries its execution's config; the
    # flag-built one only applies to fresh sessions.
    daemon = MonitorDaemon(
        None if session is not None else config, feed,
        host=args.host, port=args.port,
        n_workers=args.n_workers or 1, backend=args.backend,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_bins=args.checkpoint_every,
        rotate_dir=args.rotate_dir, rotate_every_bins=args.rotate_every,
        name=args.name, session=session, max_bins=args.max_bins)

    async def _serve():
        task = asyncio.ensure_future(daemon.run())
        # Give the API a beat to bind, then announce the ops URL.
        while daemon.bound_port == 0 and not task.done():
            await asyncio.sleep(0.01)
        if not task.done():
            print(f"serving ops API on "
                  f"http://{args.host}:{daemon.bound_port}", flush=True)
        return await task

    result = asyncio.run(_serve())
    print(f"served {len(result.bins)} bins: dropped "
          f"{result.dropped_packets:,}/{result.total_packets:,} packets "
          f"({result.drop_fraction:.1%}), mode={result.mode}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
