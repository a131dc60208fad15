"""``repro.serve`` — run the monitoring system as a long-lived service.

The offline pipeline answers "what would the load shedder have done on
this trace"; this package answers "run it, now, on traffic as it
arrives".  It glues the existing streaming sessions to four pieces of
service machinery, all stdlib-only:

:mod:`~repro.serve.feeds`
    Async batch sources: trace replay (optionally wall-clock paced),
    tailing a v2 store another process is still writing, live synthetic
    traffic, and a JSONL TCP listener.
:mod:`~repro.serve.daemon`
    :class:`MonitorDaemon` — owns the session, ingests the feed, rotates
    traces, checkpoints, and shuts down gracefully on SIGTERM.
:mod:`~repro.serve.api`
    The HTTP ops surface: status, Prometheus ``/metrics``, live query
    add/remove, capacity and config hot-reload, checkpoint-now.
:mod:`~repro.serve.checkpoint`
    Versioned on-disk snapshots that restore to a bit-identically
    resuming session.

Start one from the command line::

    python -m repro.serve trace_store/ --queries counter,flows --port 8080
    python -m repro.serve --restore ckpt/checkpoint.pkl --feed tail --source ...

or in code::

    from repro.serve import GeneratorFeed, MonitorDaemon
    daemon = MonitorDaemon(config, GeneratorFeed(profile, seed=1))
    result = asyncio.run(daemon.run())
"""

from .api import OpsError, OpsServer, render_metrics
from .checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointVersionError,
    capture,
    describe_checkpoint,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from .daemon import MonitorDaemon
from .feeds import Feed, GeneratorFeed, ReplayFeed, SocketFeed, TailFeed

__all__ = [
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "Feed",
    "GeneratorFeed",
    "MonitorDaemon",
    "OpsError",
    "OpsServer",
    "ReplayFeed",
    "SocketFeed",
    "TailFeed",
    "capture",
    "describe_checkpoint",
    "load_checkpoint",
    "render_metrics",
    "restore_session",
    "save_checkpoint",
]
