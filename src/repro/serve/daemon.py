"""The long-lived monitoring daemon: feed in, ops API out.

:class:`MonitorDaemon` turns the push-based session machinery into a
service.  It owns one session (:class:`~repro.monitor.session.
MonitoringSession` or a :class:`~repro.monitor.sharding.ShardedSession`
on any backend), pulls batches from a :class:`~repro.serve.feeds.Feed`
on the asyncio event loop, and exposes the live-control surface the
sessions already had — query arrivals and departures, capacity changes,
partial results — over the HTTP ops API (:mod:`repro.serve.api`),
plus the two things only a daemon needs: periodic checkpoints
(:mod:`repro.serve.checkpoint`) and optional rotation of the ingested
traffic into v2 trace stores for post-hoc analysis.

Concurrency model: one session thread, and one lock for the ops.  Each
:meth:`run` starts a single-worker executor of its own and joins it on
the way out.  Every chunk of queued bins and the final shutdown run on
it, and so do the checkpoints written inside them, so all of the
session's work happens on one thread: NumPy releases the GIL for the
heavy parts, so the event loop and the ops API stay responsive, and one
thread allocates the session's memory (every thread that allocates may
keep freed memory in an allocator arena of its own).  Ops requests run on
the loop's default executor, and every session-touching step — a bin's
ingest, reconfiguration, snapshot, checkpoint — holds ``self._lock``, so
ops always observe the session *between* bins, which is exactly the
bin-boundary semantics the sessions define anyway.

Shutdown is graceful by design: SIGTERM (or :meth:`stop`, or ``POST
/shutdown``) stops the feed, the in-flight bin completes, trace rotation
flushes, a final checkpoint is written, the session closes (worker pools
and all), and :meth:`run` returns the final
:class:`~repro.monitor.system.ExecutionResult` — the same object an
offline run would have produced.  When the session itself fails (a shard
worker died, a query raised) the daemon still releases what it owns — the
rotated segment is closed and readable, no worker process or descriptor
of a worker slot is left behind — skips the checkpoint of the broken session, and
:meth:`run` raises the session's own error.  Why it is shutting down is
logged on ``repro.serve.daemon``.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..monitor.config import SystemConfig
from ..monitor.session import MonitoringSession
from ..monitor.sharding import ShardedSession, build_system
from ..monitor.system import ExecutionResult
from ..queries import parse_query_specs
from ..traffic.trace_io import TraceWriter
from .api import OpsError, OpsServer
from .checkpoint import save_checkpoint
from .feeds import Feed

__all__ = ["MonitorDaemon"]

#: The components of a bin's cycles (``repro_cycles_total``), and the
#: result columns they are read from.
_CYCLE_COMPONENTS = (("queries", "query_cycles"),
                     ("prediction", "prediction_overhead"),
                     ("shedding", "shedding_overhead"),
                     ("system", "system_overhead"))

logger = logging.getLogger("repro.serve.daemon")

#: Config fields that can change while the session is running.  Everything
#: else (mode, strategy, predictor, sharding layout, ...) is baked into
#: per-execution state and needs a restart (or a checkpoint/restore cycle).
LIVE_CONFIG_FIELDS = ("cycles_per_second",)

#: Ingest batching: up to this many queued bins ride one executor offload.
#: Each bin still locks individually inside the chunk, so ops requests keep
#: their between-bins view; the chunk only amortises the event-loop round
#: trip per bin, which dominated daemon overhead on dense feeds.
_INGEST_CHUNK = 8
#: Bound on the feed-to-ingest handoff queue (bins).
_INGEST_QUEUE_BINS = 32


class MonitorDaemon:
    """One monitoring session, one feed, one ops API, run as a service.

    Parameters
    ----------
    config:
        Full :class:`SystemConfig` including a declarative ``queries``
        mix.  When ``session`` is given (a checkpoint restore), may be
        ``None`` — the session's own config is used.
    feed:
        The :class:`~repro.serve.feeds.Feed` to ingest.
    host, port:
        Ops API bind address (port 0 picks a free port; see
        :attr:`bound_port`).
    n_workers, respect_cores, backend:
        Shard execution, as in
        :class:`~repro.monitor.sharding.ShardedSystem`.
    checkpoint_dir, checkpoint_every_bins:
        Write ``checkpoint.pkl`` into ``checkpoint_dir`` every N bins
        (0 = only at shutdown) — plus always once at shutdown.
    rotate_dir, rotate_every_bins:
        Append every ingested batch to a v2 trace store under
        ``rotate_dir``, starting a new ``segment-NNNNNN`` store every N
        bins.
    session:
        A restored session to resume instead of building a fresh one.  Feed
        bins that start before its next bin boundary are already in its
        result, so the daemon skips them (and logs that once): resuming a
        replay from the start of its store ingests each bin once.
    reference:
        Optional reference :class:`ExecutionResult` for the same traffic;
        when given, ``/status`` reports accuracy-so-far per query.
    max_bins:
        Stop after ingesting this many bins (soak-test horizon).
    """

    def __init__(self, config: Optional[SystemConfig], feed: Feed, *,
                 host: str = "127.0.0.1", port: int = 0,
                 n_workers: int = 1, respect_cores: bool = True,
                 backend: str = "auto",
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 checkpoint_every_bins: int = 0,
                 rotate_dir: Optional[Union[str, Path]] = None,
                 rotate_every_bins: int = 600,
                 name: str = "serve",
                 session: Optional[Union[MonitoringSession,
                                         ShardedSession]] = None,
                 reference: Optional[ExecutionResult] = None,
                 max_bins: Optional[int] = None) -> None:
        self.feed = feed
        self.name = name
        self.n_workers = int(n_workers)
        self.respect_cores = bool(respect_cores)
        self.reference = reference
        self.max_bins = max_bins if max_bins is None else int(max_bins)
        self.checkpoint_dir = (None if checkpoint_dir is None
                               else Path(checkpoint_dir))
        self.checkpoint_every_bins = int(checkpoint_every_bins)
        self.rotate_dir = None if rotate_dir is None else Path(rotate_dir)
        self.rotate_every_bins = int(rotate_every_bins)
        if self.rotate_every_bins < 1:
            raise ValueError("rotate_every_bins must be >= 1")

        if session is None:
            if config is None:
                raise ValueError("MonitorDaemon needs a config (or a "
                                 "restored session)")
            if config.queries is None:
                raise ValueError(
                    "a daemon's config must carry a declarative 'queries' "
                    "mix (e.g. SystemConfig(queries='counter,flows')) — "
                    "query instances cannot be reconstructed at restore")
            session = build_system(
                config, n_workers=self.n_workers,
                respect_cores=self.respect_cores,
                backend=backend).open_session(
                    time_bin=self.feed.time_bin, name=self.name)
            held = []
        else:
            if config is None:
                config = session.sharded.config \
                    if isinstance(session, ShardedSession) \
                    else session.system.config
            held = session.partial_result().bins
        self.config = config
        self.session = session
        #: Feed bins starting before this are in the session already (half
        #: a bin short of its next boundary, so rounding of bin starts
        #: cannot decide); ``None`` once the feed has caught up.
        self._resume_before: Optional[float] = None
        if held:
            self._resume_before = held[-1].start_ts + session.time_bin / 2
            logger.info("daemon %r resumes a session that ends at bin %d: "
                        "skipping the feed's bins before t=%.6g s", name,
                        session.bins_ingested,
                        held[-1].start_ts + session.time_bin)

        self._api = OpsServer(self, host=host, port=port)
        self._lock = threading.Lock()
        self._stopping = False
        #: What ``session.ingest`` raised, if it did: the session is broken.
        self._session_error: Optional[BaseException] = None
        self._started_monotonic: Optional[float] = None
        self._started_unix: Optional[float] = None
        self.result: Optional[ExecutionResult] = None

        self._checkpoints_written = 0
        self.checkpoint_path: Optional[Path] = None
        #: ``(bins_ingested, snapshot)`` cache for the read-side ops: the
        #: session only changes when a bin lands, so polls between bins can
        #: reuse the same snapshot instead of re-copying the logs (and, on
        #: the workers backend, re-crossing the worker sockets) per request.
        self._partial_cache: Optional[tuple] = None

        # Trace rotation state.
        self._writer: Optional[TraceWriter] = None
        self._writer_bins = 0
        self._rotated_segments = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The ops API port actually bound (after :meth:`run` starts)."""
        return self._api.bound_port

    @property
    def bins_ingested(self) -> int:
        return self.session.bins_ingested

    @property
    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # The ingest loop
    # ------------------------------------------------------------------
    async def run(self) -> ExecutionResult:
        """Serve until the feed ends or the daemon is stopped.

        Starts the ops API, installs signal handlers, streams the feed
        through the session one bin at a time on the daemon's session
        thread, and on the way out writes a final checkpoint, flushes trace
        rotation and closes the session there, then joins the thread.
        Returns the final merged :class:`ExecutionResult`.
        """
        loop = asyncio.get_running_loop()
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        await self._api.start()
        queue: asyncio.Queue = asyncio.Queue(maxsize=_INGEST_QUEUE_BINS)
        sentinel = object()

        async def pump() -> None:
            async for batch in self.feed.batches():
                await queue.put(batch)
            await queue.put(sentinel)

        pump_task = asyncio.ensure_future(pump())
        session_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{self.name}-session")
        reason = "feed ended"
        try:
            done = False
            while not done and not self._stopping:
                batch = await queue.get()
                if batch is sentinel:
                    break
                chunk = [batch]
                # Drain whatever else is already queued (bounded): one
                # executor round trip then covers the whole chunk.
                while len(chunk) < _INGEST_CHUNK:
                    try:
                        extra = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is sentinel:
                        done = True
                        break
                    chunk.append(extra)
                await loop.run_in_executor(session_thread,
                                           self._ingest_chunk, chunk)
                if (self.max_bins is not None
                        and self.bins_ingested >= self.max_bins):
                    reason = "max_bins reached"
                    break
        except Exception as error:
            logger.error("daemon %r is shutting down: %s: %s: %s", self.name,
                         "session failed" if self._session_error is not None
                         else "ingest failed", type(error).__name__, error)
            raise
        else:
            logger.info("daemon %r is shutting down: %s", self.name,
                        "stop requested" if self._stopping else reason)
        finally:
            pump_task.cancel()
            try:
                await pump_task
            except asyncio.CancelledError:
                pass
            for signum in installed:
                loop.remove_signal_handler(signum)
            self.feed.stop()
            try:
                await self._api.stop()
                await loop.run_in_executor(session_thread, self._shutdown)
            finally:
                session_thread.shutdown()
        return self.result

    def stop(self) -> None:
        """Begin a graceful shutdown (signal-handler and ops-API safe)."""
        self._stopping = True
        self.feed.stop()

    def _ingest_chunk(self, batches) -> None:
        """Ingest several queued bins in one hop to the session thread."""
        for batch in batches:
            if self._stopping:
                break
            self._ingest_one(batch)
            if (self.max_bins is not None
                    and self.bins_ingested >= self.max_bins):
                break

    def _ingest_one(self, batch) -> None:
        with self._lock:
            if self.session.closed or self._skips(batch):
                return
            try:
                self.session.ingest(batch)
            except BaseException as error:
                self._session_error = error
                raise
            if self.rotate_dir is not None:
                self._rotate_append(batch)
            if (self.checkpoint_dir is not None
                    and self.checkpoint_every_bins > 0
                    and self.bins_ingested % self.checkpoint_every_bins == 0):
                self._checkpoint_locked()

    def _skips(self, batch) -> bool:
        """Whether ``batch`` is a bin the restored session already holds."""
        if self._resume_before is not None \
                and batch.start_ts < self._resume_before:
            return True
        self._resume_before = None
        return False

    def _shutdown(self) -> None:
        """Release what the daemon owns, whatever state the session is in."""
        with self._lock:
            try:
                if self._writer is not None:
                    self._writer.close()
                    self._writer = None
            finally:
                error = self._session_error
                if error is not None:
                    # A broken session has nothing to checkpoint or close;
                    # it is left the way a failed ``with`` block leaves it,
                    # which stops the workers it may still have.
                    self.session.__exit__(type(error), error,
                                          error.__traceback__)
                else:
                    if not self.session.closed \
                            and self.checkpoint_dir is not None:
                        self._checkpoint_locked()
                    self.result = self.session.close()

    # ------------------------------------------------------------------
    # Trace rotation
    # ------------------------------------------------------------------
    def _rotate_append(self, batch) -> None:
        if self._writer is not None \
                and self._writer_bins >= self.rotate_every_bins:
            self._writer.close()
            self._writer = None
        if self._writer is None:
            segment = self.rotate_dir / \
                f"segment-{self._rotated_segments:06d}"
            self._writer = TraceWriter(
                segment, name=f"{self.name}-{self._rotated_segments:06d}",
                with_payloads=batch.payloads is not None,
                time_bin=self.feed.time_bin)
            self._rotated_segments += 1
            self._writer_bins = 0
        if len(batch) > 0:
            self._writer.append(batch)
        self._writer_bins += 1

    # ------------------------------------------------------------------
    # Ops (called from the API handlers; each locks around the session)
    # ------------------------------------------------------------------
    def add_query(self, spec) -> Dict:
        """Register a query (spec dict / name) at the next bin boundary."""
        parsed = parse_query_specs([spec])[0]
        with self._lock:
            self.session.add_query(parsed.build())
        return {"added": parsed.instance_name, "spec": parsed.to_dict()}

    def remove_query(self, name: str) -> Dict:
        with self._lock:
            self.session.remove_query(name)
        return {"removed": name}

    def set_capacity(self, cycles_per_second: float) -> Dict:
        cycles_per_second = float(cycles_per_second)
        with self._lock:
            self.session.set_capacity(cycles_per_second)
        self.config = self.config.replace(cycles_per_second=cycles_per_second)
        return {"cycles_per_second": cycles_per_second}

    def apply_config(self, changes: Dict) -> Dict:
        """Hot-reload config fields that are live-applicable.

        ``changes`` is a partial config dict.  It is validated by merging
        onto the current config (so typos get the did-you-mean treatment
        of ``SystemConfig.from_dict``), then every actually-changed field
        must be in :data:`LIVE_CONFIG_FIELDS` — anything else is rejected
        with an error naming the offending fields, because it could not
        take effect without restarting the execution.
        """
        if not isinstance(changes, dict):
            raise OpsError(400, "config payload must be a JSON object")
        merged = dict(self.config.to_dict())
        merged.update(changes)
        candidate = SystemConfig.from_dict(merged)  # strict keys + validation
        changed = [key for key in changes
                   if getattr(candidate, key) != getattr(self.config, key)]
        dead = sorted(set(changed) - set(LIVE_CONFIG_FIELDS))
        if dead:
            raise OpsError(
                400, f"config field(s) {dead} cannot change while the "
                     f"session is running; live-applicable fields: "
                     f"{sorted(LIVE_CONFIG_FIELDS)} (restart, or "
                     "checkpoint/restore, to change the rest)")
        applied = {}
        for key in changed:
            if key == "cycles_per_second":
                self.set_capacity(candidate.cycles_per_second)
                applied[key] = candidate.cycles_per_second
        return {"applied": applied,
                "unchanged": sorted(set(changes) - set(changed))}

    def checkpoint_now(self) -> Dict:
        if self.checkpoint_dir is None:
            raise OpsError(409, "daemon started without --checkpoint-dir")
        with self._lock:
            if self.session.closed:
                raise OpsError(409, "session already closed")
            path = self._checkpoint_locked()
        return {"checkpoint": str(path),
                "bins_ingested": self.bins_ingested}

    def _checkpoint_locked(self) -> Path:
        path = self.checkpoint_dir / "checkpoint.pkl"
        save_checkpoint(self.session, path)
        self.checkpoint_path = path
        self._checkpoints_written += 1
        return path

    # ------------------------------------------------------------------
    # Read-side ops
    # ------------------------------------------------------------------
    def partial_result(self) -> ExecutionResult:
        with self._lock:
            if self.session.closed:
                return self.result
            bins = self.session.bins_ingested
            if (self._partial_cache is not None
                    and self._partial_cache[0] == bins):
                return self._partial_cache[1]
            snapshot = self.session.partial_result()
            self._partial_cache = (bins, snapshot)
            return snapshot

    def session_metrics(self) -> Dict:
        """The session's operational metrics (profiler + feature sharing).

        Same document as :attr:`MonitoringSession.metrics` /
        :attr:`ShardedSession.metrics`, captured under the lock so it lands
        at a bin boundary.
        """
        with self._lock:
            return self.session.metrics

    def status(self) -> Dict:
        """The ``/status`` document: health, throughput, per-query state."""
        snapshot = self.partial_result()
        queries = {}
        accuracies = {}
        if self.reference is not None:
            from ..experiments.runner import accuracy_by_query
            accuracies = accuracy_by_query(snapshot, self.reference,
                                           self.config.query_kinds())
        for qname, log in snapshot.query_logs.items():
            rates = snapshot.rate_series(qname)
            queries[qname] = {
                "intervals": len(log.intervals),
                "mean_sampling_rate": (float(np.mean(rates)) if len(rates)
                                       else 1.0),
            }
            if qname in accuracies:
                queries[qname]["accuracy_so_far"] = float(accuracies[qname])
        totals = _totals(snapshot)
        return {
            "name": self.name,
            "mode": self.config.mode,
            "num_shards": self.config.num_shards,
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self._started_unix,
            "bins_ingested": self.bins_ingested,
            "time_bin": self.feed.time_bin,
            "packets": totals["packets"],
            "bytes": totals["bytes"],
            "dropped_packets": totals["dropped"],
            "shed_fraction": snapshot.drop_fraction,
            "shed_bins": totals["shed_bins"],
            "mean_prediction_error": totals["prediction_error"],
            "checkpoints_written": self._checkpoints_written,
            "checkpoint_path": (str(self.checkpoint_path)
                                if self.checkpoint_path else None),
            "stopping": self._stopping,
            "closed": self.session.closed,
            "feed": {
                "kind": self.feed.kind,
                "name": self.feed.name,
                "lag_seconds": self.feed.lag_seconds,
                "idle": self.feed.idle,
                "done": self.feed.done,
                "late_packets": self.feed.late_packets,
                "malformed_lines": self.feed.malformed_lines,
            },
            "queries": queries,
        }

    def result_document(self) -> Dict:
        """The ``/result`` document: a JSON view of the partial result."""
        snapshot = self.partial_result()
        return {
            "mode": snapshot.mode,
            "strategy": snapshot.strategy,
            "trace_name": snapshot.trace_name,
            "bins": len(snapshot.bins),
            "total_packets": snapshot.total_packets,
            "dropped_packets": snapshot.dropped_packets,
            "drop_fraction": snapshot.drop_fraction,
            "mean_sampling_rate": snapshot.mean_sampling_rate(),
            "query_logs": {
                qname: {
                    "intervals": [float(start) for start in log.intervals],
                    "results": [_result_value(value)
                                for value in log.results],
                }
                for qname, log in snapshot.query_logs.items()
            },
        }

    def metric_families(self) -> List[Dict]:
        """The ``/metrics`` content, as renderer-ready metric families."""
        snapshot = self.partial_result()
        totals = _totals(snapshot)
        record = snapshot.bins[-1] if snapshot.bins else None
        families = [
            _family("repro_uptime_seconds", "gauge",
                    "Seconds since the daemon started",
                    [({}, self.uptime_seconds)]),
            _family("repro_bins_ingested_total", "counter",
                    "Time bins ingested", [({}, self.bins_ingested)]),
            _family("repro_packets_total", "counter",
                    "Packets offered to the monitor",
                    [({}, totals["packets"])]),
            _family("repro_bytes_total", "counter",
                    "Bytes offered to the monitor", [({}, totals["bytes"])]),
            _family("repro_dropped_packets_total", "counter",
                    "Packets dropped by load shedding",
                    [({}, totals["dropped"])]),
            _family("repro_unsampled_packets_total", "counter",
                    "Effective packets lost to sampling",
                    [({}, snapshot.unsampled_packets)]),
            _family("repro_shed_bins_total", "counter",
                    "Bins in which load shedding was active",
                    [({}, totals["shed_bins"])]),
            _family("repro_checkpoints_total", "counter",
                    "Checkpoints written",
                    [({}, self._checkpoints_written)]),
            _family("repro_feed_lag_seconds", "gauge",
                    "Seconds the feed trails its delivery schedule",
                    [({}, self.feed.lag_seconds)]),
            _family("repro_feed_late_packets_total", "counter",
                    "Packets that arrived after their bin was emitted",
                    [({}, self.feed.late_packets)]),
            _family("repro_feed_malformed_lines_total", "counter",
                    "Feed input lines that were not a packet record",
                    [({}, self.feed.malformed_lines)]),
            _family("repro_mean_prediction_error", "gauge",
                    "Mean relative cycle-prediction error",
                    [({}, totals["prediction_error"])]),
            _family("repro_cycles_total", "counter",
                    "Simulated cycles spent, by component",
                    [({"component": component},
                      float(snapshot.series(column).sum()))
                     for component, column in _CYCLE_COMPONENTS]),
        ]
        if record is not None:
            families.append(_family(
                "repro_bin_sampling_rate", "gauge",
                "Last bin's sampling rate per query",
                [({"query": qname}, rate)
                 for qname, rate in sorted(record.rates.items())]))
            families.append(_family(
                "repro_bin_delay_seconds", "gauge",
                "Capture-buffer delay after the last bin",
                [({}, record.delay)]))
        if isinstance(self.session, ShardedSession):
            samples = []
            for shard, load in enumerate(self.session.shard_loads):
                if load is not None:
                    samples.append(({"shard": str(shard)}, float(load[1])))
            if samples:
                families.append(_family(
                    "repro_shard_cycles", "gauge",
                    "Cycles each shard spent in the previous bin", samples))
        metrics = self.session_metrics()
        profile = metrics["profile"]
        if profile["stages"]:
            families.append(_family(
                "repro_stage_seconds_total", "counter",
                "Wall seconds spent per pipeline stage",
                [({"stage": stage}, stats["seconds_total"])
                 for stage, stats in sorted(profile["stages"].items())]))
        latency = profile["bin_seconds"]
        if latency["n"]:
            families.append(_family(
                "repro_bin_pipeline_seconds", "gauge",
                "Recent per-bin pipeline wall seconds (percentiles)",
                [({"quantile": q}, latency[q])
                 for q in ("p50", "p95", "p99")]))
        sharing = metrics["feature_sharing"]
        families.append(_family(
            "repro_feature_sharing", "gauge",
            "Feature reads and counter merges, computed and shared; "
            "address matrices and bank builds",
            [({"counter": key}, float(value))
             for key, value in sorted(sharing.items())]))
        merge = metrics.get("sharding")
        if merge is not None:
            for key, help_text in (
                    ("intervals_merged",
                     "Measurement intervals merged from the shards' partials"),
                    ("partial_bytes",
                     "Bytes of the shard replies that carried partials"),
                    ("merge_seconds",
                     "Seconds spent merging and finalising shard partials"),
                    ("divergences",
                     "Shard divergences detected (mismatched intervals)")):
                families.append(_family(
                    f"repro_shard_{key}_total", "counter", help_text,
                    [({}, float(merge[key]))]))
        return families


def _totals(result: ExecutionResult) -> Dict:
    """The daemon's running totals, read from the result's columns so far.

    The prediction error of a bin compares what it measured with what the
    prediction said the queries would cost at the rates decided — not with
    the full-rate demand, which under shedding measures what was shed.
    """
    predicted = result.series("predicted_cycles") > 0
    measured = result.series("query_cycles")[predicted]
    errors = (np.abs(result.series("expected_cycles")[predicted] - measured)
              / np.maximum(measured, 1.0))
    shed = ((result.series("dropped_packets") > 0)
            | (result.series("mean_rate") < 1.0))
    return {
        "packets": result.total_packets,
        "bytes": result.total_bytes,
        "dropped": result.dropped_packets,
        "shed_bins": int(np.count_nonzero(shed)),
        "prediction_error": float(errors.mean()) if len(errors) else 0.0,
    }


def _family(name: str, kind: str, help_text: str, samples) -> Dict:
    return {"name": name, "type": kind, "help": help_text,
            "samples": samples}


def _result_value(value):
    """A query-log result value as JSON-able data (best effort)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _result_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_result_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
