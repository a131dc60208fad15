"""Streaming execution sessions: push-based ingestion with live control.

The paper's load-shedding scheme is an *online* system — it sheds load on
live traffic with no a-priori knowledge of the workload — and
:class:`MonitoringSession` is the execution handle that matches that shape.
Instead of handing :meth:`MonitoringSystem.run` a fully materialised trace,
a caller opens a session and pushes batches as they arrive::

    session = system.open_session(time_bin=0.1)
    for batch in capture_process:        # any iterable / generator of batches
        record = session.ingest(batch)   # full per-bin pipeline, one bin
    result = session.close()             # final measurement-interval flush

Each :meth:`ingest` call drives the complete per-bin pipeline of Figure 3.2
(prediction -> allocation -> shedding -> queries) and returns the bin's
:class:`~repro.monitor.system.BinRecord`.  Between bins the session can be
reconfigured live — the Chapter 6 dynamic scenario:

* :meth:`add_query` / :meth:`remove_query` model query arrivals and
  departures (Figure 6.9); a departing query's last partial measurement
  interval is flushed at the boundary it leaves at (and finished by its own
  class, whoever takes the name next), and its enforcement state is dropped
  so a later same-named query starts clean.
* :meth:`set_capacity` models the host capacity changing under the system
  (CPU frequency scaling, co-located jobs).

All three take effect at the next bin boundary — i.e. they are queued and
applied at the start of the next :meth:`ingest` (or at :meth:`close`), never
in the middle of a bin — so a bin is always processed under one consistent
configuration.

:meth:`MonitoringSystem.run` is a thin wrapper over this class (open, ingest
every batch, close) and is bit-identical to driving the session by hand; the
golden regression tests pin that equivalence down.

Everything a bin produces leaves the session through
:meth:`MonitoringSession.step`: the bin's record and the ``(query name,
interval start, query class, partial)`` of every measurement interval it
closed (:meth:`finish` returns the last ones).  :meth:`ingest` /
:meth:`close` fold that into the session's own result; any other caller
of ``step`` / ``finish`` — a sharded node, a fleet — folds for itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.cycles import CycleBudget, CycleClock
from .capture import BUFFER_SECONDS, CaptureBuffer
from .packet import Batch, as_trace
from .pipeline import process_bin
from .query import Query
from .system import BinRecord, ExecutionResult, MonitoringSystem


class MonitoringSession:
    """Push-based execution handle over a :class:`MonitoringSystem`.

    Opening a session resets the system's per-execution state (exactly as
    :meth:`MonitoringSystem.run` used to) and takes ownership of the per-bin
    machinery: the cycle clock, the capture buffer and the bin index.  One
    system can therefore only be driven by one session at a time; open a new
    session to start a fresh execution.

    Parameters
    ----------
    system:
        The system to execute.
    time_bin:
        Bin length in seconds (the paper uses 100 ms).  Every ingested batch
        is treated as one bin of this length.
    name:
        Label stored as the execution's ``trace_name`` (``run()`` passes the
        trace's name).
    """

    def __init__(self, system: MonitoringSystem, time_bin: float = 0.1,
                 name: str = "live") -> None:
        system._reset()
        self.system = system
        self.time_bin = float(time_bin)
        self.name = name
        self.budget = CycleBudget(system.budget.cycles_per_second,
                                  self.time_bin)
        self.clock = CycleClock(self.budget)
        # A reference execution must never drop a packet.
        self.buffer = CaptureBuffer(
            None if system.mode == "reference" else BUFFER_SECONDS,
            cycles_per_second=self.budget.cycles_per_second)
        system.controller.configure_budget(self.budget.per_bin,
                                           self.buffer.capacity_cycles)
        #: Queued reconfigurations, applied in call order at the next bin
        #: boundary: ("add", query, start_time) | ("remove", name) |
        #: ("capacity", cycles_per_second).
        self._pending: List[Tuple] = []
        #: The queries registered, counting queued arrivals and departures.
        self._query_names: List[str] = list(system.query_names)
        self._next_index = 0
        self._last_start_ts: Optional[float] = None
        #: What :meth:`ingest` / :meth:`close` have accumulated.
        self._result = ExecutionResult(system.mode, system.config.strategy,
                                       name, self.budget)
        self._result.open_logs(self._query_names)
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def bins_ingested(self) -> int:
        return self._next_index

    @property
    def query_names(self) -> List[str]:
        """Queries registered, counting changes queued for the next bin."""
        return list(self._query_names)

    @property
    def metrics(self) -> Dict:
        """Operational metrics of the execution so far (JSON-able).

        ``profile`` is the per-stage wall-time breakdown recorded by
        :class:`repro.profile.StageProfiler` (with p50/p95/p99 per-bin
        latency percentiles; the cycles are the result's columns); ``feature_sharing`` counts every feature read
        and counter merge of the extractors: ``computed_reads`` /
        ``computed_merges`` were worked out, ``shared_reads`` /
        ``deduped_merges`` found done already for a query holding the same
        interval bank on the same batch; ``full_bank_builds`` /
        ``sampled_bank_builds`` count the batch banks built for the
        batches the queries are handed and for their sampled batches, and
        ``address_matrices`` the bitmap bit-address matrices computed (a
        selection of a batch gathers the batch's).  When the system declares
        tenant groups, ``tenants`` adds the per-tenant accounting: tenant
        count and query cycles consumed per tenant so far, as folded into
        the session's own result (a stepped session's owner holds them).
        """
        metrics = {
            "profile": self.system.profiler.summary(),
            "feature_sharing": self.system.feature_states.stats(),
        }
        registry = self.system.tenant_registry
        if registry.declared:
            metrics["tenants"] = {
                "count": len(registry.groups),
                "query_cycles": self._result.tenant_cycle_totals(),
            }
        return metrics

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def step(self, batch: Batch) -> Tuple[BinRecord, List[Tuple]]:
        """Process one time bin's worth of packets; returns what it produced.

        Pending reconfigurations are applied first (this call *is* the bin
        boundary they were waiting for), then the batch flows through the
        full pipeline: capture-buffer admission, prediction, allocation,
        shedding and query execution.  Returns the bin's record and
        ``flushed``: the ``(query name, interval start, query class,
        partial)`` of every measurement interval this bin (or a departure
        at its boundary) closed, in flush order.  It keeps neither.
        """
        if self.closed:
            raise RuntimeError("cannot ingest into a closed session")
        self._apply_pending(batch.start_ts)
        record = process_bin(self.system, self._next_index, batch, self.clock,
                             self.buffer)
        self._next_index += 1
        self._last_start_ts = float(batch.start_ts)
        return record, self._take_flushed()

    def finish(self) -> List[Tuple]:
        """End the execution: apply what is still pending, flush the last
        (possibly partial) measurement intervals and return them, as
        :meth:`step` does.  Idempotent (later calls return nothing)."""
        if self._closed:
            return []
        self._apply_pending(None)
        self.system._final_flush()
        self._closed = True
        return self._take_flushed()

    def _take_flushed(self) -> List[Tuple]:
        flushed, self.system._flushed = self.system._flushed, []
        return flushed

    def ingest(self, batch: Batch) -> BinRecord:
        """:meth:`step`, folded into the session's own result."""
        record, flushed = self.step(batch)
        self._result.fold(record, flushed, self._query_names)
        return record

    def ingest_trace(self, source) -> "MonitoringSession":
        """Stream every bin of ``source`` through :meth:`ingest`.

        ``source`` is anything :func:`repro.monitor.packet.as_trace`
        accepts: an in-memory :class:`~repro.monitor.packet.PacketTrace`, a
        :class:`~repro.monitor.packet.StreamingTrace`, or a trace store —
        the out-of-core path: a store far larger than RAM flows through the
        full predict/shed pipeline one bin at a time.  The session stays open
        (reconfigure, ingest more, or :meth:`close`); returns ``self`` so
        ``ingest_trace(store).close()`` reads naturally.
        """
        for batch in as_trace(source).batches(self.time_bin):
            self.ingest(batch)
        return self

    def close(self) -> ExecutionResult:
        """:meth:`finish`, folded into the session's own result, which is
        returned.  Idempotent."""
        if not self._closed:
            self._result.fold(None, self.finish(), self._query_names)
        return self._result

    def partial_result(self) -> ExecutionResult:
        """Snapshot of the execution so far (accuracy-so-far queries).

        The snapshot holds copies of the bins and result logs accumulated up
        to the last ingested bin; open measurement intervals are *not*
        flushed (the session keeps running), so the logs contain completed
        intervals only.  Feed it to the usual accuracy helpers, e.g.
        ``runner.accuracy_by_query(session.partial_result(), reference)``.
        """
        return self._result.snapshot()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Complete execution state, as a serialisable checkpoint payload.

        The session object graph *is* the state — system, queries,
        predictors, controller, enforcer, RNGs, cycle clock, capture
        buffer, result logs, bin records and any still-pending
        reconfigurations are all reachable from ``self`` and all pickle
        exactly (NumPy generators and arrays round-trip bit for bit).  The
        caller must serialise the returned payload *immediately* (e.g.
        ``pickle.dumps``): it aliases live objects, so it is a snapshot
        only at the moment it is captured.  :mod:`repro.serve.checkpoint`
        wraps this in a versioned on-disk format.
        """
        if self.closed:
            raise RuntimeError("cannot checkpoint a closed session")
        return {"kind": "monitoring", "session": self}

    @classmethod
    def from_state(cls, state: Dict) -> "MonitoringSession":
        """Rebuild a session from a deserialised :meth:`state_dict` payload.

        The payload must have round-tripped through serialisation (the
        checkpoint loader's job); the rebuilt session then owns a private
        copy of every component and resumes bit-identically — ``__init__``
        is deliberately bypassed, because it would reset the system's
        accumulated per-execution state.
        """
        if state.get("kind") != "monitoring":
            raise ValueError(
                f"not a MonitoringSession checkpoint payload: "
                f"kind={state.get('kind')!r}")
        session = state["session"]
        if not isinstance(session, cls):
            raise TypeError(
                f"checkpoint payload holds a {type(session).__name__}, "
                f"expected {cls.__name__}")
        return session

    # ------------------------------------------------------------------
    # Live reconfiguration (applied at the next bin boundary)
    # ------------------------------------------------------------------
    def add_query(self, query: Query, start_time: Optional[float] = None
                  ) -> None:
        """Register ``query`` at the next bin boundary (a query arrival).

        ``start_time`` defaults to the next bin's start timestamp, i.e. the
        query becomes active immediately at the next ingested bin; pass an
        explicit timestamp to model an arrival scheduled further ahead.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        name = query.name
        if name in self._query_names:
            raise ValueError(f"a query named {name!r} is already registered")
        self._pending.append(("add", query, start_time))
        self._query_names.append(name)

    def remove_query(self, name: str) -> None:
        """Deregister a query at the next bin boundary (a query departure).

        The query's final partial measurement interval is flushed at that
        boundary and finished by the departing query's own class (its log
        stays in the result; a same-named query arriving later, even at that
        very boundary, appends to it), and all per-query enforcement state is
        dropped, so a same-named query added later starts with a clean slate.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        if name not in self._query_names:
            raise KeyError(f"no query named {name!r} is registered")
        self._query_names.remove(name)
        for index, op in enumerate(self._pending):
            if op[0] == "add" and op[1].name == name:
                del self._pending[index]  # withdrawn before it ever ran
                return
        self._pending.append(("remove", name))

    def set_capacity(self, cycles_per_second: float) -> None:
        """Change the host's cycle capacity at the next bin boundary.

        The per-bin budget, the capture buffer's backlog capacity and the
        controller's probe step sizes are all rebuilt from the new capacity;
        accumulated processing delay (backlog) carries over, exactly as it
        would on a real host whose clock changed under a loaded monitor.
        """
        if self.closed:
            raise RuntimeError("cannot reconfigure a closed session")
        cycles_per_second = float(cycles_per_second)
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        self._pending.append(("capacity", cycles_per_second))

    # ------------------------------------------------------------------
    def _apply_pending(self, boundary_ts: Optional[float]) -> None:
        """Apply queued reconfigurations in call order at a bin boundary."""
        pending, self._pending = self._pending, []
        for op in pending:
            kind = op[0]
            if kind == "add":
                _, query, start_time = op
                if start_time is None:
                    start_time = (boundary_ts if boundary_ts is not None
                                  else self._next_boundary_ts())
                self.system.add_query(query, start_time=start_time)
            elif kind == "remove":
                name = op[1]
                self.system._flush_runtime_final(self.system.runtime(name))
                self.system.remove_query(name)
            else:  # capacity
                self.budget = self._result.budget = \
                    CycleBudget(op[1], self.time_bin)
                self.clock.budget = self.budget
                self.buffer.cycles_per_second = float(op[1])
                self.system.controller.configure_budget(
                    self.budget.per_bin, self.buffer.capacity_cycles)

    def _next_boundary_ts(self) -> float:
        if self._last_start_ts is None:
            return 0.0
        return self._last_start_ts + self.time_bin

    # ------------------------------------------------------------------
    def __enter__(self) -> "MonitoringSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"MonitoringSession(mode={self.system.mode!r}, "
                f"bins={self._next_index}, {state})")


__all__ = ["MonitoringSession"]
