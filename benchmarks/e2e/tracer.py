"""Span tracer for the end-to-end benchmark's ``--trace 1`` run.

The program under test has no spans of its own yet (ROADMAP item 5), so the
benchmark records them from outside: :meth:`Tracer.install` replaces the
*public* function at every layer boundary with a thin recording wrapper,
always on the class or module, never on an instance (checkpoints pickle the
session graph, and an instance attribute holding a closure would go with
it).  A span is ``[name, start, end, parent, bin]`` and is named
``<layer>.<operation>``; spans stay in memory and are reduced once the
timed region is over.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all spans add up to the root span.  The
serve tier runs ``session.ingest`` on an executor thread while the
benchmark's per-bin span lives on the event-loop thread;
:meth:`Tracer.all_spans` adopts such foreign-thread roots into the
driver-thread span that contains them in time, which is sound because the
gate keeps one bin in flight.

Forked shard workers and fleet node jobs inherit the wrappers, but their
spans stay in the child: child-side stage time is read from the program's
own ``StageProfiler`` instead.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Positions inside a span record.
NAME, START, END, PARENT, BIN = range(5)

#: Root span of one repeat's timed region.
ROOT = "bench.repeat"


def stage_span(class_name: str) -> str:
    """``"RateDecisionStage"`` -> ``"pipeline.rate_decision"``."""
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", class_name[:-len("Stage")])
    return f"pipeline.{snake.lower()}"


class Tracer:
    """In-memory span recorder with one span list and stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: ``(thread ident, spans)`` for every thread that recorded a span.
        self.threads: List[Tuple[int, List[list]]] = []
        self._threads_lock = threading.Lock()
        #: Bin index stamped on spans opened from now on (-1 = outside bins).
        self.bin = -1
        #: Sums of wrapped functions' return values (e.g. bytes packed).
        self.counters: Dict[str, float] = {}
        self._installed: List[Tuple[object, str, object]] = []

    def _thread_state(self) -> Tuple[List[list], List[int]]:
        spans: List[list] = []
        self._local.state = state = (spans, [])
        with self._threads_lock:
            self.threads.append((threading.get_ident(), spans))
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        """Open a span on the calling thread; pair with :meth:`end`."""
        try:
            spans, stack = self._local.state
        except AttributeError:
            spans, stack = self._thread_state()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.bin]
        stack.append(len(spans))
        spans.append(span)
        span[START] = time.perf_counter()

    def end(self) -> None:
        """Close the calling thread's innermost open span."""
        now = time.perf_counter()
        spans, stack = self._local.state
        spans[stack.pop()][END] = now

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span (the benchmark's own spans)."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name: str, fn: Callable,
             counter: Optional[str] = None) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call.

        ``counter`` additionally sums the call's numeric return value into
        :attr:`counters` under that key.
        """
        tracer, local, clock = self, self._local, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = tracer._thread_state()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.bin]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] = counters.get(counter, 0.0) + value
            return value

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str,
               counter: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` in place if ``owner`` itself defines it."""
        original = vars(owner).get(attr)
        if original is None:
            return
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self.wrap(name, original.__func__, counter))
        else:
            wrapped = self.wrap(name, original, counter)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap the public function behind every per-layer metric."""
        from repro.core import tenancy
        from repro.core.distinct import (DistinctCounter,
                                         ExactDistinctCounter,
                                         MultiResolutionBitmap)
        from repro.core.features import FeatureExtractor
        from repro.core.prediction import MLRPredictor
        from repro.core.sampling import FlowSampler, PacketSampler
        from repro.core.shedding import LoadSheddingController
        from repro.fleet import FleetAggregator, FleetPartitioner, FleetRunner
        from repro.monitor.filters import Filter
        from repro.monitor.packet import Batch
        from repro.monitor.pipeline import DEFAULT_STAGES, BinRecord
        from repro.monitor.query import Query
        from repro.monitor.session import MonitoringSession
        from repro.monitor.sharding import ShardedSession
        from repro.monitor.system import ExecutionResult
        from repro.monitor.workers import ShardWorkerPool
        from repro.queries import QUERY_CLASSES
        from repro.serve import daemon as serve_daemon

        patch = self._patch
        patch(Batch, "select", "packet.select")
        patch(Batch, "aggregate_hashes", "packet.hash")
        patch(Batch, "unique_aggregate_hashes", "packet.hash")
        patch(Batch, "payload_hits", "packet.payload")
        patch(Batch, "partition", "packet.partition")
        patch(Batch, "pack_into", "packet.pack", counter="shm_bytes")
        patch(Batch, "from_buffer", "packet.pack")
        patch(Filter, "apply", "filters.apply")
        patch(FeatureExtractor, "extract", "features.extract")
        patch(FeatureExtractor, "commit", "features.commit")
        for cls in (DistinctCounter, ExactDistinctCounter,
                    MultiResolutionBitmap):
            patch(cls, "add_hashes", "distinct.add")
            patch(cls, "estimate", "distinct.estimate")
            patch(cls, "new_estimate", "distinct.estimate")
            patch(cls, "merge", "distinct.merge")
            patch(cls, "copy", "distinct.merge")
        patch(MLRPredictor, "predict", "prediction.predict")
        patch(MLRPredictor, "observe", "prediction.observe")
        patch(LoadSheddingController, "plan_arrays", "shedding.plan")
        patch(tenancy, "two_tier_allocate", "tenancy.allocate")
        patch(PacketSampler, "sample", "sampling.sample")
        patch(FlowSampler, "sample", "sampling.sample")
        for cls in {Query, *QUERY_CLASSES.values()}:
            patch(cls, "update", "queries.update")
            patch(cls, "shed_load", "queries.shed_load")
            patch(cls, "interval_result", "queries.flush")
        for stage in DEFAULT_STAGES:
            patch(type(stage), "run", stage_span(type(stage).__name__))
        patch(MonitoringSession, "ingest", "session.ingest")
        patch(MonitoringSession, "close", "session.close")
        patch(ShardedSession, "ingest", "sharding.ingest")
        patch(ShardedSession, "close", "session.close")
        patch(ShardWorkerPool, "ingest_async", "workers.send")
        patch(ShardWorkerPool, "wait_record", "workers.wait")
        patch(BinRecord, "merge", "sharding.bin_merge")
        patch(ExecutionResult, "merge", "sharding.result_merge")
        patch(FleetPartitioner, "split", "fleet.split")
        patch(FleetAggregator, "federate", "fleet.federate")
        patch(FleetRunner, "run", "fleet.run")
        # The daemon calls the name it imported, so that is the one to wrap.
        patch(serve_daemon, "save_checkpoint", "checkpoint.save")

    def uninstall(self) -> None:
        """Put every wrapped function back (tests share one interpreter)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def all_spans(self, driver_thread: Optional[int] = None) -> List[list]:
        """Every thread's spans as one list with list-global parents.

        The driver thread's spans come first.  A root span of any other
        thread is adopted by the innermost driver span that contains it in
        time (see the module docstring).
        """
        if driver_thread is None:
            driver_thread = threading.get_ident()
        threads = sorted(self.threads, key=lambda t: t[0] != driver_thread)
        merged: List[list] = []
        driver_spans: List[list] = []
        for ident, spans in threads:
            offset = len(merged)
            for span in spans:
                span = list(span)
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                elif ident != driver_thread:
                    span[PARENT] = _enclosing(driver_spans, span)
                merged.append(span)
            if ident == driver_thread:
                driver_spans = list(merged)
        return merged


def _enclosing(driver_spans: List[list], span: list) -> int:
    """Index of the innermost driver span containing ``span`` in time."""
    best, best_start = -1, float("-inf")
    for index, candidate in enumerate(driver_spans):
        if (best_start < candidate[START] <= span[START]
                and span[END] <= candidate[END]):
            best, best_start = index, candidate[START]
    return best


def reduce(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    ``spans`` is one list whose ``parent`` fields index into it (the shape
    :meth:`Tracer.all_spans` returns).
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, Dict[str, float]] = {}
    for span, child_seconds in zip(spans, covered):
        seconds = span[END] - span[START]
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["inclusive_s"] += seconds
        entry["self_s"] += seconds - child_seconds
    return totals


def durations(spans: List[list], name: str) -> List[float]:
    """Inclusive seconds of every span called ``name``, in start order."""
    return [span[END] - span[START] for span in spans if span[NAME] == name]
