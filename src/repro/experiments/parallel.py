"""Parallel scenario engine: matrix-driven experiment grids.

The evaluation chapters each hand-roll loops over (trace x overload x mode x
strategy) combinations, re-running the expensive reference calibration for
every point.  This module turns that idiom into an engine:

* :class:`ScenarioMatrix` expands axis lists — workload names from
  :data:`~repro.experiments.scenarios.WORKLOADS`, overload factors ``K``,
  operating modes, allocation strategies and predictor kinds — into a flat,
  deterministically-seeded list of :class:`ScenarioCell` jobs.
* :class:`ParallelRunner` executes the cells.  Work shared between cells
  (trace synthesis and the reference execution that calibrates the cycle
  capacity, Section 5.5.3) is computed once per trace group; the remaining
  per-cell executions are independent and are sharded across a process pool.
  Results come back as structured :class:`CellResult` records joined against
  the group's reference execution.

Every cell seed is derived from the matrix ``base_seed`` and the cell's
coordinates with a stable hash, so a cell's execution is bit-identical no
matter which worker runs it, whether the pool is enabled, or how the matrix
is sliced — the property the golden regression tests pin down.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pool import fork_pool_map
from ..monitor.packet import PacketTrace
from ..monitor.system import MODES, MODE_ALIASES, ExecutionResult
from . import runner, scenarios

#: Query set used when a matrix does not specify one: cheap, sampling-robust
#: queries that run on header-only traces.
DEFAULT_QUERY_SET: Tuple[str, ...] = ("counter", "flows", "top-k",
                                      "application")


def derive_seed(base_seed: int, text: str) -> int:
    """Stable 31-bit seed from a base seed and a textual coordinate.

    ``zlib.crc32`` is deterministic across processes and Python runs (unlike
    ``hash``), which is what makes cells reproducible under sharding.
    """
    mixed = zlib.crc32(text.encode("utf-8")) ^ ((base_seed * 0x9E3779B1)
                                                & 0xFFFFFFFF)
    return int(mixed & 0x7FFFFFFF)


# ----------------------------------------------------------------------
# Matrix expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioCell:
    """One fully-specified experiment: a single system execution."""

    trace: str
    overload: float
    mode: str
    strategy: str = "eq_srates"
    predictor: str = "mlr"
    queries: Tuple[str, ...] = DEFAULT_QUERY_SET
    scale: float = 1.0
    time_bin: float = runner.TIME_BIN
    num_shards: int = 1
    #: Number of tenant groups the cell's queries are split across
    #: (round-robin); ``0`` runs the classic untenanted system.
    tenant_count: int = 0
    seed: int = 0

    @property
    def cell_id(self) -> str:
        """Human-readable coordinate string (also the seeding key).

        Unsharded, untenanted cells keep the historical coordinate format
        so the frozen golden seed expectations stay valid; sharded cells
        append their shard count, tenanted cells their tenant count, as
        extra coordinates.
        """
        base = (f"{self.trace}/K={self.overload:g}/{self.mode}/"
                f"{self.strategy}/{self.predictor}")
        if self.num_shards > 1:
            base = f"{base}/shards={self.num_shards}"
        if self.tenant_count > 0:
            base = f"{base}/tenants={self.tenant_count}"
        return base

    def group_key(self) -> Tuple:
        """Cells with equal group keys share a trace and a calibration."""
        return (self.trace, self.queries, self.scale, self.time_bin)

    def tenant_groups(self) -> Tuple:
        """The cell's queries dealt round-robin into ``tenant_count``
        :class:`~repro.core.tenancy.TenantGroup` objects."""
        from ..core.tenancy import TenantGroup
        count = min(int(self.tenant_count), len(self.queries))
        return tuple(
            TenantGroup(name=f"tenant-{index:03d}",
                        queries=tuple(self.queries[index::count]))
            for index in range(count))

    def to_config(self, cycles_per_second: Optional[float] = None):
        """The :class:`repro.SystemConfig` this cell's system is built from.

        The cell's query set rides along as the config's declarative
        ``queries`` field (or, for tenanted cells, partitioned into the
        declarative ``tenants`` field, from which the config derives its
        queries), so a cell config is self-contained: it can be serialised,
        shipped and rebuilt without the cell object.
        """
        kwargs = dict(
            mode=self.mode, strategy=self.strategy, predictor=self.predictor,
            seed=self.seed, cycles_per_second=cycles_per_second,
            num_shards=self.num_shards)
        if self.tenant_count > 0:
            kwargs["tenants"] = self.tenant_groups()
        else:
            kwargs["queries"] = self.queries
        return runner.system_config(**kwargs)


@dataclass
class ScenarioMatrix:
    """A grid of scenarios over the cartesian product of the axes.

    Parameters
    ----------
    traces:
        Workload names from :data:`~repro.experiments.scenarios.WORKLOADS`.
    overloads:
        Overload factors ``K`` in ``[0, 1)`` (Section 5.4 convention: the
        evaluated system runs at ``(1 - K)`` times the calibrated capacity).
    modes:
        Operating modes (aliases such as ``no_lshed`` are accepted).
    strategies, predictors:
        Allocation strategies and predictor kinds (only meaningful for the
        predictive mode, but expanded like any other axis).
    queries:
        Query set shared by every cell: registry names, declarative
        :class:`~repro.queries.QuerySpec` entries (or spec dicts /
        ``(name, kwargs)`` pairs), a named mix from
        :data:`~repro.experiments.scenarios.QUERY_MIXES`, or a
        comma-separated name string.
    scale:
        Workload scale factor forwarded to the trace builders.
    num_shards:
        Shard counts — a full matrix axis, so sharded and unsharded
        executions of the same scenario can be compared cell for cell.
    tenant_counts:
        Tenant-group counts — a full matrix axis: each entry ``N > 0``
        splits the query set round-robin across ``N`` declared tenants
        (two-tier allocation, per-tenant accounting); ``0`` is the classic
        untenanted system.
    base_seed:
        Root of the deterministic per-cell seed derivation.
    """

    traces: Sequence[str] = ("cesca",)
    overloads: Sequence[float] = (0.3,)
    modes: Sequence[str] = ("predictive",)
    strategies: Sequence[str] = ("eq_srates",)
    predictors: Sequence[str] = ("mlr",)
    queries: Sequence[str] = DEFAULT_QUERY_SET
    scale: float = 1.0
    time_bin: float = runner.TIME_BIN
    num_shards: Sequence[int] = (1,)
    tenant_counts: Sequence[int] = (0,)
    base_seed: int = 0

    def __post_init__(self) -> None:
        # Every axis is validated up front: a typo must fail at construction
        # with a helpful message, not minutes later inside a pool worker.
        from ..core.prediction import make_predictor
        from ..queries import parse_query_specs
        from ..queries import QuerySpec
        if isinstance(self.queries, str):
            # A named mix, or a comma-separated list of registry names.
            resolved = scenarios.QUERY_MIXES.get(self.queries)
            if resolved is None:
                resolved = tuple(part.strip()
                                 for part in self.queries.split(",")
                                 if part.strip())
            self.queries = tuple(resolved)
        # Registry names stay plain strings (the historical cell shape);
        # richer entries (spec dicts, (name, kwargs) pairs) canonicalise to
        # hashable QuerySpec objects so cells can still group and pickle.
        self.queries = tuple(
            spec if isinstance(spec, str) else QuerySpec.parse(spec)
            for spec in self.queries)
        parse_query_specs(self.queries)  # eager validation, incl. dup names
        for trace in self.traces:
            if trace not in scenarios.WORKLOADS:
                raise KeyError(f"unknown workload {trace!r}; available: "
                               f"{sorted(scenarios.WORKLOADS)}")
        for overload in self.overloads:
            if not 0.0 <= float(overload) < 1.0:
                raise ValueError("overload K must be in [0, 1)")
        for mode in self.modes:
            canonical = MODE_ALIASES.get(mode, mode)
            if canonical not in MODES:
                raise ValueError(f"unknown mode {mode!r}; valid modes: "
                                 f"{MODES} (aliases: {sorted(MODE_ALIASES)})")
        for strategy in self.strategies:
            runner.system_config(strategy=strategy)  # raises, listing them
        for predictor in self.predictors:
            make_predictor(predictor)
        for shards in self.num_shards:
            if int(shards) < 1:
                raise ValueError("num_shards entries must be >= 1")
        for tenants in self.tenant_counts:
            if int(tenants) < 0:
                raise ValueError("tenant_counts entries must be >= 0")
            if int(tenants) > len(self.queries):
                raise ValueError(
                    f"tenant_counts entry {int(tenants)} exceeds the "
                    f"{len(self.queries)} queries available to spread "
                    "across tenants")

    def cells(self) -> List[ScenarioCell]:
        """Expand the grid into deterministically-seeded cells."""
        expanded: List[ScenarioCell] = []
        for (trace, overload, mode, strategy, predictor, shards,
             tenants) in product(
                self.traces, self.overloads, self.modes, self.strategies,
                self.predictors, self.num_shards, self.tenant_counts):
            cell = ScenarioCell(
                trace=trace,
                overload=float(overload),
                mode=MODE_ALIASES.get(mode, mode),
                strategy=strategy,
                predictor=predictor,
                queries=tuple(self.queries),
                scale=float(self.scale),
                time_bin=float(self.time_bin),
                num_shards=int(shards),
                tenant_count=int(tenants),
            )
            expanded.append(replace(
                cell, seed=derive_seed(self.base_seed, cell.cell_id)))
        return expanded

    def __len__(self) -> int:
        return (len(self.traces) * len(self.overloads) * len(self.modes) *
                len(self.strategies) * len(self.predictors) *
                len(self.num_shards) * len(self.tenant_counts))

    def trace_seed(self, trace: str) -> int:
        """Seed used to synthesise a workload trace of this matrix."""
        return derive_seed(self.base_seed, f"trace:{trace}")


# ----------------------------------------------------------------------
# Cell execution (runs in worker processes)
# ----------------------------------------------------------------------
#: Per-process memo of synthesised traces, keyed by (name, seed, scale).
#: Populated in the parent before the pool forks, so workers inherit the
#: traces copy-on-write instead of re-synthesising them.
_TRACE_MEMO: Dict[Tuple[str, int, float], PacketTrace] = {}


def _memoised_trace(name: str, seed: int, scale: float) -> PacketTrace:
    key = (name, seed, scale)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = scenarios.build_workload(name, seed=seed, scale=scale)
        _TRACE_MEMO[key] = trace
    return trace


def clear_caches() -> None:
    """Drop memoised traces (and the derived caches they pin).

    Benchmarks call this to time cold starts; long-lived processes sweeping
    many distinct (workload, seed, scale) combinations should call it
    between sweeps, since the memo grows with every distinct trace.
    """
    _TRACE_MEMO.clear()


def _execute_cell(job: Tuple[ScenarioCell, int, float]) -> ExecutionResult:
    """Run one cell; pure function of the job spec (bit-reproducible)."""
    cell, trace_seed, capacity = job
    trace = _memoised_trace(cell.trace, trace_seed, cell.scale)
    return runner.run_system(
        cell.queries, trace, capacity * (1.0 - cell.overload),
        time_bin=cell.time_bin, config=cell.to_config())


# ----------------------------------------------------------------------
# Structured results
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """Execution summary of one cell, joined against its reference."""

    cell: ScenarioCell
    capacity: float
    result: ExecutionResult
    drop_fraction: float
    mean_sampling_rate: float
    accuracy: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        values = list(self.accuracy.values())
        return float(np.mean(values)) if values else 1.0

    def to_row(self) -> Dict[str, object]:
        return {
            "trace": self.cell.trace,
            "overload": self.cell.overload,
            "mode": self.cell.mode,
            "strategy": self.cell.strategy,
            "predictor": self.cell.predictor,
            "num_shards": self.cell.num_shards,
            "tenant_count": self.cell.tenant_count,
            "drop_fraction": self.drop_fraction,
            "mean_sampling_rate": self.mean_sampling_rate,
            "mean_accuracy": self.mean_accuracy,
        }


class MatrixResult:
    """All cell results of a matrix run, with slicing helpers."""

    def __init__(self, cells: List[CellResult],
                 references: Dict[Tuple, ExecutionResult]) -> None:
        self.cells = cells
        self.references = references

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def select(self, **axes) -> List[CellResult]:
        """Cells whose coordinates match every given axis value.

        ``result.select(trace="ddos", mode="predictive")``
        """
        selected = []
        for cell_result in self.cells:
            if all(getattr(cell_result.cell, axis) == value
                   for axis, value in axes.items()):
                selected.append(cell_result)
        return selected

    def reference_for(self, cell: ScenarioCell) -> ExecutionResult:
        return self.references[cell.group_key()]

    def to_rows(self) -> List[Dict[str, object]]:
        return [cell_result.to_row() for cell_result in self.cells]

    def summary(self) -> str:
        from . import reporting
        return reporting.format_table(
            self.to_rows(),
            ["trace", "overload", "mode", "strategy", "drop_fraction",
             "mean_sampling_rate", "mean_accuracy"],
            title="Scenario matrix")


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ParallelRunner:
    """Executes a :class:`ScenarioMatrix`, sharding cells across processes.

    Shared work is hoisted out of the cells first: each trace group is
    synthesised and calibrated exactly once (the naive serial idiom repeats
    both per cell).  The per-cell executions are then either run inline
    (``n_workers <= 1``) or submitted to a ``ProcessPoolExecutor``; both
    paths call the same pure job function, so their results are identical
    bit for bit.

    Parameters
    ----------
    n_workers:
        Pool size; ``None`` uses the machine's CPU count, ``0``/``1`` runs
        serially in-process.
    quantile:
        Calibration quantile handed to
        :func:`~repro.experiments.runner.calibrate_capacity`.
    respect_cores:
        Clamp the pool to the host's core count (default).  Pass ``False``
        to force a pool of exactly ``n_workers`` processes, e.g. to exercise
        the fork path on a single-core machine.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 quantile: float = 0.95,
                 respect_cores: bool = True) -> None:
        self.n_workers = (os.cpu_count() or 1) if n_workers is None \
            else int(n_workers)
        self.quantile = float(quantile)
        self.respect_cores = bool(respect_cores)

    # ------------------------------------------------------------------
    def run(self, matrix: ScenarioMatrix) -> MatrixResult:
        """Run every cell of the matrix and join accuracies per group."""
        cells = matrix.cells()
        contexts = self._prepare_groups(matrix, cells)
        jobs = [(cell, matrix.trace_seed(cell.trace),
                 contexts[cell.group_key()][0]) for cell in cells]
        executions = self._execute(jobs)
        references = {key: reference
                      for key, (_, reference) in contexts.items()}
        results: List[CellResult] = []
        for cell, execution in zip(cells, executions):
            capacity, reference = contexts[cell.group_key()]
            results.append(CellResult(
                cell=cell,
                capacity=capacity,
                result=execution,
                drop_fraction=execution.drop_fraction,
                mean_sampling_rate=execution.mean_sampling_rate(),
                accuracy=runner.accuracy_by_query(
                    execution, reference, cell.to_config().query_kinds()),
            ))
        return MatrixResult(results, references)

    # ------------------------------------------------------------------
    def _prepare_groups(self, matrix: ScenarioMatrix,
                        cells: Iterable[ScenarioCell]
                        ) -> Dict[Tuple, Tuple[float, ExecutionResult]]:
        """Synthesise and calibrate each trace group once."""
        contexts: Dict[Tuple, Tuple[float, ExecutionResult]] = {}
        for cell in cells:
            key = cell.group_key()
            if key in contexts:
                continue
            trace = _memoised_trace(cell.trace, matrix.trace_seed(cell.trace),
                                    cell.scale)
            capacity, reference = runner.calibrate_capacity(
                cell.queries, trace, time_bin=cell.time_bin,
                quantile=self.quantile)
            contexts[key] = (capacity, reference)
        return contexts

    def _execute(self, jobs: List[Tuple[ScenarioCell, int, float]]
                 ) -> List[ExecutionResult]:
        # Results do not depend on the pool size (or on whether a pool is
        # used at all) — every path runs the same pure job function, and
        # the fork-pool helper clamps the pool to the host's cores unless
        # the caller opts out.
        return fork_pool_map(_execute_cell, jobs, self.n_workers,
                             respect_cores=self.respect_cores)


def run_matrix(matrix: ScenarioMatrix,
               n_workers: Optional[int] = None) -> MatrixResult:
    """Convenience wrapper: ``ParallelRunner(n_workers).run(matrix)``."""
    return ParallelRunner(n_workers=n_workers).run(matrix)


__all__ = [
    "DEFAULT_QUERY_SET",
    "CellResult",
    "MatrixResult",
    "ParallelRunner",
    "ScenarioCell",
    "ScenarioMatrix",
    "clear_caches",
    "derive_seed",
    "run_matrix",
]
