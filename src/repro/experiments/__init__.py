"""Experiment harness: one function per table and figure of the evaluation.

Each function is named after the table or figure it regenerates
(``chapter4.figure_4_2_drops``, ``chapter5.table_5_2_min_srates``, ...);
``benchmarks/bench_chapterN.py`` runs chapter N's and asserts the shapes the
paper reports.  A comparison of systems has the paper's shape (Section
5.5.3): one :func:`runner.calibrate_capacity` per trace and query set,
then one run per system compared, at ``(1 - K)`` times that capacity:
``runner.system_config(queries=..., mode=..., cycles_per_second=...)
.build().run(trace)``.
"""

from .. import _lazy_facade

#: Each module is imported on first attribute access: the CLIs
#: (``repro.replay``, ``repro.serve``, ``repro.fleet``) and the fleet runner
#: reach this package for ``runner`` alone, and every CLI call and
#: benchmark child would otherwise pay for the five chapter harnesses too.
__getattr__, __dir__ = _lazy_facade(__name__, {}, submodules=(
    "chapter2", "chapter3", "chapter4", "chapter5", "chapter6", "reporting",
    "runner", "scenarios"))

__all__ = [
    "chapter2",
    "chapter3",
    "chapter4",
    "chapter5",
    "chapter6",
    "reporting",
    "runner",
    "scenarios",
]
