"""Experiment harness: one function per table and figure of the evaluation.

Each function is named after the table or figure it regenerates
(``chapter4.figure_4_2_drops``, ``chapter5.table_5_2_min_srates``, ...);
``benchmarks/bench_chapterN.py`` runs chapter N's and asserts the shapes the
paper reports.  A comparison of systems has the paper's shape (Section
5.5.3): one :func:`runner.calibrate_capacity` per trace and query set,
then one :func:`runner.run_system` per system compared, at ``(1 - K)``
times that capacity.
"""

from importlib import import_module

from . import runner, scenarios

#: Imported on first attribute access: the CLIs (``repro.replay``,
#: ``repro.serve``, ``repro.fleet``) and the fleet runner reach this
#: package for ``runner``, and every CLI call and benchmark child would
#: otherwise pay for the five chapter harnesses too.
_ON_DEMAND = ("chapter2", "chapter3", "chapter4", "chapter5", "chapter6",
              "reporting")


def __getattr__(name: str):
    if name in _ON_DEMAND:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
