"""Experiment harness: one function per table and figure of the evaluation.

The mapping between the paper's tables/figures, the functions here and the
benchmark targets lives in ``DESIGN.md`` (Section 4); measured-versus-paper
results are recorded in ``EXPERIMENTS.md``.
"""

from importlib import import_module

from . import parallel, runner, scenarios

#: Imported on first attribute access: the fleet tier reaches this package
#: for its process pool (``parallel``), and every forked job, CLI call and
#: benchmark child would otherwise pay for the five chapter harnesses too.
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
    "parallel",
    "reporting",
    "runner",
    "scenarios",
]
