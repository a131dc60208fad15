"""Shared command-line surface of the repro entry points.

``python -m repro.replay``, ``python -m repro.serve`` and
``python -m repro.fleet`` all describe the same monitoring system — query
mix, operating mode, sharding layout, bin length — so the flag definitions
and the config-overlay logic live here once and the three CLIs stay in
lockstep by construction.  The replay and fleet CLIs also share how the
capacity is given: explicitly, or as ``(1 - K)`` times a calibrated
no-shedding capacity (:func:`add_capacity_args`, :func:`resolve_capacity`).
"""

from __future__ import annotations

import argparse
import os

__all__ = ["add_backend_arg", "add_capacity_args", "add_system_args",
           "apply_system_args", "open_trace_arg", "resolve_capacity",
           "resolve_query_specs"]


def resolve_query_specs(value: str):
    """Turn the ``--queries`` argument into a tuple of query specs.

    Resolution order: anything ending in ``.json`` loads as a JSON spec
    file; a known mix name expands from
    :data:`repro.experiments.scenarios.QUERY_MIXES` (mix names always win
    over same-named files, so a stray file in the working directory cannot
    shadow a documented mix); any other existing path loads as a spec
    file; anything else parses as comma-separated registry names.
    """
    from .experiments.scenarios import QUERY_MIXES
    from .queries import load_query_specs, parse_query_specs

    if value.endswith(".json"):
        return load_query_specs(value)
    if value in QUERY_MIXES:
        return parse_query_specs(QUERY_MIXES[value])
    if os.path.exists(value):
        return load_query_specs(value)
    return parse_query_specs(value)


def open_trace_arg(path: str):
    """Open the trace a command line names (v1 ``.npz`` or v2 store).

    Raises ``ValueError`` with a one-line message when there is nothing at
    ``path``, so every CLI refuses a missing trace as it refuses its other
    arguments: one ``error:`` line and exit 2.
    """
    if not os.path.exists(path):
        raise ValueError(f"no trace at {path}: no such file or directory")
    from .traffic.trace_io import open_trace
    return open_trace(path)


def add_system_args(parser: argparse.ArgumentParser,
                    with_defaults: bool = True) -> None:
    """Install the system/sharding flags shared by the repro CLIs.

    With ``with_defaults=False`` every default becomes ``None`` (and the
    help strings stop claiming defaults), which lets a caller overlay
    *only the flags the user actually typed* onto a config loaded from a
    file (:func:`apply_system_args` skips ``None``).
    """
    def d(value):
        return value if with_defaults else None

    def h(text):
        return text + (" (default: %(default)s)" if with_defaults else "")

    parser.add_argument("--queries", default=d("counter,flows,top-k"),
                        help=h("comma-separated query names, a named mix "
                               "from repro.experiments.scenarios."
                               "QUERY_MIXES, or a path to a JSON spec file "
                               "(a list of names and/or {kind, kwargs, "
                               "filter} objects)"))
    parser.add_argument("--mode", default=d("predictive"),
                        help=h("operating mode"))
    parser.add_argument("--strategy", default=None,
                        help="allocation strategy for the predictive mode")
    parser.add_argument("--predictor", default=None,
                        help="cycle predictor kind (mlr, slr, ewma)")
    parser.add_argument("--num-shards", type=int, default=d(1),
                        help="flow-hash shards to partition the stream over")
    parser.add_argument("--n-workers", type=int, default=d(1),
                        help="worker processes: persistent shard workers "
                             "(replay, serve) or the resident workers the "
                             "fleet's node sessions are dealt onto (fleet); "
                             "1 = serial")
    parser.add_argument("--time-bin", type=float, default=d(0.1),
                        help=h("bin length in seconds"))
    parser.add_argument("--seed", type=int, default=d(0),
                        help=h("system seed"))


def add_backend_arg(parser: argparse.ArgumentParser) -> None:
    """Install ``--backend``, how a sharded session's shards execute.

    Like ``--n-workers`` it describes the execution, not the system, so it
    is passed beside the config and never overlaid onto it.
    """
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "inprocess", "workers"),
                        help="shard-execution backend (default: "
                             "%(default)s): 'workers' keeps one persistent "
                             "process per shard fed through memory files; "
                             "'auto' picks workers when --n-workers asks "
                             "for parallelism the host can honour")


def add_capacity_args(parser: argparse.ArgumentParser,
                      overload: float) -> None:
    """Install ``--cycles-per-second`` / ``--overload``, two exclusive ways
    to give the capacity; ``overload`` is the default factor K."""
    capacity = parser.add_mutually_exclusive_group()
    capacity.add_argument("--cycles-per-second", type=float, default=None,
                          help="explicit cycle capacity (a fleet splits it "
                               "across its nodes by weight)")
    capacity.add_argument("--overload", type=float, default=overload,
                          help="overload factor K in [0, 1): capacity is "
                               "(1 - K) x the calibrated no-shedding "
                               "capacity (default: %(default)s)")


def resolve_capacity(config, trace, args) -> float:
    """The cycles per second the :func:`add_capacity_args` flags ask for.

    Either ``--cycles-per-second`` as given, or ``(1 - K)`` times the
    capacity a reference replay of ``trace`` calibrates for
    ``config.queries`` (the paper's overload factor, Section 5.4).
    Raises ``ValueError`` with a one-line message on a capacity that is
    not positive or a K outside ``[0, 1)``.
    """
    if args.cycles_per_second is not None:
        if not args.cycles_per_second > 0:
            raise ValueError(f"--cycles-per-second must be positive, got "
                             f"{args.cycles_per_second:g}")
        return float(args.cycles_per_second)
    if not 0.0 <= args.overload < 1.0:
        raise ValueError("--overload must be in [0, 1)")
    from .experiments.runner import calibrate_capacity
    base, _ = calibrate_capacity(config.queries, trace,
                                 time_bin=args.time_bin)
    return base * (1.0 - args.overload)


def apply_system_args(config, args):
    """Overlay parsed system flags onto ``config`` (``None`` = keep).

    ``args`` is a namespace produced by an :func:`add_system_args` parser;
    every flag the user set (non-``None``) replaces the corresponding
    config field, with ``--queries`` resolved through
    :func:`resolve_query_specs`.  Returns the (re-validated) config.
    ``--n-workers`` and the backend are not config fields, but a count
    below 1, and a worker pool the host cannot run, are refused here too,
    with a one-line ``ValueError``.
    """
    if args.n_workers is not None and args.n_workers < 1:
        raise ValueError(f"--n-workers must be at least 1, got "
                         f"{args.n_workers}")
    # ``--backend`` (replay, serve) or ``--fleet-backend`` (fleet).
    if getattr(args, "backend", None) == "workers" or \
            getattr(args, "fleet_backend", None) == "fork":
        from .monitor.workers import require_pool_host
        require_pool_host()
    overrides = {}
    if args.queries is not None:
        overrides["queries"] = resolve_query_specs(args.queries)
    for flag, config_field in (("mode", "mode"), ("strategy", "strategy"),
                               ("predictor", "predictor"), ("seed", "seed"),
                               ("num_shards", "num_shards")):
        value = getattr(args, flag)
        if value is not None:
            overrides[config_field] = value
    return config.replace(**overrides) if overrides else config
