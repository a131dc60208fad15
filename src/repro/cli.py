"""Shared command-line surface of the repro entry points.

``python -m repro.replay``, ``python -m repro.serve`` and
``python -m repro.fleet`` all describe the same monitoring system — query
mix, operating mode, sharding layout, bin length — so the flag definitions
and the config-overlay logic live here once and the three CLIs stay in
lockstep by construction.
"""

from __future__ import annotations

import argparse
import os

__all__ = ["add_system_args", "apply_system_args", "resolve_query_specs"]


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
    parser.add_argument("--backend", default=d("auto"),
                        choices=("auto", "inprocess", "workers"),
                        help="shard-execution backend: 'workers' keeps one "
                             "persistent process per shard fed through "
                             "shared memory; 'auto' picks workers when "
                             "--n-workers asks for parallelism the host "
                             "can honour")
    parser.add_argument("--n-workers", type=int, default=d(1),
                        help="worker processes: persistent shard workers "
                             "(replay, serve) or the resident workers the "
                             "fleet's node sessions are dealt onto (fleet); "
                             "1 = serial")
    parser.add_argument("--time-bin", type=float, default=d(0.1),
                        help=h("bin length in seconds"))
    parser.add_argument("--seed", type=int, default=d(0),
                        help=h("system seed"))


def apply_system_args(config, args):
    """Overlay parsed system flags onto ``config`` (``None`` = keep).

    ``args`` is a namespace produced by an :func:`add_system_args` parser;
    every flag the user set (non-``None``) replaces the corresponding
    config field, with ``--queries`` resolved through
    :func:`resolve_query_specs`.  Returns the (re-validated) config.
    """
    overrides = {}
    if args.queries is not None:
        overrides["queries"] = resolve_query_specs(args.queries)
    for flag, config_field in (("mode", "mode"), ("strategy", "strategy"),
                               ("predictor", "predictor"), ("seed", "seed"),
                               ("num_shards", "num_shards"),
                               ("backend", "shard_backend")):
        value = getattr(args, flag)
        if value is not None:
            overrides[config_field] = value
    return config.replace(**overrides) if overrides else config
