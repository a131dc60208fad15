"""Typed, serialisable configuration for the monitoring system.

Every knob of :class:`~repro.monitor.system.MonitoringSystem` is captured by
:class:`SystemConfig`, a frozen dataclass that validates its fields eagerly —
a typo'd strategy or predictor name fails at construction with a message
listing the valid options, not minutes later inside the controller.  Because
the config is a plain value object it can be copied (:meth:`replace`),
serialised (:meth:`to_dict` / :meth:`from_dict`) and shipped across process
boundaries, which is what lets the experiment harness, shard and fleet
workers and checkpoints all speak one type instead of threading
``**kwargs`` through four layers.

The canonical operating-mode registry also lives here (the system module
re-exports it), so that config validation does not need to import the system
and create a cycle.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from ..core.cycles import CycleBudget
from ..core.fairness import STRATEGIES
from ..core.prediction import PREDICTOR_KINDS

#: Valid operating modes.
MODES = ("predictive", "reactive", "original", "reference")
#: Aliases accepted for convenience (Chapter 5 names).
MODE_ALIASES = {"no_lshed": "original"}

#: Valid distinct-counting backends for feature extraction.
FEATURE_METHODS = ("bitmap", "exact")


def _unknown_fields_error(unknown: Iterable[str],
                          valid: Iterable[str]) -> ValueError:
    """A strict-keys error naming each unknown field with a close match.

    Hot-reload safety: a daemon rejecting ``{"cycles_per_secnod": ...}``
    must say *which* key is wrong and what was probably meant, because the
    operator gets the message back over an HTTP error, not a traceback.
    """
    valid = sorted(valid)
    described = []
    for key in sorted(unknown):
        matches = difflib.get_close_matches(key, valid, n=1)
        described.append(f"{key!r} (did you mean {matches[0]!r}?)"
                         if matches else repr(key))
    return ValueError(f"unknown SystemConfig field(s) {', '.join(described)}; "
                      f"valid fields: {valid}")


@dataclass(frozen=True)
class SystemConfig:
    """Frozen, validated value object holding every system knob.

    A :class:`~repro.monitor.system.MonitoringSystem` is built from one and
    reads its knobs from it.  ``strategy`` is a name registered in
    :data:`repro.core.fairness.STRATEGIES`.  The cycle budget is stored as
    the scalar ``cycles_per_second`` (``None`` = the default host capacity)
    rather than a :class:`~repro.core.cycles.CycleBudget` object, because the
    per-bin budget is always rebuilt from the execution's ``time_bin`` anyway
    and a scalar keeps the config JSON-serialisable.

    Examples
    --------
    >>> config = SystemConfig(mode="predictive", strategy="mmfs_pkt")
    >>> config = config.replace(cycles_per_second=2e8, seed=7)
    >>> SystemConfig.from_dict(config.to_dict()) == config
    True
    >>> system = config.build(queries)          # doctest: +SKIP
    """

    mode: str = "predictive"
    strategy: str = "eq_srates"
    predictor: str = "mlr"
    cycles_per_second: Optional[float] = None
    support_custom_shedding: bool = True
    feature_method: str = "bitmap"
    measurement_noise: float = 0.0
    system_overhead_fixed: float = 2e4
    system_overhead_per_packet: float = 20.0
    seed: int = 0
    #: Number of flow-hash shards the stream is partitioned over.  ``1``
    #: runs the classic single-system data path; ``> 1`` is honoured by
    #: :class:`~repro.monitor.sharding.ShardedSystem` (and by
    #: ``runner.run_system``, which routes there automatically).
    num_shards: int = 1
    #: Declarative query mix: a tuple of
    #: :class:`repro.queries.QuerySpec` (anything
    #: :func:`repro.queries.parse_query_specs` accepts — a comma-separated
    #: name string, names, spec dicts — is canonicalised at construction).
    #: ``None`` means the query set is supplied as instances at build time;
    #: when set, :meth:`build` (and ``runner.run_system`` /
    #: ``ShardedSystem`` with no explicit queries) instantiates it.
    queries: Optional[Tuple[Any, ...]] = None
    #: Declarative tenant groups: a tuple of
    #: :class:`repro.core.tenancy.TenantGroup` (or dicts), each owning a set
    #: of query specs plus a fair-share weight, optional budget-share
    #: ceiling and minimum-rate floor.  When set and ``queries`` is
    #: ``None``, the query mix is *derived* from the tenants' members, so
    #: every consumer of ``queries`` (runner, shards, serve) works
    #: unchanged; when both are set they must describe the same query set.
    tenants: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        set_ = object.__setattr__  # the dataclass is frozen
        set_(self, "mode", MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; valid modes: "
                             f"{MODES} (aliases: {sorted(MODE_ALIASES)})")
        if not isinstance(self.strategy, str) \
                or self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; valid strategies: "
                f"{sorted(STRATEGIES)} (a strategy is a name: register a "
                "kernel in repro.core.fairness.STRATEGIES to add one)")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor {self.predictor!r}; "
                             f"valid predictors: {PREDICTOR_KINDS}")
        if self.feature_method not in FEATURE_METHODS:
            raise ValueError(
                f"unknown feature_method {self.feature_method!r}; "
                f"valid methods: {FEATURE_METHODS}")
        if self.cycles_per_second is not None:
            set_(self, "cycles_per_second", float(self.cycles_per_second))
            if self.cycles_per_second <= 0:
                raise ValueError("cycles_per_second must be positive or None")
        set_(self, "support_custom_shedding", bool(self.support_custom_shedding))
        set_(self, "measurement_noise", float(self.measurement_noise))
        if self.measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")
        set_(self, "system_overhead_fixed", float(self.system_overhead_fixed))
        set_(self, "system_overhead_per_packet",
             float(self.system_overhead_per_packet))
        set_(self, "seed", int(self.seed))
        set_(self, "num_shards", int(self.num_shards))
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.queries is not None:
            # Deferred import: repro.queries imports the monitor package.
            from ..queries import parse_query_specs
            set_(self, "queries", parse_query_specs(self.queries))
        if self.tenants is not None:
            from ..core.tenancy import parse_tenant_groups
            from ..queries import parse_query_specs
            set_(self, "tenants", parse_tenant_groups(self.tenants))
            if not self.tenants:
                set_(self, "tenants", None)
            else:
                members = parse_query_specs(tuple(
                    spec for group in self.tenants for spec in group.queries))
                if self.queries is None:
                    set_(self, "queries", members)
                elif self.queries != members:
                    raise ValueError(
                        "queries and tenants disagree: when both are set, "
                        "'queries' must list exactly the tenants' member "
                        "specs in tenant order (or be omitted so it is "
                        "derived)")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "SystemConfig":
        """A copy with the given fields changed (and re-validated)."""
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = set(changes) - valid
        if unknown:
            raise _unknown_fields_error(unknown, valid)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Plain, JSON-serialisable dict representation."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        if self.queries is not None:
            data["queries"] = [spec.to_dict() for spec in self.queries]
        if self.tenants is not None:
            data["tenants"] = [group.to_dict() for group in self.tenants]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output (strict keys)."""
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise _unknown_fields_error(unknown, valid)
        return cls(**data)

    # ------------------------------------------------------------------
    def make_budget(self, time_bin: float = 0.1) -> CycleBudget:
        """The :class:`CycleBudget` this config implies for a ``time_bin``."""
        if self.cycles_per_second is None:
            return CycleBudget(time_bin=time_bin)
        return CycleBudget(self.cycles_per_second, time_bin)

    def query_kinds(self) -> Dict[str, str]:
        """Instance name -> registry kind of the declarative ``queries``.

        Accuracy metrics are registered per kind, and a spec may name its
        instance anything (``QuerySpec("counter", {"name": "q00"})``).
        """
        return {spec.instance_name: spec.kind for spec in self.queries or ()}

    def build_queries(self):
        """Fresh query instances for the declarative ``queries`` field.

        Returns ``None`` when the config carries no query specs.  Every
        call builds new instances, so per-shard and per-run state never
        aliases.
        """
        if self.queries is None:
            return None
        return [spec.build() for spec in self.queries]

    def build(self, queries=None) -> "MonitoringSystem":  # noqa: F821
        """Construct a :class:`MonitoringSystem` from this config.

        ``queries`` defaults to instances built from the config's own
        declarative ``queries`` field (when set).  A sharded config
        (``num_shards > 1``) cannot be built from query *instances* —
        every shard needs its own copies — so building one here raises;
        construct a :class:`~repro.monitor.sharding.ShardedSystem` with a
        query factory instead (``runner.run_system`` does this
        automatically).
        """
        from .system import MonitoringSystem
        return MonitoringSystem(self, queries)


__all__ = [
    "FEATURE_METHODS",
    "MODES",
    "MODE_ALIASES",
    "SystemConfig",
]
