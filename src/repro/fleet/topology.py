"""Declarative fleet topologies: N monitor nodes over partitioned traffic.

A :class:`FleetTopology` describes a monitoring fleet the way a
:class:`repro.SystemConfig` describes a single host: a value object that
can be written down (YAML or JSON), validated eagerly, and turned into
runnable pieces — one :class:`~repro.monitor.config.SystemConfig` per node
plus a traffic partition rule.  The schema::

    nodes: 16                  # uniform fleet, or a list of node objects:
    # nodes:
    #   - name: pop-ams        # unique node name
    #     weight: 2.0          # share of the flow-hash space / capacity
    #     overlay:             # per-node SystemConfig field overrides
    #       cycles_per_second: 2.0e8
    #       mode: reactive
    partition_by: flow-hash    # flow-hash | src-prefix | ingress
    prefix_bits: 8             # src-prefix only: prefix width routed on
    defaults:                  # SystemConfig overlay applied to every node
      mode: predictive

Partition modes (all flow-affine, so per-flow query state never spans
nodes — the invariant the ``RESULT_MERGE`` second tier relies on):

``flow-hash``
    Packets route by their 5-tuple hash into buckets sized by node
    ``weight`` — the classic L4 load-balancer fleet.
``src-prefix``
    Packets route by the top ``prefix_bits`` of the source address — a
    fleet of per-prefix vantage points (an aggregation router per /8, say).
``ingress``
    Every source address is pinned to one ingress link and each node owns
    one link — a fleet of border taps.

Each node's cycle budget defaults to its weight-share of the base config's
``cycles_per_second`` (so fleet capacity totals the single-host capacity it
federates against); an ``overlay`` with an explicit ``cycles_per_second``
makes the node's budget independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..monitor.config import SystemConfig
from ..monitor.sharding import shard_seed

#: Supported traffic partition rules.
PARTITION_MODES: Tuple[str, ...] = ("flow-hash", "src-prefix", "ingress")


@dataclass
class NodeSpec:
    """One monitor node of a fleet: a name, a traffic share, an overlay."""

    name: str
    weight: float = 1.0
    overlay: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.weight = float(self.weight)
        if not self.name:
            raise ValueError("fleet nodes need a non-empty name")
        if not self.weight > 0.0:
            raise ValueError(
                f"node {self.name!r}: weight must be > 0, got {self.weight}")
        self.overlay = dict(self.overlay)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"name": self.name}
        if self.weight != 1.0:
            data["weight"] = self.weight
        if self.overlay:
            data["overlay"] = dict(self.overlay)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NodeSpec":
        unknown = set(data) - {"name", "weight", "overlay"}
        if unknown:
            raise ValueError(
                f"unknown node spec keys {sorted(unknown)}; "
                "a node is {name, weight?, overlay?}")
        return cls(name=str(data["name"]),
                   weight=float(data.get("weight", 1.0)),
                   overlay=dict(data.get("overlay", {})))


@dataclass
class FleetTopology:
    """A declarative fleet: node list, partition rule, shared defaults."""

    nodes: Sequence[NodeSpec]
    partition_by: str = "flow-hash"
    prefix_bits: int = 8
    defaults: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        if not self.nodes:
            raise ValueError("a fleet needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate node names: {duplicates}")
        if self.partition_by not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition_by {self.partition_by!r}; "
                f"valid modes: {PARTITION_MODES}")
        self.prefix_bits = int(self.prefix_bits)
        if not 1 <= self.prefix_bits <= 32:
            raise ValueError("prefix_bits must be in [1, 32]")
        self.defaults = dict(self.defaults)
        # Overlay keys must be SystemConfig fields: a topology typo should
        # fail at load time with a helpful message, not at node build time.
        probe = SystemConfig()
        for overlay, owner in ([(self.defaults, "defaults")] +
                               [(node.overlay, f"node {node.name!r}")
                                for node in self.nodes]):
            if overlay:
                try:
                    probe.replace(**self._parsed_overlay(overlay))
                except (TypeError, ValueError) as error:
                    raise ValueError(f"{owner}: {error}") from None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def weights(self) -> Tuple[float, ...]:
        return tuple(node.weight for node in self.nodes)

    @property
    def partition_key(self) -> Tuple:
        """Hashable identity of the partition rule, for the batch memo.

        Two topologies with the same rule share partition cache entries;
        anything that changes packet routing (mode, node count, weights,
        prefix width) changes the key — node overlays do not, since they
        never affect which node a packet lands on.
        """
        return ("fleet", self.partition_by, self.num_nodes, self.weights,
                self.prefix_bits if self.partition_by == "src-prefix"
                else None)

    # ------------------------------------------------------------------
    @staticmethod
    def _parsed_overlay(overlay: Dict[str, object]) -> Dict[str, object]:
        """Resolve overlay values that need parsing (query spec lists)."""
        parsed = dict(overlay)
        if "queries" in parsed and parsed["queries"] is not None:
            from ..queries import parse_query_specs
            parsed["queries"] = parse_query_specs(parsed["queries"])
        return parsed

    def node_configs(self, base: Optional[SystemConfig] = None,
                     force: Optional[Dict[str, object]] = None
                     ) -> List[SystemConfig]:
        """One :class:`SystemConfig` per node, derived from ``base``.

        Overlay order (later wins): ``base`` → topology ``defaults`` →
        the node's ``overlay`` → ``force`` (caller-level overrides, e.g.
        the exactness check pinning every node to reference mode).  A node
        without an explicit ``cycles_per_second`` overlay receives its
        weight-share of the base capacity (the default host capacity when
        the base leaves it ``None``); node seeds derive per index
        with :func:`~repro.monitor.sharding.shard_seed` (node 0 keeps the
        base seed, so a one-node fleet is bit-identical to the single
        host it wraps) unless the overlay pins ``seed`` itself.
        """
        base = base if base is not None else SystemConfig()
        capacity = base.make_budget().cycles_per_second
        total_weight = sum(self.weights)
        configs: List[SystemConfig] = []
        for index, node in enumerate(self.nodes):
            overlay = {**self._parsed_overlay(self.defaults),
                       **self._parsed_overlay(node.overlay)}
            if "cycles_per_second" not in overlay:
                overlay["cycles_per_second"] = (
                    capacity * node.weight / total_weight)
            if "seed" not in overlay:
                overlay["seed"] = shard_seed(base.seed, index)
            if force:
                overlay.update(force)
            configs.append(base.replace(**overlay))
        return configs

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "nodes": [node.to_dict() for node in self.nodes],
            "partition_by": self.partition_by,
        }
        if self.partition_by == "src-prefix":
            data["prefix_bits"] = self.prefix_bits
        if self.defaults:
            data["defaults"] = dict(self.defaults)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetTopology":
        unknown = set(data) - {"nodes", "partition_by", "prefix_bits",
                               "defaults"}
        if unknown:
            raise ValueError(
                f"unknown topology keys {sorted(unknown)}; a topology is "
                "{nodes, partition_by?, prefix_bits?, defaults?}")
        nodes = data.get("nodes")
        if isinstance(nodes, int):
            specs = [NodeSpec(name=f"node{index}") for index in range(nodes)]
        elif isinstance(nodes, (list, tuple)):
            specs = [node if isinstance(node, NodeSpec)
                     else NodeSpec.from_dict(node) for node in nodes]
        else:
            raise ValueError("topology 'nodes' must be an integer count or "
                             "a list of node objects")
        return cls(nodes=specs,
                   partition_by=str(data.get("partition_by", "flow-hash")),
                   prefix_bits=int(data.get("prefix_bits", 8)),
                   defaults=dict(data.get("defaults", {})))

    @classmethod
    def uniform(cls, num_nodes: int, partition_by: str = "flow-hash",
                **kwargs) -> "FleetTopology":
        """An equal-weight fleet of ``num_nodes`` identical nodes."""
        if int(num_nodes) < 1:
            raise ValueError("a fleet needs at least one node")
        return cls(nodes=[NodeSpec(name=f"node{index}")
                          for index in range(int(num_nodes))],
                   partition_by=partition_by, **kwargs)


def load_topology(path: str) -> FleetTopology:
    """Load a topology spec from a YAML or JSON file.

    ``.json`` files parse with the stdlib; ``.yaml``/``.yml`` need PyYAML
    and fail with an actionable error when it is not installed (the JSON
    schema is identical, so any topology can be expressed without it).
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise ImportError(
                f"loading {path!r} needs PyYAML, which is not installed; "
                "write the topology as JSON instead (same schema)"
            ) from None
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"topology file {path!r} must contain a mapping")
    return FleetTopology.from_dict(data)


__all__ = [
    "FleetTopology",
    "NodeSpec",
    "PARTITION_MODES",
    "load_topology",
]
