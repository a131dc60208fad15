"""Standard CoMo query set (Table 2.2) plus the Chapter 6 misbehaving variants.

:func:`make_query` returns a fresh instance of one query of the set used
throughout the evaluation, by its registry name.

On top of the name registry sits the declarative :class:`QuerySpec` layer: a
frozen, hashable, JSON-serialisable value object naming a query *kind*, its
constructor keyword arguments and an optional packet-filter expression.
Specs are what :class:`repro.SystemConfig` carries in its ``queries`` field,
what shard and fleet workers build their queries from, and what the
``python -m repro.replay --queries`` flag parses — one type from the shell
to the shard workers.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from .. import _lazy_facade
from ..monitor import filters as filter_lib
from ..monitor.filters import Filter
from ..monitor.query import Query

#: Each query class is imported when it is first looked up, here or through
#: :data:`QUERY_CLASSES`: a process loads the modules of the kinds it runs.
__getattr__, __dir__ = _lazy_facade(__name__, {
    "application": ("ApplicationQuery",),
    "autofocus": ("AutofocusQuery",),
    "counter": ("CounterQuery",),
    "flows": ("FlowsQuery",),
    "high_watermark": ("HighWatermarkQuery",),
    "p2p_detector": ("BuggyP2PDetectorQuery", "P2PDetectorQuery",
                     "SelfishP2PDetectorQuery"),
    "pattern_search": ("PatternSearchQuery",),
    "super_sources": ("SuperSourcesQuery",),
    "top_k": ("TopKQuery",),
    "trace": ("TraceQuery",),
})

__all__ = [
    "ApplicationQuery",
    "AutofocusQuery",
    "CounterQuery",
    "FlowsQuery",
    "HighWatermarkQuery",
    "P2PDetectorQuery",
    "SelfishP2PDetectorQuery",
    "BuggyP2PDetectorQuery",
    "PatternSearchQuery",
    "SuperSourcesQuery",
    "TopKQuery",
    "TraceQuery",
    "QUERY_CLASSES",
    "MERGE_EXACTNESS",
    "MERGE_EXACT_KINDS",
    "QuerySpec",
    "make_query",
    "load_query_specs",
    "parse_filter",
    "parse_query_specs",
]


class _QueryClasses(Mapping):
    """Read-only kind -> class table; a class is imported on first lookup.

    Membership, iteration and ``len`` read the kinds alone, so checking or
    listing a kind imports nothing.
    """

    def __init__(self, class_names: Dict[str, str]) -> None:
        self._class_names = class_names

    def __getitem__(self, kind: str) -> type:
        return getattr(sys.modules[__name__], self._class_names[kind])

    def __contains__(self, kind: object) -> bool:
        return kind in self._class_names

    def __iter__(self) -> Iterator[str]:
        return iter(self._class_names)

    def __len__(self) -> int:
        return len(self._class_names)


#: Name -> class for the standard query set.
QUERY_CLASSES: Mapping[str, type] = _QueryClasses({
    "application": "ApplicationQuery",
    "autofocus": "AutofocusQuery",
    "counter": "CounterQuery",
    "flows": "FlowsQuery",
    "high-watermark": "HighWatermarkQuery",
    "p2p-detector": "P2PDetectorQuery",
    "pattern-search": "PatternSearchQuery",
    "super-sources": "SuperSourcesQuery",
    "top-k": "TopKQuery",
    "trace": "TraceQuery",
})

#: Merge exactness per query kind at the *fleet* tier: how the
#: ``RESULT_MERGE`` fold of the finished results of independent monitors,
#: each on a flow-affine partition, relates to a single monitor over the
#: whole stream.  (The shards of one node do not go through it: they hand
#: over mergeable partials and merge exactly, for every kind.)
#: ``"exact"`` — bit-identical result values (per-flow state never spans
#: partitions, counters sum).  ``"prefix"`` — the merged ranking is an
#: exact prefix of the whole-stream one with exact volumes (top-k, once the
#: widest member ranking fixes the recovered ``k``).  ``"union"`` — the
#: merged report is the union of per-partition reports (autofocus clusters;
#: per-partition thresholds differ from the global one).  ``"bounded"`` — a
#: deterministic ``[true, N * true]`` bracket (high-watermark peaks sum
#: across partitions; a source's distinct-destination counts can double
#: count).  The fleet tier's federated≡single-node identity check covers
#: exactly the ``"exact"`` kinds (:data:`MERGE_EXACT_KINDS`).
MERGE_EXACTNESS: Dict[str, str] = {
    "application": "exact",
    "autofocus": "union",
    "counter": "exact",
    "flows": "exact",
    "high-watermark": "bounded",
    "p2p-detector": "exact",
    "pattern-search": "exact",
    "super-sources": "bounded",
    "top-k": "prefix",
    "trace": "exact",
}

#: Kinds whose federated result is bit-identical to a single-node run.
MERGE_EXACT_KINDS: Tuple[str, ...] = tuple(sorted(
    kind for kind, exactness in MERGE_EXACTNESS.items()
    if exactness == "exact"))

#: The seven queries of the Chapter 3/4 validation (Table 3.2).
VALIDATION_SEVEN = (
    "application", "counter", "flows", "high-watermark",
    "pattern-search", "top-k", "trace",
)

#: The nine queries of the Chapter 5 evaluation (Table 5.2).
EVALUATION_NINE = (
    "application", "autofocus", "counter", "flows", "high-watermark",
    "pattern-search", "super-sources", "top-k", "trace",
)


def make_query(kind: str, **kwargs) -> Query:
    """Instantiate one standard query by its registry name.

    Keyword arguments are forwarded to the query constructor; in particular
    ``name=...`` gives the instance a distinct name so several copies of the
    same query class can run side by side.
    """
    try:
        cls = QUERY_CLASSES[kind]
    except KeyError:
        raise KeyError(f"unknown query {kind!r}; "
                       f"available: {sorted(QUERY_CLASSES)}") from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Declarative filter expressions
# ----------------------------------------------------------------------
def parse_filter(spec: Optional[str]) -> Optional[Filter]:
    """Build a packet filter from a small declarative expression.

    Supported expressions (``None``/``"all"`` mean no filtering):

    ========================  ===========================================
    ``"all"``                 every packet
    ``"tcp"`` / ``"udp"``     by transport protocol
    ``"proto:<n>"``           by IP protocol number
    ``"port:<n>[:dir]"``      by port; ``dir`` is ``src``/``dst``/``either``
    ``"subnet:<net>/<len>"``  by address prefix (integer network)
    ``"size>=<n>"``           by minimum wire size
    ========================  ===========================================
    """
    if spec is None:
        return None
    expression = str(spec).strip()
    if not expression or expression == "all":
        return None
    if expression == "tcp":
        return filter_lib.tcp()
    if expression == "udp":
        return filter_lib.udp()
    if expression.startswith("proto:"):
        return filter_lib.proto(int(expression.split(":", 1)[1]))
    if expression.startswith("port:"):
        parts = expression.split(":")
        direction = parts[2] if len(parts) > 2 else "either"
        return filter_lib.port(int(parts[1]), direction=direction)
    if expression.startswith("subnet:"):
        network, prefix_len = expression.split(":", 1)[1].split("/")
        return filter_lib.subnet(int(network), int(prefix_len))
    if expression.startswith("size>="):
        return filter_lib.size_at_least(int(expression[len("size>="):]))
    raise ValueError(f"unknown filter expression {expression!r}; see "
                     "repro.queries.parse_filter for the supported forms")


# ----------------------------------------------------------------------
# Declarative query specs
# ----------------------------------------------------------------------
#: Tags marking container types inside the canonical (hashable) kwargs
#: encoding, so :func:`_plain` can rebuild dicts as dicts and sequences as
#: lists instead of flattening everything to tuples.
_MAPPING_TAG = "__mapping__"
_SEQUENCE_TAG = "__sequence__"


def _canonical(value: Any) -> Any:
    """Recursively convert lists/dicts to tagged, hashable tuples."""
    if isinstance(value, dict):
        return (_MAPPING_TAG, tuple(sorted((str(k), _canonical(v))
                                           for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return (_SEQUENCE_TAG, tuple(_canonical(item) for item in value))
    return value


def _plain(value: Any) -> Any:
    """Inverse of :func:`_canonical` (sequences come back as lists)."""
    if isinstance(value, tuple) and len(value) == 2:
        if value[0] == _MAPPING_TAG:
            return {key: _plain(item) for key, item in value[1]}
        if value[0] == _SEQUENCE_TAG:
            return [_plain(item) for item in value[1]]
    return value


@dataclass(frozen=True)
class QuerySpec:
    """Declarative description of one query instance.

    A frozen value object — hashable (so scenario grids can group by query
    set) and JSON-serialisable (so it rides inside
    :meth:`repro.SystemConfig.to_dict`).  ``kwargs`` accepts a plain dict at
    construction and is canonicalised to a sorted tuple of pairs; read it
    back with :attr:`arguments`.

    Examples
    --------
    >>> QuerySpec("top-k", {"k": 5, "name": "top-5"})
    QuerySpec(kind='top-k', kwargs=(('k', 5), ('name', 'top-5')), filter=None)
    >>> QuerySpec("counter", filter="tcp").build()
    CounterQuery(name='counter')
    """

    kind: str
    kwargs: Any = field(default=())
    filter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_CLASSES:
            raise KeyError(f"unknown query kind {self.kind!r}; "
                           f"available: {sorted(QUERY_CLASSES)}")
        raw = self.kwargs
        if raw is None:
            raw = ()
        if not isinstance(raw, dict):
            raw = dict(raw)  # pairs round-trip
        # The stored form is the sorted (key, canonical value) pair tuple of
        # the kwargs mapping; nested containers are tagged so .arguments
        # can rebuild dicts as dicts.
        object.__setattr__(self, "kwargs", _canonical(raw)[1])
        if self.filter is not None:
            object.__setattr__(self, "filter", str(self.filter))
            parse_filter(self.filter)  # fail eagerly on bad expressions

    # ------------------------------------------------------------------
    @property
    def arguments(self) -> Dict[str, Any]:
        """The constructor keyword arguments as a plain dict."""
        return {key: _plain(value) for key, value in self.kwargs}

    @property
    def instance_name(self) -> str:
        """The name the built query instance will carry."""
        explicit = self.arguments.get("name")
        return explicit if explicit is not None else self.kind

    def build(self) -> Query:
        """Instantiate the described query (fresh state every call)."""
        kwargs = self.arguments
        packet_filter = parse_filter(self.filter)
        if packet_filter is not None:
            kwargs["packet_filter"] = packet_filter
        return make_query(self.kind, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable representation."""
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kwargs:
            data["kwargs"] = self.arguments
        if self.filter is not None:
            data["filter"] = self.filter
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuerySpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        unknown = sorted(set(data) - {"kind", "kwargs", "filter"})
        if unknown:
            raise ValueError(f"unknown QuerySpec fields {unknown}; valid "
                             "fields: ['filter', 'kind', 'kwargs']")
        return cls(kind=data["kind"], kwargs=data.get("kwargs") or (),
                   filter=data.get("filter"))

    @classmethod
    def parse(cls, spec: Union[str, Dict, Tuple, "QuerySpec"]) -> "QuerySpec":
        """Coerce any accepted spec shape into a :class:`QuerySpec`.

        Accepts an existing spec, a registry name (``"flows"``), a
        ``(name, kwargs)`` pair or
        a dict (``{"kind": ..., "kwargs": ..., "filter": ...}``).
        """
        if isinstance(spec, QuerySpec):
            return spec
        if isinstance(spec, str):
            return cls(kind=spec)
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if isinstance(spec, (tuple, list)) and len(spec) == 2:
            kind, kwargs = spec
            return cls(kind=str(kind), kwargs=dict(kwargs))
        raise TypeError(f"cannot interpret {spec!r} as a query spec")


def parse_query_specs(specs: Union[str, Iterable]) -> Tuple[QuerySpec, ...]:
    """Normalise a query-mix description into a tuple of specs.

    ``specs`` is a comma-separated name string (``"counter,flows,top-k"``)
    or an iterable whose items :meth:`QuerySpec.parse` accepts.  Instance
    names must be unique — two copies of one kind need distinct
    ``name=...`` kwargs.
    """
    if isinstance(specs, str):
        items: Iterable = [part.strip() for part in specs.split(",")
                           if part.strip()]
    else:
        items = specs
    parsed = tuple(QuerySpec.parse(item) for item in items)
    names = [spec.instance_name for spec in parsed]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate query instance names {duplicates}; give repeated "
            "kinds distinct names via kwargs={'name': ...}")
    return parsed


def load_query_specs(path) -> Tuple[QuerySpec, ...]:
    """Load a query mix from a JSON file.

    The document is either a list (of names and/or spec dicts) or an object
    with a ``"queries"`` list — the format ``python -m repro.replay
    --queries specs.json`` consumes.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        if "queries" not in data:
            raise ValueError(f"{path}: expected a list or an object with a "
                             "'queries' key")
        data = data["queries"]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of query specs")
    return parse_query_specs(data)

