"""Stateless packet filters.

Each CoMo query registers a stateless filter applied by the capture process to
the incoming packet stream before the query sees any packet.  Filters here are
small composable predicates that operate on whole batches (vectorised) and
return boolean masks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from .packet import Batch

#: A filter maps a batch to a per-packet boolean mask.
FilterFn = Callable[[Batch], np.ndarray]


class Filter:
    """A named, composable stateless packet filter.

    Filters compose with ``&`` (both must match), ``|`` (either matches) and
    ``~`` (negation), mirroring BPF expression composition.

    ``cache_key`` is an optional string that *uniquely identifies the
    predicate's semantics* (not just its display name).  Only filters with a
    cache key participate in per-batch result sharing inside the monitoring
    system; the factory functions below derive keys from their parameters,
    while hand-written filters stay unshared unless the author opts in.
    """

    def __init__(self, fn: FilterFn, name: str = "filter",
                 cache_key: Optional[str] = None) -> None:
        self._fn = fn
        self.name = name
        self.cache_key = cache_key

    def __call__(self, batch: Batch) -> np.ndarray:
        mask = np.asarray(self._fn(batch), dtype=bool)
        if mask.shape != (len(batch),):
            raise ValueError(
                f"filter {self.name!r} returned mask of shape {mask.shape}, "
                f"expected ({len(batch)},)")
        return mask

    def apply(self, batch: Batch) -> Batch:
        """Return the sub-batch of packets matching the filter.

        When every packet matches, the batch itself is returned (batches are
        immutable), so the broad filters most queries register cost no copy.
        """
        if len(batch) == 0:
            return batch
        mask = self(batch)
        if mask.all():
            return batch
        return batch.select(mask)

    def __and__(self, other: "Filter") -> "Filter":
        return Filter(_Conjunction(self, other),
                      f"({self.name} and {other.name})",
                      cache_key=_combine_keys("and", self, other))

    def __or__(self, other: "Filter") -> "Filter":
        return Filter(_Disjunction(self, other),
                      f"({self.name} or {other.name})",
                      cache_key=_combine_keys("or", self, other))

    def __invert__(self) -> "Filter":
        key = f"not({self.cache_key})" if self.cache_key is not None else None
        return Filter(_Negation(self), f"not {self.name}", cache_key=key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Filter({self.name})"


def _combine_keys(op: str, first: Filter, second: Filter) -> Optional[str]:
    """Cache key of a composition; None when either side is unshared."""
    if first.cache_key is None or second.cache_key is None:
        return None
    return f"{op}({first.cache_key},{second.cache_key})"


# The standard predicates are small callable classes rather than lambdas so
# that filters — and therefore the queries carrying them — pickle cleanly
# across process boundaries (live query arrivals are shipped to persistent
# shard workers over a pipe).
class _Conjunction:
    def __init__(self, first: Filter, second: Filter) -> None:
        self.first, self.second = first, second

    def __call__(self, batch: Batch) -> np.ndarray:
        return self.first(batch) & self.second(batch)


class _Disjunction:
    def __init__(self, first: Filter, second: Filter) -> None:
        self.first, self.second = first, second

    def __call__(self, batch: Batch) -> np.ndarray:
        return self.first(batch) | self.second(batch)


class _Negation:
    def __init__(self, inner: Filter) -> None:
        self.inner = inner

    def __call__(self, batch: Batch) -> np.ndarray:
        return ~self.inner(batch)


class _MatchAll:
    def __call__(self, batch: Batch) -> np.ndarray:
        return np.ones(len(batch), dtype=bool)


class _ProtoEquals:
    def __init__(self, number: int) -> None:
        self.number = number

    def __call__(self, batch: Batch) -> np.ndarray:
        return batch.proto == self.number


class _PortEquals:
    def __init__(self, number: int, direction: str) -> None:
        self.number, self.direction = number, direction

    def __call__(self, batch: Batch) -> np.ndarray:
        if self.direction == "src":
            return batch.src_port == self.number
        if self.direction == "dst":
            return batch.dst_port == self.number
        return (batch.src_port == self.number) | \
            (batch.dst_port == self.number)


class _SubnetMatch:
    def __init__(self, net: np.uint32, mask: np.uint32,
                 direction: str) -> None:
        self.net, self.mask, self.direction = net, mask, direction

    def __call__(self, batch: Batch) -> np.ndarray:
        src = (batch.src_ip & self.mask) == self.net
        if self.direction == "src":
            return src
        dst = (batch.dst_ip & self.mask) == self.net
        if self.direction == "dst":
            return dst
        return src | dst


class _SizeAtLeast:
    def __init__(self, n_bytes: int) -> None:
        self.n_bytes = n_bytes

    def __call__(self, batch: Batch) -> np.ndarray:
        return batch.size >= self.n_bytes


def all_packets() -> Filter:
    """Filter that matches every packet (the common default)."""
    return Filter(_MatchAll(), "all", cache_key="all")


def proto(number: int) -> Filter:
    """Match packets with the given IP protocol number."""
    return Filter(_ProtoEquals(number), f"proto {number}",
                  cache_key=f"proto:{int(number)}")


def tcp() -> Filter:
    from .packet import PROTO_TCP

    return Filter(_ProtoEquals(PROTO_TCP), "tcp",
                  cache_key=f"proto:{int(PROTO_TCP)}")


def udp() -> Filter:
    from .packet import PROTO_UDP

    return Filter(_ProtoEquals(PROTO_UDP), "udp",
                  cache_key=f"proto:{int(PROTO_UDP)}")


def port(number: int, direction: str = "either") -> Filter:
    """Match packets whose source and/or destination port equals ``number``.

    ``direction`` is one of ``"src"``, ``"dst"`` or ``"either"``.
    """
    if direction not in ("src", "dst", "either"):
        raise ValueError(f"unknown direction {direction!r}")
    name = f"port {number}" if direction == "either" else \
        f"{direction} port {number}"
    return Filter(_PortEquals(number, direction), name,
                  cache_key=f"port:{int(number)}:{direction}")


def subnet(network: int, prefix_len: int, direction: str = "either") -> Filter:
    """Match packets whose address falls inside ``network/prefix_len``."""
    if not 0 <= prefix_len <= 32:
        raise ValueError("prefix length must be in [0, 32]")
    if direction not in ("src", "dst", "either"):
        raise ValueError(f"unknown direction {direction!r}")
    mask_value = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len \
        else 0
    mask = np.uint32(mask_value)
    net = np.uint32(network) & mask
    name = f"net {network}/{prefix_len}"
    if direction != "either":
        name = f"{direction} {name}"
    key = f"subnet:{int(net)}/{int(prefix_len)}:{direction}"
    return Filter(_SubnetMatch(net, mask, direction), name, cache_key=key)


def size_at_least(n_bytes: int) -> Filter:
    """Match packets whose wire size is at least ``n_bytes``."""
    return Filter(_SizeAtLeast(n_bytes), f"size >= {n_bytes}",
                  cache_key=f"size>={int(n_bytes)}")


def any_of(filters: Iterable[Filter], name: Optional[str] = None) -> Filter:
    """Disjunction of a non-empty collection of filters."""
    filters = list(filters)
    if not filters:
        raise ValueError("any_of needs at least one filter")
    combined = filters[0]
    for f in filters[1:]:
        combined = combined | f
    if name is not None:
        combined.name = name
    return combined
