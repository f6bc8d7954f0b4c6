"""Document-partitioned shard routing over a versioned range map.

Every document lives on exactly one shard, chosen by a process-stable
hash of its id, so routing replays identically across runs, processes,
and cluster restarts. All replicas of a shard hold the same partition.

Routing is *range-based*: the 63-bit stable-hash space is covered by
contiguous, non-overlapping ranges, each owned by one shard. A
:class:`RouteMap` is an immutable snapshot of that assignment with a
monotonically increasing ``version``; the mutable :class:`ShardRouter`
holds the current map and flips to a successor atomically. Range
ownership is what makes *online resharding* possible (see
:mod:`repro.controlplane`): splitting a shard halves one of its ranges
— only keys in the moved half change owner, nothing else rehashes —
and merging relabels a shard's ranges onto a survivor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.util import stable_hash

__all__ = ["HASH_SPACE", "route_hash", "ShardRange", "RouteMap",
           "ShardRouter"]

#: ``stable_hash`` yields 63-bit values; ranges partition [0, HASH_SPACE).
HASH_SPACE = 1 << 63


def route_hash(doc_id: str) -> int:
    """The routing position of ``doc_id`` in the hash space."""
    return stable_hash("shard-route", doc_id)


@dataclass(frozen=True)
class ShardRange:
    """One contiguous hash range ``[low, high)`` owned by one shard."""

    low: int
    high: int
    shard_id: int

    def __contains__(self, hash_value: int) -> bool:
        return self.low <= hash_value < self.high

    @property
    def width(self) -> int:
        return self.high - self.low


class RouteMap:
    """An immutable, versioned ``hash range -> shard`` assignment.

    In-flight queries pin one snapshot so a concurrent topology change
    can never mix shard layouts within a single scatter-gather.
    """

    __slots__ = ("version", "ranges", "_lows")

    def __init__(self, ranges, version: int) -> None:
        ordered = tuple(sorted(ranges, key=lambda r: r.low))
        if not ordered:
            raise ValueError("a route map needs at least one range")
        cursor = 0
        for entry in ordered:
            if entry.low != cursor or entry.high <= entry.low:
                raise ValueError(
                    "route ranges must tile [0, HASH_SPACE) contiguously"
                )
            cursor = entry.high
        if cursor != HASH_SPACE:
            raise ValueError("route ranges must cover the hash space")
        self.version = version
        self.ranges = _coalesce(ordered)
        self._lows = [entry.low for entry in self.ranges]

    @classmethod
    def initial(cls, num_shards: int) -> "RouteMap":
        """Equal-width ranges for shards ``0..num_shards-1``, version 1."""
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        bounds = [i * HASH_SPACE // num_shards
                  for i in range(num_shards)] + [HASH_SPACE]
        return cls(
            [ShardRange(bounds[i], bounds[i + 1], i)
             for i in range(num_shards)],
            version=1,
        )

    # -- lookups --------------------------------------------------------------

    def shard_of_hash(self, hash_value: int) -> int:
        return self.ranges[
            bisect_right(self._lows, hash_value) - 1].shard_id

    def shard_of(self, doc_id: str) -> int:
        return self.shard_of_hash(route_hash(doc_id))

    @property
    def shard_ids(self) -> tuple:
        """Active shard ids, ascending."""
        return tuple(sorted({entry.shard_id for entry in self.ranges}))

    @property
    def num_shards(self) -> int:
        return len({entry.shard_id for entry in self.ranges})

    def ranges_of(self, shard_id: int) -> tuple:
        owned = tuple(entry for entry in self.ranges
                      if entry.shard_id == shard_id)
        if not owned:
            raise ValueError(f"shard {shard_id} owns no range")
        return owned

    # -- successor maps (the control plane's planning primitives) -------------

    def split(self, shard_id: int, new_shard_id: int) -> tuple:
        """Halve ``shard_id``'s widest range, giving the upper half to
        ``new_shard_id``; returns ``(new_map, moved_range)``.

        Only keys hashing into ``moved_range`` change owner.
        """
        if new_shard_id in self.shard_ids:
            raise ValueError(f"shard {new_shard_id} is already active")
        widest = max(self.ranges_of(shard_id),
                     key=lambda entry: (entry.width, -entry.low))
        if widest.width < 2:
            raise ValueError(f"shard {shard_id} cannot split further")
        mid = (widest.low + widest.high) // 2
        moved = ShardRange(mid, widest.high, new_shard_id)
        ranges = [entry for entry in self.ranges if entry != widest]
        ranges += [ShardRange(widest.low, mid, shard_id), moved]
        return RouteMap(ranges, self.version + 1), moved

    def merge(self, source_id: int, target_id: int) -> tuple:
        """Relabel ``source_id``'s ranges onto ``target_id``; returns
        ``(new_map, moved_ranges)``. ``source_id`` becomes inactive."""
        if source_id == target_id:
            raise ValueError("cannot merge a shard into itself")
        moved = self.ranges_of(source_id)
        self.ranges_of(target_id)   # target must be active
        ranges = [
            ShardRange(entry.low, entry.high, target_id)
            if entry.shard_id == source_id else entry
            for entry in self.ranges
        ]
        return RouteMap(ranges, self.version + 1), moved

    def __repr__(self) -> str:
        return (f"RouteMap(version={self.version}, "
                f"shards={list(self.shard_ids)})")


def _coalesce(ordered) -> tuple:
    """Merge adjacent ranges owned by the same shard."""
    merged: list[ShardRange] = []
    for entry in ordered:
        if merged and merged[-1].shard_id == entry.shard_id \
                and merged[-1].high == entry.low:
            merged[-1] = ShardRange(merged[-1].low, entry.high,
                                    entry.shard_id)
        else:
            merged.append(entry)
    return tuple(merged)


class ShardRouter:
    """Hash-based ``doc_id -> shard`` routing behind a versioned map."""

    def __init__(self, num_shards: int) -> None:
        self._route = RouteMap.initial(num_shards)

    @property
    def num_shards(self) -> int:
        return self._route.num_shards

    @property
    def topology_version(self) -> int:
        return self._route.version

    def snapshot(self) -> RouteMap:
        """The current immutable route map; pin one per query."""
        return self._route

    def apply(self, route_map: RouteMap) -> RouteMap:
        """Flip to a successor map (version must advance by exactly one,
        so a plan built on a stale snapshot cannot clobber a newer map)."""
        if route_map.version != self._route.version + 1:
            raise ValueError(
                f"stale route map: version {route_map.version} "
                f"does not succeed {self._route.version}"
            )
        self._route = route_map
        return route_map

    def shard_of(self, doc_id: str) -> int:
        return self._route.shard_of(doc_id)

    def partition(self, doc_ids) -> dict:
        """Group ``doc_ids`` by owning shard: ``{shard_id: [doc_id]}``."""
        route = self.snapshot()
        by_shard: dict[int, list] = {
            shard: [] for shard in route.shard_ids
        }
        for doc_id in doc_ids:
            by_shard[route.shard_of(doc_id)].append(doc_id)
        return by_shard
