"""The byte-capacity bounded LRU cache and the satellite holders index.

A cache stores :class:`~repro.cdn.content.ContentObject` values keyed by
object id, evicts least recently used objects to stay within a byte budget,
and keeps running :class:`CacheStats`. Every on-satellite cache is one of
these — the paper's point is that the *placement*, not the cache machinery,
is what changes in space.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.cdn.content import ContentObject
from repro.errors import CacheError
from repro.obs.recorder import get_recorder

_CACHE_OP_LABELS = {
    op: (("op", op),) for op in ("hit", "miss", "insert", "evict")
}


@dataclass
class CacheStats:
    """Running counters for one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


class Cache:
    """Byte-bounded LRU object cache.

    ``_objects`` is kept in recency order, least recently used first: a hit
    or a re-put moves an object to the end, and eviction pops the front.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise CacheError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.stats = CacheStats()
        self._objects: OrderedDict[str, ContentObject] = OrderedDict()

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def object_ids(self) -> set[str]:
        """Ids currently cached."""
        return set(self._objects)

    def get(self, object_id: str) -> ContentObject | None:
        """Look an object up, updating hit/miss statistics and recency."""
        obj = self._objects.get(object_id)
        rec = get_recorder()
        if obj is None:
            self.stats.misses += 1
            if rec.enabled:
                rec.inc("repro_cache_ops_total", _CACHE_OP_LABELS["miss"])
            return None
        self.stats.hits += 1
        if rec.enabled:
            rec.inc("repro_cache_ops_total", _CACHE_OP_LABELS["hit"])
        self._objects.move_to_end(object_id)
        return obj

    def put(self, obj: ContentObject) -> list[str]:
        """Insert an object, evicting as needed; returns evicted ids.

        Re-inserting a cached id refreshes its recency. Objects larger than
        the whole cache raise :class:`CacheError`.
        """
        if obj.size_bytes > self.capacity_bytes:
            raise CacheError(
                f"object {obj.object_id!r} ({obj.size_bytes} B) exceeds cache "
                f"capacity ({self.capacity_bytes} B)"
            )
        if obj.object_id in self._objects:
            self._objects.move_to_end(obj.object_id)
            return []

        evicted: list[str] = []
        while self.used_bytes + obj.size_bytes > self.capacity_bytes:
            victim, victim_obj = self._objects.popitem(last=False)
            self.used_bytes -= victim_obj.size_bytes
            evicted.append(victim)
            self.stats.evictions += 1
        self._objects[obj.object_id] = obj
        self.used_bytes += obj.size_bytes
        self.stats.insertions += 1
        rec = get_recorder()
        if rec.enabled:
            rec.inc("repro_cache_ops_total", _CACHE_OP_LABELS["insert"])
            if evicted:
                rec.inc(
                    "repro_cache_ops_total",
                    _CACHE_OP_LABELS["evict"],
                    float(len(evicted)),
                )
        return evicted

    def clear(self) -> None:
        """Drop every object (statistics are preserved)."""
        self._objects.clear()
        self.used_bytes = 0


class HoldersIndex:
    """Reverse content index: which satellites currently hold which objects.

    The request-level system maintains one of these alongside its
    per-satellite caches; every cache insert/evict/wipe flows through
    :meth:`add` / :meth:`discard` / :meth:`drop_satellite`, so the index is
    exact by construction — a satellite appears in ``holders(object_id)``
    if and only if its cache holds the object right now.
    """

    def __init__(self) -> None:
        self._holders: dict[str, set[int]] = {}

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._holders

    def __len__(self) -> int:
        return len(self._holders)

    def holders(self, object_id: str) -> frozenset[int]:
        """Satellites currently caching ``object_id`` (empty when none)."""
        return frozenset(self._holders.get(object_id, ()))

    def add(self, object_id: str, satellite: int) -> None:
        """Record that ``satellite``'s cache now holds ``object_id``."""
        self._holders.setdefault(object_id, set()).add(satellite)

    def discard(self, object_id: str, satellite: int) -> None:
        """Record that ``satellite``'s cache dropped ``object_id``."""
        holders = self._holders.get(object_id)
        if holders is None:
            return
        holders.discard(satellite)
        if not holders:
            del self._holders[object_id]

    def drop_satellite(self, satellite: int, object_ids: Iterable[str]) -> None:
        """Remove one satellite from the holder sets of ``object_ids``.

        The cache-wipe primitive (duty-cycle exit, power loss): the caller
        passes the wiped cache's contents so the index never retains a
        satellite whose cache no longer holds the object.
        """
        for object_id in object_ids:
            self.discard(object_id, satellite)
