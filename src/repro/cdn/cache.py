"""Cache policies: LRU, LFU, FIFO and TTL, all byte-capacity bounded.

Every cache stores :class:`~repro.cdn.content.ContentObject` values keyed by
object id, evicts to stay within a byte budget, and keeps running
:class:`CacheStats`. The same implementations back terrestrial CDN servers
and on-satellite caches — the paper's point is that the *placement*, not the
cache machinery, is what changes in space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, OrderedDict
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

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hit ratio over all requests; 0.0 before any request."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


class Cache(ABC):
    """Byte-bounded object cache with pluggable eviction order."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise CacheError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.stats = CacheStats()
        self._objects: dict[str, ContentObject] = {}

    # -- policy hooks ---------------------------------------------------

    @abstractmethod
    def _on_hit(self, object_id: str) -> None:
        """Update recency/frequency bookkeeping after a hit."""

    @abstractmethod
    def _on_insert(self, object_id: str) -> None:
        """Register a newly inserted object."""

    @abstractmethod
    def _pick_victim(self) -> str:
        """Choose the object id to evict next."""

    @abstractmethod
    def _on_evict(self, object_id: str) -> None:
        """Drop bookkeeping for an evicted object."""

    # -- public API -----------------------------------------------------

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def object_ids(self) -> set[str]:
        """Ids currently cached."""
        return set(self._objects)

    def get(self, object_id: str) -> ContentObject | None:
        """Look an object up, updating hit/miss statistics."""
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
        self._on_hit(object_id)
        return obj

    def peek(self, object_id: str) -> ContentObject | None:
        """Look an object up without touching statistics or recency."""
        return self._objects.get(object_id)

    def put(self, obj: ContentObject) -> list[str]:
        """Insert an object, evicting as needed; returns evicted ids.

        Re-inserting a cached id refreshes its policy position. Objects
        larger than the whole cache raise :class:`CacheError`.
        """
        if obj.size_bytes > self.capacity_bytes:
            raise CacheError(
                f"object {obj.object_id!r} ({obj.size_bytes} B) exceeds cache "
                f"capacity ({self.capacity_bytes} B)"
            )
        if obj.object_id in self._objects:
            self._on_hit(obj.object_id)
            return []

        evicted: list[str] = []
        while self.used_bytes + obj.size_bytes > self.capacity_bytes:
            victim = self._pick_victim()
            evicted.append(victim)
            self._remove(victim)
            self.stats.evictions += 1
        self._objects[obj.object_id] = obj
        self.used_bytes += obj.size_bytes
        self._on_insert(obj.object_id)
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

    def remove(self, object_id: str) -> bool:
        """Explicitly remove an object; returns whether it was present."""
        if object_id not in self._objects:
            return False
        self._remove(object_id)
        return True

    def _remove(self, object_id: str) -> None:
        obj = self._objects.pop(object_id)
        self.used_bytes -= obj.size_bytes
        self._on_evict(object_id)

    def clear(self) -> None:
        """Drop every object (statistics are preserved)."""
        for object_id in list(self._objects):
            self._remove(object_id)


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

    def object_ids(self) -> set[str]:
        """Every object currently cached somewhere."""
        return set(self._holders)

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


class LruCache(Cache):
    """Evicts the least-recently-used object."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._order: OrderedDict[str, None] = OrderedDict()

    def _on_hit(self, object_id: str) -> None:
        self._order.move_to_end(object_id)

    def _on_insert(self, object_id: str) -> None:
        self._order[object_id] = None

    def _pick_victim(self) -> str:
        return next(iter(self._order))

    def _on_evict(self, object_id: str) -> None:
        del self._order[object_id]


class FifoCache(Cache):
    """Evicts in insertion order, ignoring accesses."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._order: OrderedDict[str, None] = OrderedDict()

    def _on_hit(self, object_id: str) -> None:
        pass  # FIFO ignores recency.

    def _on_insert(self, object_id: str) -> None:
        self._order[object_id] = None

    def _pick_victim(self) -> str:
        return next(iter(self._order))

    def _on_evict(self, object_id: str) -> None:
        del self._order[object_id]


class LfuCache(Cache):
    """Evicts the least-frequently-used object (FIFO tie-break)."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._counts: Counter[str] = Counter()
        self._arrival: dict[str, int] = {}
        self._clock = 0

    def _on_hit(self, object_id: str) -> None:
        self._counts[object_id] += 1

    def _on_insert(self, object_id: str) -> None:
        self._counts[object_id] = 1
        self._clock += 1
        self._arrival[object_id] = self._clock

    def _pick_victim(self) -> str:
        return min(
            self._counts, key=lambda oid: (self._counts[oid], self._arrival[oid])
        )

    def _on_evict(self, object_id: str) -> None:
        del self._counts[object_id]
        del self._arrival[object_id]


class TtlCache(LruCache):
    """LRU cache whose entries also expire after ``ttl_s`` of simulated time.

    Time is supplied by the caller via :meth:`advance_to`; expiry is lazy
    (checked on access) plus explicit via :meth:`expire`.
    """

    def __init__(self, capacity_bytes: int, ttl_s: float) -> None:
        if ttl_s <= 0:
            raise CacheError(f"TTL must be positive, got {ttl_s}")
        super().__init__(capacity_bytes)
        self.ttl_s = ttl_s
        self._now_s = 0.0
        self._expiry: dict[str, float] = {}

    def advance_to(self, now_s: float) -> None:
        """Move the cache clock forward (monotonically)."""
        if now_s < self._now_s:
            raise CacheError(f"clock moved backwards: {now_s} < {self._now_s}")
        self._now_s = now_s

    def get(self, object_id: str) -> ContentObject | None:
        expiry = self._expiry.get(object_id)
        if expiry is not None and expiry <= self._now_s:
            self._remove(object_id)
        return super().get(object_id)

    def _on_insert(self, object_id: str) -> None:
        super()._on_insert(object_id)
        self._expiry[object_id] = self._now_s + self.ttl_s

    def _on_evict(self, object_id: str) -> None:
        super()._on_evict(object_id)
        self._expiry.pop(object_id, None)

    def expire(self) -> list[str]:
        """Eagerly drop every expired entry; returns dropped ids."""
        expired = [oid for oid, t in self._expiry.items() if t <= self._now_s]
        for object_id in expired:
            self._remove(object_id)
        return expired
