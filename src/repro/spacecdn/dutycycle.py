"""Duty-cycled satellite caching (paper §5 and Fig. 8).

Satellites cannot all cache all the time (power/thermal budget), so only a
fraction x of the fleet serves as caches in each duty-cycle slot; the rest
relay requests over ISLs to the nearest active cache. The scheduler below
draws a fresh pseudo-random active subset per slot, deterministically from
the experiment seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    MIN_ELEVATION_USER_DEG,
    SPEED_OF_LIGHT_KM_S,
    STARLINK_PROCESSING_DELAY_MS,
    STARLINK_SCHEDULING_DELAY_MS,
)
from repro.errors import ConfigurationError, UnavailableError
from repro.geo.coordinates import GeoPoint
from repro.obs.recorder import get_recorder
from repro.orbits.visibility import nearest_visible_satellites
from repro.spacecdn.lookup import LookupResult, SpaceCdnLookup, nearest_cached_satellite
from repro.topology.graph import SnapshotGraph, access_latency_ms


@dataclass
class DutyCycleScheduler:
    """Selects which satellites cache during each duty-cycle slot."""

    total_satellites: int
    cache_fraction: float
    slot_duration_s: float = 600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_satellites < 1:
            raise ConfigurationError("need at least one satellite")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ConfigurationError(
                f"cache_fraction must be in (0, 1], got {self.cache_fraction}"
            )
        if self.slot_duration_s <= 0:
            raise ConfigurationError("slot duration must be positive")

    @property
    def caches_per_slot(self) -> int:
        """Number of active caches in any slot (at least one)."""
        return max(1, round(self.total_satellites * self.cache_fraction))

    def slot_index(self, t_s: float) -> int:
        """Which duty-cycle slot the instant ``t_s`` falls in."""
        if t_s < 0:
            raise ConfigurationError(f"negative time: {t_s}")
        return int(t_s // self.slot_duration_s)

    def active_caches(self, slot: int) -> frozenset[int]:
        """The cache set for a slot — deterministic in (seed, slot)."""
        if slot < 0:
            raise ConfigurationError(f"negative slot: {slot}")
        rng = np.random.default_rng((self.seed, slot))
        chosen = rng.choice(
            self.total_satellites, size=self.caches_per_slot, replace=False
        )
        return frozenset(int(i) for i in chosen)

    def active_caches_at(self, t_s: float) -> frozenset[int]:
        """The cache set active at time ``t_s``."""
        return self.active_caches(self.slot_index(t_s))


@dataclass
class DutyCycleLatencyModel:
    """Evaluates user-perceived latency under a duty-cycling cache fleet.

    Requests always reach content in space here (Fig. 8 assumes the fleet as
    a whole holds the object; what varies is how far the nearest *active*
    cache is), so ``max_hops`` is unbounded by default. ``failed`` layers a
    fault set on top of the duty cycle: failed satellites neither cache nor
    relay nor accept terminals, so the chaos experiments can sweep outage
    fractions over the Fig. 8 pipeline without touching it.
    """

    snapshot: SnapshotGraph
    scheduler: DutyCycleScheduler
    max_hops: int = 64
    failed: frozenset[int] = frozenset()
    _lookup: SpaceCdnLookup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.scheduler.total_satellites != len(self.snapshot.constellation):
            raise ConfigurationError(
                "scheduler fleet size does not match the snapshot constellation"
            )
        if self.failed:
            from repro.spacecdn.resilience import fail_satellites

            self.snapshot = fail_satellites(self.snapshot, self.failed)
        self._lookup = SpaceCdnLookup(snapshot=self.snapshot, max_hops=self.max_hops)

    def _active_caches(self) -> frozenset[int]:
        """The duty-cycle cache set minus satellites lost to faults."""
        return self.scheduler.active_caches_at(self.snapshot.t_s) - self.failed

    def lookup(
        self,
        user: GeoPoint,
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> LookupResult:
        """Resolve a request at the snapshot instant under the active cache set."""
        rec = get_recorder()
        with rec.timer("dutycycle.lookup"):
            caches = self._active_caches()
            if not self.failed:
                result = self._lookup.lookup_from_point(
                    user, caches, min_elevation_deg
                )
            else:
                live = self._live_access(user, min_elevation_deg)
                result = self._lookup.lookup(
                    access_satellite=live.index,
                    access_one_way_ms=access_latency_ms(live.slant_range_km),
                    cache_satellites=caches,
                )
        if rec.enabled:
            rec.inc(
                "repro_dutycycle_lookups_total",
                (("source", result.source.value),),
            )
        return result

    def _live_access(self, user: GeoPoint, min_elevation_deg: float):
        """The nearest visible satellite that is not failed."""
        from repro.orbits.visibility import visible_satellites

        candidates = visible_satellites(
            self.snapshot.constellation, user, self.snapshot.t_s, min_elevation_deg
        )
        for candidate in candidates:
            if candidate.index not in self.failed:
                return candidate
        raise UnavailableError(
            f"no live satellite visible from ({user.lat_deg:.1f}, "
            f"{user.lon_deg:.1f}) with {len(self.failed)} satellites failed"
        )

    def one_way_ms(self, user: GeoPoint) -> float:
        """Convenience: the one-way latency of :meth:`lookup`."""
        return self.lookup(user).one_way_ms

    def one_way_ms_batch(
        self,
        users: list[GeoPoint],
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> np.ndarray:
        """One-way latency for many users of one snapshot, vectorised.

        Equivalent to calling :meth:`one_way_ms` per user: access the
        nearest visible satellite, then relay to the cheapest active cache
        within ``max_hops`` (ground fallback if none). All access links are
        resolved in one visibility pass and the ISL legs are shared across
        users behind the same access satellite. Users whose nearest visible
        satellite failed re-home to their nearest *live* one; a user with no
        live satellite overhead raises
        :class:`~repro.errors.UnavailableError`.
        """
        rec = get_recorder()
        with rec.timer("dutycycle.one_way_ms_batch"):
            caches = self._active_caches()
            access_idx, slant_km = nearest_visible_satellites(
                self.snapshot.constellation,
                users,
                self.snapshot.t_s,
                min_elevation_deg,
            )
            if self.failed:
                access_idx = access_idx.copy()
                slant_km = slant_km.copy()
                for i, access in enumerate(access_idx):
                    if int(access) in self.failed:
                        live = self._live_access(users[i], min_elevation_deg)
                        access_idx[i] = live.index
                        slant_km[i] = live.slant_range_km
            access_ms = (
                slant_km / SPEED_OF_LIGHT_KM_S * 1000.0
                + STARLINK_SCHEDULING_DELAY_MS
                + STARLINK_PROCESSING_DELAY_MS
            )

            unique_access, inverse = np.unique(access_idx, return_inverse=True)
            isl_ms = np.zeros(len(unique_access))
            grounded = np.zeros(len(unique_access), dtype=bool)
            for k, access in enumerate(unique_access):
                if int(access) in caches:
                    continue
                found = nearest_cached_satellite(
                    self.snapshot, int(access), caches, self._lookup.max_hops
                )
                if found is None:
                    grounded[k] = True
                else:
                    isl_ms[k] = found[2]

            one_way = access_ms + isl_ms[inverse]
            fallback = grounded[inverse]
            one_way[fallback] = self._lookup.ground_fallback_one_way_ms
        if rec.enabled:
            grounded_n = int(fallback.sum())
            if grounded_n:
                rec.inc(
                    "repro_dutycycle_lookups_total",
                    (("source", "ground"),),
                    float(grounded_n),
                )
            if len(users) - grounded_n:
                rec.inc(
                    "repro_dutycycle_lookups_total",
                    (("source", "space"),),
                    float(len(users) - grounded_n),
                )
        return one_way
