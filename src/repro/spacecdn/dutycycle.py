"""Duty-cycled satellite caching (paper §5 and Fig. 8).

Satellites cannot all cache all the time (power/thermal budget), so only a
fraction x of the fleet serves as caches in each duty-cycle slot; the rest
relay requests over ISLs to the nearest active cache. The scheduler below
draws a fresh pseudo-random active subset per slot, deterministically from
the experiment seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import ConfigurationError, UnavailableError
from repro.geo.coordinates import GeoPoint
from repro.network.access import access_latency_ms
from repro.obs.recorder import get_recorder
from repro.orbits.visibility import nearest_visible_satellite
from repro.spacecdn.lookup import LookupResult, SpaceCdnLookup
from repro.topology.graph import SnapshotGraph

DUTY_CYCLE_SLOT_S = 600.0
"""How long one duty-cycle cache set stays active."""

DUTY_CYCLE_MAX_HOPS = 64
"""ISL hop radius of the duty-cycle lookup before it falls back to ground."""


@dataclass
class DutyCycleScheduler:
    """Selects which satellites cache during each duty-cycle slot."""

    total_satellites: int
    cache_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_satellites < 1:
            raise ConfigurationError("need at least one satellite")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ConfigurationError(
                f"cache_fraction must be in (0, 1], got {self.cache_fraction}"
            )

    @property
    def caches_per_slot(self) -> int:
        """Number of active caches in any slot (at least one)."""
        return max(1, round(self.total_satellites * self.cache_fraction))

    def slot_index(self, t_s: float) -> int:
        """Which duty-cycle slot the instant ``t_s`` falls in."""
        if not math.isfinite(t_s):
            raise ConfigurationError(f"time must be finite, got {t_s}")
        if t_s < 0:
            raise ConfigurationError(f"negative time: {t_s}")
        return int(t_s // DUTY_CYCLE_SLOT_S)

    def active_caches(self, slot: int) -> frozenset[int]:
        """The cache set for a slot — deterministic in (seed, slot)."""
        if slot < 0:
            raise ConfigurationError(f"negative slot: {slot}")
        rng = np.random.default_rng((self.seed, slot))
        chosen = rng.choice(
            self.total_satellites, size=self.caches_per_slot, replace=False
        )
        return frozenset(chosen.tolist())

    def active_caches_at(self, t_s: float) -> frozenset[int]:
        """The cache set active at time ``t_s``."""
        return self.active_caches(self.slot_index(t_s))


@dataclass
class DutyCycleLatencyModel:
    """Evaluates user-perceived latency under a duty-cycling cache fleet.

    Requests always reach content in space here (Fig. 8 assumes the fleet as
    a whole holds the object; what varies is how far the nearest *active*
    cache is), so its hop radius, :data:`DUTY_CYCLE_MAX_HOPS`, is wide enough
    to be effectively unbounded. ``failed`` layers a
    fault set on top of the duty cycle: failed satellites neither cache nor
    relay nor accept terminals, so the chaos experiments can sweep outage
    fractions over the Fig. 8 pipeline without touching it. ``caches`` is
    the snapshot slot's cache set minus the failed satellites, drawn once
    per model.
    """

    snapshot: SnapshotGraph
    scheduler: DutyCycleScheduler
    failed: frozenset[int] = frozenset()
    caches: frozenset[int] = field(init=False, repr=False)
    _lookup: SpaceCdnLookup = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.scheduler.total_satellites != len(self.snapshot.constellation):
            raise ConfigurationError(
                "scheduler fleet size does not match the snapshot constellation"
            )
        if self.failed:
            from repro.spacecdn.resilience import fail_satellites

            self.snapshot = fail_satellites(self.snapshot, self.failed)
        self.caches = (
            self.scheduler.active_caches_at(self.snapshot.t_s) - self.failed
        )
        self._lookup = SpaceCdnLookup(
            snapshot=self.snapshot, max_hops=DUTY_CYCLE_MAX_HOPS
        )

    def lookup(
        self,
        user: GeoPoint,
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> LookupResult:
        """Resolve a request at the snapshot instant under the active cache set.

        The user enters at the nearest visible satellite; a user whose
        nearest satellite failed re-homes to the nearest *live* one.
        """
        rec = get_recorder()
        with rec.timer("dutycycle.lookup"):
            if self.failed:
                access = self._live_access(user, min_elevation_deg)
            else:
                access = nearest_visible_satellite(
                    self.snapshot.constellation,
                    user,
                    self.snapshot.t_s,
                    min_elevation_deg,
                )
            result = self._lookup.lookup(
                access.index,
                access_latency_ms(access.slant_range_km),
                self.caches,
            )
        _count_sources(rec, [result])
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
        access: tuple[np.ndarray, np.ndarray],
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> np.ndarray:
        """One-way latency for many users of one snapshot.

        ``access`` is the ``(indices, slant_km)`` pair that
        :func:`~repro.orbits.visibility.nearest_visible_satellites` returns
        for ``users`` at this snapshot's instant and ``min_elevation_deg``,
        so callers that evaluate several cache sets over one epoch resolve
        visibility once. Equal, float for float, to calling
        :meth:`one_way_ms` per user: the same resolver runs once over every
        (access satellite, access ms) pair. Users whose nearest visible
        satellite failed re-home to their nearest *live* one; a user with no
        live satellite overhead raises :class:`~repro.errors.UnavailableError`.
        """
        rec = get_recorder()
        with rec.timer("dutycycle.one_way_ms_batch"):
            access_idx, slant_km = access
            if self.failed:
                access_idx = access_idx.copy()
                slant_km = slant_km.copy()
                for i, access in enumerate(access_idx):
                    if int(access) in self.failed:
                        live = self._live_access(users[i], min_elevation_deg)
                        access_idx[i] = live.index
                        slant_km[i] = live.slant_range_km
            results = self._lookup.resolve(
                access_idx, access_latency_ms(slant_km), self.caches
            )
        _count_sources(rec, results)
        return np.array([result.one_way_ms for result in results], dtype=float)


def _count_sources(rec, results: list[LookupResult]) -> None:
    """Count resolved lookups by :class:`~repro.spacecdn.lookup.LookupSource`."""
    if rec.enabled:
        for source, n in Counter(r.source.value for r in results).items():
            rec.inc("repro_dutycycle_lookups_total", (("source", source),), float(n))
