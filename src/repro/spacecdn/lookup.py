"""Hop-bounded SpaceCDN content lookup (paper Fig. 6).

Resolution order for a user request:

1. the access satellite's own cache ("1st/Sat" in Fig. 7);
2. the minimum-latency caching satellite within ``max_hops`` ISL hops;
3. fallback: down the bent pipe to the ground cache near the gateway.

:meth:`SpaceCdnLookup.resolve` is the one resolver of this ladder; the
single-request :meth:`SpaceCdnLookup.lookup` and the duty-cycle model
(:mod:`repro.spacecdn.dutycycle`) both call it, and it makes one
:func:`nearest_cached_satellite` search for all of its distinct access
satellites. The cache searches share one in-range filter:
:func:`nearest_cached_satellite` (many access satellites, one routing pass
stopped at each one's nearest cache), :func:`ranked_cached_from_rows` (the
serve walk's ranked rungs) and :func:`nearest_cached_batch` (aligned
request rows).

The returned latencies are one-way path latencies from the user terminal;
callers double them (plus server think time) for RTTs.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.constants import GROUND_RTT_MS, MIN_ELEVATION_USER_DEG
from repro.errors import RoutingError
from repro.geo.coordinates import GeoPoint
from repro.network.access import access_latency_ms
from repro.orbits.visibility import nearest_visible_satellite
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph


def _in_range(
    hops: np.ndarray, latencies: np.ndarray, max_hops: int, min_hops: int
) -> np.ndarray:
    """Where a cache qualifies: ``min_hops <= hops <= max_hops``, reachable,
    finite latency. Works on rows and on ``(R, N)`` matrices alike."""
    return (
        (hops >= min_hops)
        & (hops != fastcore.HOP_UNREACHABLE)
        & (hops <= max_hops)
        & np.isfinite(latencies)
    )


def _cache_mask(
    cache_satellites: frozenset[int] | set[int], num_nodes: int
) -> np.ndarray:
    """``(N,)`` boolean mask of the caching satellites; ids outside the
    snapshot never qualify."""
    ids = np.fromiter(cache_satellites, dtype=np.int64, count=len(cache_satellites))
    mask = np.zeros(num_nodes, dtype=bool)
    mask[ids[(ids >= 0) & (ids < num_nodes)]] = True
    return mask


def _candidates(
    hops: np.ndarray,
    latencies: np.ndarray,
    cache_satellites: frozenset[int] | set[int],
    max_hops: int,
    min_hops: int,
    exclude: frozenset[int] = frozenset(),
) -> np.ndarray:
    """In-range caching satellites of one routing row, in index order.

    Satellites outside the row (or already in ``exclude``) never qualify.
    """
    keep = _cache_mask(cache_satellites, hops.shape[0])
    if exclude:
        keep &= ~_cache_mask(exclude, hops.shape[0])
    candidates = np.flatnonzero(keep)
    return candidates[
        _in_range(hops[candidates], latencies[candidates], max_hops, min_hops)
    ]


def _cheapest(
    eligible: np.ndarray, latencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(found, best)`` per row: whether any ``eligible`` entry exists and
    the cheapest one's index, the lowest on exact ties (``argmin`` over the
    inf-masked row returns the first minimum)."""
    best = np.where(eligible, latencies, np.inf).argmin(axis=1)
    return eligible[np.arange(len(best)), best], best


def nearest_cached_satellite(
    snapshot: SnapshotGraph,
    access_satellites: Iterable[int],
    cache_satellites: frozenset[int],
    max_hops: int,
) -> list[tuple[int, int, float] | None]:
    """(satellite, hops, one-way ISL ms) of the cheapest in-range cache,
    one entry per access satellite.

    One batched :func:`~repro.topology.fastcore.single_source` pass over
    the CSR core, stopped at each access satellite's nearest cache: hop
    counts bound the candidate set, latency picks the winner (lowest index
    on exact ties). Satellites outside the snapshot (or failed) never
    qualify. An entry is ``None`` when no cache is within ``max_hops``.
    """
    access = list(access_satellites)
    if not access or not cache_satellites:
        return [None] * len(access)
    mask = _cache_mask(cache_satellites, snapshot.core.num_nodes)
    hops, latencies = fastcore.single_source(
        snapshot.core, access, max_hops, mask, snapshot.active_mask
    )
    eligible = mask & _in_range(hops, latencies, max_hops, 0)
    found, best = _cheapest(eligible, latencies)
    return [
        (int(b), int(hops[i, b]), float(latencies[i, b])) if found[i] else None
        for i, b in enumerate(best)
    ]


def ranked_cached_from_rows(
    hops: np.ndarray,
    latencies: np.ndarray,
    cache_satellites: frozenset[int] | set[int],
    max_hops: int,
    min_hops: int = 0,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int, float]]:
    """Every in-range caching satellite of one routing row, cheapest first.

    ``hops``/``latencies`` are the access satellite's ``(N,)`` single-source
    rows (already masked for failures by the routing kernel). The degraded
    serving path walks this ladder: when the best replica times out or is
    lost, the next attempt goes to the next rung without recomputing the
    routing pass. Entries are ``(satellite, hops, one-way ISL ms)`` ordered
    by latency (lowest index on ties); satellites in ``exclude`` (already
    tried and failed) never appear.
    """
    candidates = _candidates(
        hops, latencies, cache_satellites, max_hops, min_hops, exclude
    )
    ranked = candidates[np.argsort(latencies[candidates], kind="stable")]
    return [(int(s), int(hops[s]), float(latencies[s])) for s in ranked]


def nearest_cached_batch(
    hops: np.ndarray,
    latencies: np.ndarray,
    holders: np.ndarray,
    max_hops: int,
    min_hops: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`nearest_cached_satellite` over aligned request rows.

    ``hops``/``latencies`` are ``(R, N)`` routing rows (request ``r``'s
    access satellite's single-source pass) and ``holders`` the ``(R, N)``
    boolean holders bitmap rows. Returns ``(found, best)``: ``found[r]``
    whether any in-range holder exists, ``best[r]`` its satellite index
    (meaningful only where ``found``). Ties on latency resolve to the
    lowest satellite index.
    """
    eligible = holders & _in_range(hops, latencies, max_hops, min_hops)
    return _cheapest(eligible, latencies)


class LookupSource(enum.Enum):
    """Where a request was ultimately served from."""

    ACCESS_SATELLITE = "access-satellite"
    DIRECT_VISIBLE = "direct-visible"
    """Another currently *visible* satellite served the terminal directly —
    no ISL transit. Relevant because grid-adjacent and physically-adjacent
    are different things: a satellite a few hundred km away on a crossing
    plane can be dozens of +Grid hops away."""
    ISL_NEIGHBOR = "isl-neighbor"
    GROUND = "ground"


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one SpaceCDN lookup."""

    source: LookupSource
    serving_satellite: int | None
    isl_hops: int
    one_way_ms: float
    access_satellite: int


@dataclass
class SpaceCdnLookup:
    """Content resolution over one constellation snapshot."""

    snapshot: SnapshotGraph
    max_hops: int = 10

    def lookup_from_point(
        self,
        user: GeoPoint,
        cache_satellites: frozenset[int],
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> LookupResult:
        """Resolve a request from a ground location (picks the access satellite)."""
        access = nearest_visible_satellite(
            self.snapshot.constellation, user, self.snapshot.t_s, min_elevation_deg
        )
        return self.lookup(
            access_satellite=access.index,
            access_one_way_ms=access_latency_ms(access.slant_range_km),
            cache_satellites=cache_satellites,
        )

    def lookup(
        self,
        access_satellite: int,
        access_one_way_ms: float,
        cache_satellites: frozenset[int],
    ) -> LookupResult:
        """Resolve a request entering the constellation at ``access_satellite``."""
        return self.resolve(
            [access_satellite], [access_one_way_ms], cache_satellites
        )[0]

    def resolve(
        self,
        access_satellites: Iterable[int],
        access_one_way_ms: Iterable[float],
        cache_satellites: frozenset[int],
    ) -> list[LookupResult]:
        """Resolve many (access satellite, access one-way ms) requests.

        Each request is served by its access satellite when that caches,
        else by the cheapest cache within ``max_hops`` ISL hops (one
        :func:`nearest_cached_satellite` search over every distinct access
        satellite that does not cache), else by the ground fallback (half
        of :data:`~repro.constants.GROUND_RTT_MS`, one way).
        """
        requests = []
        for access, access_ms in zip(access_satellites, access_one_way_ms):
            access, access_ms = int(access), float(access_ms)
            if not math.isfinite(access_ms) or access_ms < 0:
                raise RoutingError(
                    f"access latency must be finite and >= 0, got {access_ms}"
                )
            requests.append((access, access_ms))
        relayed = list(
            dict.fromkeys(a for a, _ in requests if a not in cache_satellites)
        )
        found = nearest_cached_satellite(
            self.snapshot, relayed, cache_satellites, self.max_hops
        )
        nearest = dict(zip(relayed, found))
        results = []
        for access, access_ms in requests:
            if access in cache_satellites:
                source, best = LookupSource.ACCESS_SATELLITE, (access, 0, 0.0)
            else:
                source, best = LookupSource.ISL_NEIGHBOR, nearest[access]
            if best is None:
                result = LookupResult(
                    LookupSource.GROUND,
                    None,
                    0,
                    GROUND_RTT_MS / 2.0,
                    access,
                )
            else:
                satellite, hops, isl_ms = best
                result = LookupResult(
                    source, satellite, hops, access_ms + isl_ms, access
                )
            results.append(result)
        return results
