"""Satellite visibility from ground locations.

A ground terminal can use a satellite only when it is above a minimum
elevation angle (25 deg for Starlink user terminals, ~10 deg for gateway
dishes). These routines compute, vectorised over the whole constellation,
which satellites are usable from a point and at what slant range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.walker import Constellation


@dataclass(frozen=True)
class VisibleSatellite:
    """One satellite visible from a ground point at a given instant."""

    index: int
    elevation_deg: float
    slant_range_km: float


def _point_view(sat: np.ndarray, point: GeoPoint) -> tuple[np.ndarray, np.ndarray]:
    """(elevation in degrees, slant range in km) of every satellite position
    in ``sat`` seen from ``point``.

    The one visibility formula: every public function here evaluates it per
    point, so all of them agree bit for bit. A broadcast over many points
    at once (an ``einsum`` over a ``(P, N, 3)`` line-of-sight tensor)
    drifts in the last float bit, which is enough to flip near-threshold
    visibility and near-tie orderings.
    """
    ecef = point.to_ecef()
    obs = np.array([ecef.x, ecef.y, ecef.z])
    los = sat - obs
    ranges = np.linalg.norm(los, axis=1)
    cos_zenith = (los @ obs) / (ranges * float(np.linalg.norm(obs)))
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    return 90.0 - np.degrees(np.arccos(cos_zenith)), ranges


def _usable_order(
    elevations: np.ndarray, ranges: np.ndarray, min_elevation_deg: float
) -> np.ndarray:
    """Indices of the satellites at or above the mask, nearest first."""
    usable = np.flatnonzero(elevations >= min_elevation_deg)
    return usable[np.argsort(ranges[usable])]


def _visible_list(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float,
) -> list[VisibleSatellite]:
    elevations, ranges = _point_view(constellation.positions_ecef(t_s), point)
    return [
        VisibleSatellite(
            index=int(i),
            elevation_deg=float(elevations[i]),
            slant_range_km=float(ranges[i]),
        )
        for i in _usable_order(elevations, ranges, min_elevation_deg)
    ]


def _no_satellite(point: GeoPoint, t_s: float, min_elevation_deg: float) -> VisibilityError:
    return VisibilityError(
        f"no satellite above {min_elevation_deg} deg elevation from "
        f"({point.lat_deg:.2f}, {point.lon_deg:.2f}) at t={t_s:.0f}s"
    )


def elevations_deg(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Elevation of every satellite above ``point``'s horizon (degrees)."""
    return _point_view(constellation.positions_ecef(t_s), point)[0]


def slant_ranges_km(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Straight-line distance from ``point`` to every satellite (km)."""
    return _point_view(constellation.positions_ecef(t_s), point)[1]


def visible_satellites(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> list[VisibleSatellite]:
    """All satellites usable from ``point``, sorted by ascending slant range."""
    return _visible_list(constellation, point, t_s, min_elevation_deg)


@dataclass(frozen=True)
class VisibilityBatch:
    """Visibility of the whole constellation from many ground points at once.

    One ``(P, N)`` elevation/slant-range pass shared by a request cohort:
    satellite positions are computed once per epoch instead of once per
    request, and each point's sorted visible list is derived from its row
    with exactly the per-point operations :func:`visible_satellites` uses —
    ``order[p]`` reproduces that function's satellite ordering (ascending
    slant range over the usable set) element for element.
    """

    elevations_deg: np.ndarray
    """``(P, N)`` elevation of every satellite above every point's horizon."""
    slant_ranges_km: np.ndarray
    """``(P, N)`` straight-line distance from every point to every satellite."""
    order: list[np.ndarray]
    """Per-point usable satellite indices, ascending slant range. Empty
    array when the point sees nothing (callers decide whether that is an
    error)."""

    @property
    def num_points(self) -> int:
        return len(self.order)

    def access(self, point_index: int) -> tuple[int, float]:
        """(satellite, slant km) of the access pick for one point.

        Raises :class:`VisibilityError` when the point sees no satellite.
        """
        order = self.order[point_index]
        if order.size == 0:
            raise VisibilityError(
                f"no satellite visible from point {point_index} of this batch"
            )
        best = int(order[0])
        return best, float(self.slant_ranges_km[point_index, best])

    def visible_list(self, point_index: int) -> list[VisibleSatellite]:
        """The point's view as :func:`visible_satellites` would return it."""
        row_elev = self.elevations_deg[point_index]
        row_range = self.slant_ranges_km[point_index]
        return [
            VisibleSatellite(
                index=int(i),
                elevation_deg=float(row_elev[i]),
                slant_range_km=float(row_range[i]),
            )
            for i in self.order[point_index]
        ]


def visible_satellites_batch(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibilityBatch:
    """Vectorised :func:`visible_satellites` over many ground points.

    Builds the ``(P, N)`` elevation and slant-range matrices over *shared*
    satellite positions — the O(N) trig of ``positions_ecef`` runs once per
    epoch instead of once per request. Each row is the per-point formula
    every function here uses, so ``order[p]`` is bit for bit the ordering
    :func:`visible_satellites` returns; the serve walk leans on that.
    """
    num_sats = len(constellation)
    if not points:
        return VisibilityBatch(
            elevations_deg=np.zeros((0, num_sats)),
            slant_ranges_km=np.zeros((0, num_sats)),
            order=[],
        )
    sat = constellation.positions_ecef(t_s)
    elevations = np.empty((len(points), num_sats))
    ranges = np.empty((len(points), num_sats))
    order = []
    for p, point in enumerate(points):
        elevations[p], ranges[p] = _point_view(sat, point)
        order.append(_usable_order(elevations[p], ranges[p], min_elevation_deg))
    return VisibilityBatch(
        elevations_deg=elevations, slant_ranges_km=ranges, order=order
    )


def nearest_visible_satellites(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> tuple[np.ndarray, np.ndarray]:
    """Access satellite for every ground point, one vectorised pass.

    Returns ``(indices, slant_ranges_km)`` arrays aligned with ``points`` —
    each entry the lowest-slant-range satellite above the elevation mask,
    exactly as :func:`nearest_visible_satellite` would pick per point.
    Raises :class:`VisibilityError` if any point sees no satellite.
    """
    if not points:
        raise VisibilityError("no ground points given")
    sat = constellation.positions_ecef(t_s)
    nearest = np.empty(len(points), dtype=np.int64)
    best = np.empty(len(points))
    for p, point in enumerate(points):
        elevations, ranges = _point_view(sat, point)
        masked = np.where(elevations >= min_elevation_deg, ranges, np.inf)
        nearest[p] = masked.argmin()
        best[p] = masked[nearest[p]]
        if not np.isfinite(best[p]):
            raise _no_satellite(point, t_s, min_elevation_deg)
    return nearest, best


def nearest_visible_satellite(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibleSatellite:
    """The lowest-slant-range usable satellite, or raise :class:`VisibilityError`."""
    candidates = _visible_list(constellation, point, t_s, min_elevation_deg)
    if not candidates:
        raise _no_satellite(point, t_s, min_elevation_deg)
    return candidates[0]


def coverage_fraction(
    constellation: Constellation,
    point: GeoPoint,
    duration_s: float,
    step_s: float = 30.0,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> float:
    """Fraction of sampled instants at which at least one satellite is usable."""
    if duration_s <= 0 or step_s <= 0:
        raise VisibilityError("duration and step must be positive")
    times = np.arange(0.0, duration_s, step_s)
    covered = sum(
        1 for t in times if _visible_list(constellation, point, float(t), min_elevation_deg)
    )
    return covered / len(times)


def max_slant_range_km(altitude_km: float, min_elevation_deg: float) -> float:
    """Maximum slant range to a satellite at ``altitude_km`` at the elevation limit.

    Law of sines on the Earth-centre / observer / satellite triangle.
    """
    from repro.constants import EARTH_RADIUS_KM

    re = EARTH_RADIUS_KM
    rs = re + altitude_km
    elev = math.radians(min_elevation_deg)
    # Angle at the satellite vertex.
    sat_angle = math.asin(re * math.cos(elev) / rs)
    earth_angle = math.pi / 2.0 - elev - sat_angle
    return math.sqrt(re * re + rs * rs - 2.0 * re * rs * math.cos(earth_angle))
