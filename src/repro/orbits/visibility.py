"""Satellite visibility from ground locations.

A ground terminal can use a satellite only when it is above a minimum
elevation angle (25 deg for Starlink user terminals, ~10 deg for gateway
dishes). These routines compute which satellites are usable from one or
many points and at what slant range.

Every public function reads one private kernel over (point, satellite)
pairs (:func:`_pairs`), so all of them agree bit for bit. A masked query
first culls each point's sky with a cone around the point's zenith
direction that is wider than the elevation mask (:func:`_cone_cos`): only
about 1 % of Shell 1 survives it at 25 deg, and only the survivors,
all points at once, go through the exact elevation/slant-range formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.walker import Constellation

_CONE_MARGIN_DEG = 2.0
"""Slack added to the cull cone's half-angle. The cone test is one BLAS
product whose last bits vary with its shape; a degree-scale margin makes
those bits irrelevant, so the cone never drops a satellite the mask keeps."""


@dataclass(frozen=True)
class VisibleSatellite:
    """One satellite visible from a ground point at a given instant."""

    index: int
    elevation_deg: float
    slant_range_km: float


def _observers(points: list[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    """``(P, 3)`` ECEF positions of ``points`` and their ``(P,)`` radii (km)."""
    obs = np.empty((len(points), 3))
    for p, point in enumerate(points):
        ecef = point.to_ecef()
        obs[p] = (ecef.x, ecef.y, ecef.z)
    x, y, z = obs.T
    return obs, np.sqrt(x * x + y * y + z * z)


def _cone_cos(
    radius: np.ndarray, shell_radius_km: float, min_elevation_deg: float
) -> np.ndarray:
    """Cosine of each observer's cull-cone half-angle; ``-inf`` keeps all.

    The half-angle is the Earth-central angle between the observer and a
    satellite seen exactly at the mask (the law-of-sines triangle of
    :func:`max_slant_range_km`, with the observer's own radius), plus
    :data:`_CONE_MARGIN_DEG`. Below the shell, elevation falls strictly as
    the central angle grows, so every satellite at or above the mask lies
    inside the cone. An observer at or above the shell keeps every
    satellite.
    """
    elev = math.radians(min_elevation_deg)
    below = radius < shell_radius_km
    ratio = np.where(below, radius / shell_radius_km, 0.0)
    sat_angle = np.arcsin(ratio * math.cos(elev))
    half_angle = math.pi / 2.0 - elev - sat_angle + math.radians(_CONE_MARGIN_DEG)
    cos = np.cos(np.clip(half_angle, 0.0, math.pi))
    cos[~below | (half_angle >= math.pi)] = -np.inf
    return cos


def _pairs(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one visibility kernel: ``(point, index, elevation_deg, slant_km)``.

    With ``min_elevation_deg=None`` every (point, satellite) pair comes
    back, point-major in satellite order. With a mask, only the pairs at or
    above it, sorted by point, then slant range, then satellite index (an
    exact range tie goes to the lower index).

    The formula is elementwise over the pairs: the slant range is
    ``norm(los, axis=1)`` and the zenith cosine an explicit
    ``x*ox + y*oy + z*oz`` rather than ``los @ obs``. A BLAS product rounds
    a row differently depending on how many rows it is given; the
    elementwise form gives the same bits whichever pairs survive the cone
    and however many points share the call.
    """
    sat = constellation.positions_ecef(t_s)
    obs, radius = _observers(points)
    if min_elevation_deg is None:
        near = np.ones((len(points), len(sat)), dtype=bool)
    else:
        cone = _cone_cos(radius, constellation.orbit_radius_km, min_elevation_deg)
        near = (obs @ sat.T) >= (radius * constellation.orbit_radius_km * cone)[:, None]
    point, index = np.nonzero(near)
    o = obs[point]
    los = sat[index] - o
    slant = np.linalg.norm(los, axis=1)
    cos_zenith = (los[:, 0] * o[:, 0] + los[:, 1] * o[:, 1] + los[:, 2] * o[:, 2]) / (
        slant * radius[point]
    )
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    elevation = 90.0 - np.degrees(np.arccos(cos_zenith))
    if min_elevation_deg is None:
        return point, index, elevation, slant
    usable = np.flatnonzero(elevation >= min_elevation_deg)
    order = usable[np.lexsort((slant[usable], point[usable]))]
    return point[order], index[order], elevation[order], slant[order]


@dataclass(frozen=True)
class VisibilityBatch:
    """Visibility of the constellation from many ground points at once.

    Compact: point ``p``'s usable satellites are the flat entries
    ``start[p]:start[p + 1]``, nearest first (ascending slant range, ties to
    the lower index), exactly the list :func:`visible_satellites` returns
    for that point. A point that sees nothing has an empty slice (callers
    decide whether that is an error).
    """

    start: np.ndarray
    """``(P + 1,)`` offsets of each point's entries."""
    index: np.ndarray
    """Satellite index of every usable (point, satellite) pair."""
    elevation_deg: np.ndarray
    """Elevation of each entry's satellite above its point's horizon."""
    slant_range_km: np.ndarray
    """Straight-line distance from each entry's point to its satellite."""

    @property
    def num_points(self) -> int:
        return len(self.start) - 1

    def live(self, active: np.ndarray | None) -> VisibilityBatch:
        """The batch without the satellites the boolean ``active`` mask
        marks dead (``None``: nothing failed, the batch itself)."""
        if active is None:
            return self
        keep = active[self.index]
        kept = np.concatenate(([0], np.cumsum(keep)))
        return VisibilityBatch(
            start=kept[self.start],
            index=self.index[keep],
            elevation_deg=self.elevation_deg[keep],
            slant_range_km=self.slant_range_km[keep],
        )

    def visible_list(self, point_index: int) -> list[VisibleSatellite]:
        """The point's view as :func:`visible_satellites` would return it."""
        view = slice(self.start[point_index], self.start[point_index + 1])
        return [
            VisibleSatellite(index=i, elevation_deg=e, slant_range_km=r)
            for i, e, r in zip(
                self.index[view].tolist(),
                self.elevation_deg[view].tolist(),
                self.slant_range_km[view].tolist(),
            )
        ]


def _visible(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float,
) -> VisibilityBatch:
    point, index, elevation, slant = _pairs(
        constellation, points, t_s, min_elevation_deg
    )
    start = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum(np.bincount(point, minlength=len(points)), out=start[1:])
    return VisibilityBatch(
        start=start, index=index, elevation_deg=elevation, slant_range_km=slant
    )


def _no_satellite(point: GeoPoint, t_s: float, min_elevation_deg: float) -> VisibilityError:
    return VisibilityError(
        f"no satellite above {min_elevation_deg} deg elevation from "
        f"({point.lat_deg:.2f}, {point.lon_deg:.2f}) at t={t_s:.0f}s"
    )


def elevations_deg(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Elevation of every satellite above ``point``'s horizon (degrees)."""
    return _pairs(constellation, [point], t_s, None)[2]


def slant_ranges_km(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Straight-line distance from ``point`` to every satellite (km)."""
    return _pairs(constellation, [point], t_s, None)[3]


def visible_satellites(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> list[VisibleSatellite]:
    """All satellites usable from ``point``, sorted by ascending slant range."""
    return _visible(constellation, [point], t_s, min_elevation_deg).visible_list(0)


def visible_satellites_batch(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibilityBatch:
    """Vectorised :func:`visible_satellites` over many ground points.

    One kernel call over shared satellite positions serves the whole
    cohort; ``visible_list(p)`` is bit for bit the list
    :func:`visible_satellites` returns for ``points[p]``, which the serve
    walk leans on.
    """
    return _visible(constellation, points, t_s, min_elevation_deg)


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
    batch = _visible(constellation, points, t_s, min_elevation_deg)
    first = batch.start[:-1]
    blind = np.flatnonzero(batch.start[1:] == first)
    if blind.size:
        raise _no_satellite(points[blind[0]], t_s, min_elevation_deg)
    return batch.index[first], batch.slant_range_km[first]


def nearest_visible_satellite(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibleSatellite:
    """The lowest-slant-range usable satellite, or raise :class:`VisibilityError`."""
    batch = _visible(constellation, [point], t_s, min_elevation_deg)
    if not batch.index.size:
        raise _no_satellite(point, t_s, min_elevation_deg)
    return VisibleSatellite(
        index=int(batch.index[0]),
        elevation_deg=float(batch.elevation_deg[0]),
        slant_range_km=float(batch.slant_range_km[0]),
    )


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
        1
        for t in times
        if _pairs(constellation, [point], float(t), min_elevation_deg)[1].size
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
