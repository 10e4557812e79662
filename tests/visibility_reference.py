"""The dense per-point visibility formula, for tests.

The library evaluates visibility once per (point, satellite) pair that
survives a cone cull around each point's zenith (:mod:`repro.orbits.visibility`).
This module keeps the formula it replaced: every satellite, one point at a
time, with the line-of-sight dot product as a BLAS matvec. It is the
ground truth the cone-culled kernel is verified against
(``TestAgainstDenseReference`` in ``test_orbits_visibility.py``), as
``topology_reference.py`` is for the routing kernels.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import EARTH_RADIUS_KM
from repro.geo.coordinates import GeoPoint
from repro.orbits.walker import Constellation


def point_view(sat: np.ndarray, point: GeoPoint) -> tuple[np.ndarray, np.ndarray]:
    """(elevation in degrees, slant range in km) of every satellite position
    in ``sat`` seen from ``point``."""
    ecef = point.to_ecef()
    obs = np.array([ecef.x, ecef.y, ecef.z])
    los = sat - obs
    ranges = np.linalg.norm(los, axis=1)
    cos_zenith = (los @ obs) / (ranges * float(np.linalg.norm(obs)))
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    return 90.0 - np.degrees(np.arccos(cos_zenith)), ranges


def usable_order(
    elevations: np.ndarray, ranges: np.ndarray, min_elevation_deg: float
) -> np.ndarray:
    """Indices of the satellites at or above the mask, nearest first; an
    exact range tie goes to the lower index."""
    usable = np.flatnonzero(elevations >= min_elevation_deg)
    return usable[np.argsort(ranges[usable], kind="stable")]


def dense_view(
    constellation: Constellation, point: GeoPoint, t_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`point_view` of the whole constellation at ``t_s``."""
    return point_view(constellation.positions_ecef(t_s), point)


def max_slant_range_km(altitude_km: float, min_elevation_deg: float) -> float:
    """Slant range to a satellite at ``altitude_km`` seen exactly at the
    elevation mask: the law of sines on the Earth-centre / observer /
    satellite triangle. The upper bound of every usable slant range."""
    re = EARTH_RADIUS_KM
    rs = re + altitude_km
    elev = math.radians(min_elevation_deg)
    # Angle at the satellite vertex.
    sat_angle = math.asin(re * math.cos(elev) / rs)
    earth_angle = math.pi / 2.0 - elev - sat_angle
    return math.sqrt(re * re + rs * rs - 2.0 * re * rs * math.cos(earth_angle))
