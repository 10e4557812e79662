"""Geographic and Cartesian coordinates on a spherical Earth.

The simulation uses the spherical Earth model throughout: the ~0.3% error of
ignoring oblateness is far below the latency noise the paper's measurements
carry, and it keeps every geometry routine analytic and fast.

Conventions:

* latitude in degrees, positive north, range [-90, 90]
* longitude in degrees, positive east, range [-180, 180]
* altitude in kilometres above the mean Earth surface
* ECEF frame: x through (0N, 0E), z through the north pole
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import EARTH_RADIUS_KM
from repro.errors import GeodesyError


def _validate_lat_lon(lat_deg: float, lon_deg: float) -> None:
    if not -90.0 <= lat_deg <= 90.0:
        raise GeodesyError(f"latitude {lat_deg} out of range [-90, 90]")
    if not -180.0 <= lon_deg <= 180.0:
        raise GeodesyError(f"longitude {lon_deg} out of range [-180, 180]")


@dataclass(frozen=True)
class EcefPoint:
    """A point in the Earth-centred Earth-fixed Cartesian frame (km)."""

    x: float
    y: float
    z: float

    def distance_km(self, other: "EcefPoint") -> float:
        """Straight-line (chord) distance to ``other``."""
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def norm_km(self) -> float:
        """Distance from the Earth's centre."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class GeoPoint:
    """A geographic point: latitude/longitude in degrees, altitude in km."""

    lat_deg: float
    lon_deg: float
    alt_km: float = 0.0

    def __post_init__(self) -> None:
        _validate_lat_lon(self.lat_deg, self.lon_deg)
        if self.alt_km < -EARTH_RADIUS_KM:
            raise GeodesyError(f"altitude {self.alt_km} km below Earth centre")

    def to_ecef(self) -> EcefPoint:
        """Convert to the ECEF Cartesian frame."""
        lat = math.radians(self.lat_deg)
        lon = math.radians(self.lon_deg)
        r = EARTH_RADIUS_KM + self.alt_km
        cos_lat = math.cos(lat)
        return EcefPoint(
            x=r * cos_lat * math.cos(lon),
            y=r * cos_lat * math.sin(lon),
            z=r * math.sin(lat),
        )

    def surface(self) -> "GeoPoint":
        """The same point projected onto the Earth surface (altitude 0)."""
        if self.alt_km == 0.0:
            return self
        return GeoPoint(self.lat_deg, self.lon_deg, 0.0)


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (surface) distance between two points, ignoring altitude.

    Uses the Vincenty form of the central angle, ``atan2(|sin|, cos)``,
    which keeps full precision at every separation. The haversine form's
    ``asin(sqrt(h))`` does not: near antipodes ``h`` rounds towards 1 and
    the distance loses about 1e-5 km. The points are taken in a fixed
    order, so the distance is symmetric bit for bit.
    """
    if (b.lat_deg, b.lon_deg) < (a.lat_deg, a.lon_deg):
        a, b = b, a
    lat1, lat2 = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlon = math.radians(b.lon_deg) - math.radians(a.lon_deg)
    sin1, cos1 = math.sin(lat1), math.cos(lat1)
    sin2, cos2 = math.sin(lat2), math.cos(lat2)
    cos_dlon = math.cos(dlon)
    return EARTH_RADIUS_KM * math.atan2(
        math.hypot(cos2 * math.sin(dlon), cos1 * sin2 - sin1 * cos2 * cos_dlon),
        sin1 * sin2 + cos1 * cos2 * cos_dlon,
    )


def slant_range_km(a: GeoPoint, b: GeoPoint) -> float:
    """Straight-line distance between two points including altitudes.

    This is the length a radio or optical link actually travels, e.g. from a
    user terminal to a satellite overhead.
    """
    return a.to_ecef().distance_km(b.to_ecef())


def elevation_angle_deg(observer: GeoPoint, target: GeoPoint) -> float:
    """Elevation of ``target`` above the local horizon at ``observer``.

    Returns degrees in [-90, 90]; negative values mean the target is below
    the horizon.
    """
    obs = observer.to_ecef()
    tgt = target.to_ecef()
    dx, dy, dz = tgt.x - obs.x, tgt.y - obs.y, tgt.z - obs.z
    range_km = math.sqrt(dx * dx + dy * dy + dz * dz)
    if range_km == 0.0:
        raise GeodesyError("observer and target coincide")
    obs_norm = obs.norm_km()
    # Angle between the local up vector (obs/|obs|) and the line of sight.
    cos_zenith = (obs.x * dx + obs.y * dy + obs.z * dz) / (obs_norm * range_km)
    cos_zenith = max(-1.0, min(1.0, cos_zenith))
    return 90.0 - math.degrees(math.acos(cos_zenith))

