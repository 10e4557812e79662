"""Tests for geodesy primitives."""

import math

import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.errors import GeodesyError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.orbits.visibility import elevations_deg


def chord_km(a: GeoPoint, b: GeoPoint) -> float:
    """Straight-line distance between two points through their ECEF forms."""
    ea, eb = a.to_ecef(), b.to_ecef()
    return math.dist((ea.x, ea.y, ea.z), (eb.x, eb.y, eb.z))


class TestGeoPointValidation:
    def test_valid_point(self):
        point = GeoPoint(45.0, 90.0, 10.0)
        assert point.lat_deg == 45.0

    @pytest.mark.parametrize("lat", [-90.1, 90.1, 180.0])
    def test_invalid_latitude_rejected(self, lat):
        with pytest.raises(GeodesyError):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.1, 180.1, 360.0])
    def test_invalid_longitude_rejected(self, lon):
        with pytest.raises(GeodesyError):
            GeoPoint(0.0, lon)

    def test_poles_are_valid(self):
        GeoPoint(90.0, 0.0)
        GeoPoint(-90.0, 179.99)


class TestEcefConversion:
    def test_origin_meridian_equator(self):
        ecef = GeoPoint(0.0, 0.0, 0.0).to_ecef()
        assert ecef.x == pytest.approx(EARTH_RADIUS_KM)
        assert ecef.y == pytest.approx(0.0, abs=1e-9)
        assert ecef.z == pytest.approx(0.0, abs=1e-9)

    def test_north_pole(self):
        ecef = GeoPoint(90.0, 0.0, 0.0).to_ecef()
        assert ecef.z == pytest.approx(EARTH_RADIUS_KM)
        assert math.hypot(ecef.x, ecef.y) == pytest.approx(0.0, abs=1e-6)

    def test_altitude_extends_radius(self):
        ecef = GeoPoint(0.0, 0.0, 550.0).to_ecef()
        norm = math.hypot(ecef.x, ecef.y, ecef.z)
        assert norm == pytest.approx(EARTH_RADIUS_KM + 550.0)


class TestGreatCircle:
    def test_zero_distance(self):
        p = GeoPoint(52.0, 13.0)
        assert great_circle_km(p, p) == 0.0

    def test_quarter_circumference_pole_to_equator(self):
        pole = GeoPoint(90.0, 0.0)
        equator = GeoPoint(0.0, 0.0)
        expected = math.pi * EARTH_RADIUS_KM / 2.0
        assert great_circle_km(pole, equator) == pytest.approx(expected, rel=1e-9)

    def test_antipodal_distance_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert great_circle_km(a, b) == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-9)

    def test_known_city_pair_london_newyork(self):
        london = GeoPoint(51.51, -0.13)
        new_york = GeoPoint(40.71, -74.01)
        assert great_circle_km(london, new_york) == pytest.approx(5570, rel=0.02)

    def test_symmetry(self):
        a = GeoPoint(-25.97, 32.57)
        b = GeoPoint(50.11, 8.68)
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_ignores_altitude(self):
        a = GeoPoint(10.0, 10.0, 0.0)
        b_surface = GeoPoint(20.0, 20.0, 0.0)
        b_orbit = GeoPoint(20.0, 20.0, 550.0)
        assert great_circle_km(a, b_surface) == great_circle_km(a, b_orbit)

    def test_maputo_frankfurt_matches_paper_distance(self):
        # The paper's Table 1 reports ~8777 km for Mozambique -> best CDN
        # (Frankfurt, via the assigned PoP).
        maputo = GeoPoint(-25.97, 32.57)
        frankfurt = GeoPoint(50.11, 8.68)
        assert great_circle_km(maputo, frankfurt) == pytest.approx(8770, rel=0.02)


class TestSlantRange:
    def test_satellite_at_zenith(self):
        ground = GeoPoint(0.0, 0.0, 0.0)
        satellite = GeoPoint(0.0, 0.0, 550.0)
        assert chord_km(ground, satellite) == pytest.approx(550.0)

    def test_slant_exceeds_altitude_off_zenith(self):
        ground = GeoPoint(0.0, 0.0, 0.0)
        satellite = GeoPoint(5.0, 5.0, 550.0)
        assert chord_km(ground, satellite) > 550.0

    def test_slant_range_vs_chord_for_surface_points(self):
        # For two surface points, the slant (chord) must be below the arc.
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 90.0)
        assert chord_km(a, b) < great_circle_km(a, b)


class TestElevationAngle:
    """Elevation of satellite 0 of the 6x8 test shell at t = 0, as the
    visibility kernel computes it, from ground points east of the point
    below it."""

    @staticmethod
    def elevation(constellation, east_deg: float) -> float:
        x, y, z = constellation.positions_ecef(0.0)[0]
        lat = math.degrees(math.atan2(z, math.hypot(x, y)))
        lon = math.degrees(math.atan2(y, x)) + east_deg
        ground = GeoPoint(lat, (lon + 180.0) % 360.0 - 180.0)
        return float(elevations_deg(constellation, ground, 0.0)[0])

    def test_zenith_is_90_degrees(self, small_constellation):
        assert self.elevation(small_constellation, 0.0) == pytest.approx(90.0, abs=1e-6)

    def test_far_satellite_below_horizon(self, small_constellation):
        assert self.elevation(small_constellation, 170.0) < 0.0

    def test_elevation_decreases_with_ground_distance(self, small_constellation):
        near = self.elevation(small_constellation, 2.0)
        assert near > self.elevation(small_constellation, 10.0)
