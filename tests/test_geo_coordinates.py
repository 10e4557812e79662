"""Tests for geodesy primitives."""

import math

import pytest

from repro.constants import EARTH_RADIUS_KM
from repro.errors import GeodesyError
from repro.geo.coordinates import (
    EcefPoint,
    GeoPoint,
    elevation_angle_deg,
    great_circle_km,
    slant_range_km,
)


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

    def test_surface_strips_altitude(self):
        point = GeoPoint(10.0, 20.0, 550.0)
        assert point.surface().alt_km == 0.0
        assert point.surface().lat_deg == 10.0

    def test_surface_of_surface_point_is_identity(self):
        point = GeoPoint(10.0, 20.0, 0.0)
        assert point.surface() is point


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
        assert ecef.norm_km() == pytest.approx(EARTH_RADIUS_KM + 550.0)

    def test_ecef_distance_symmetry(self):
        a = GeoPoint(10.0, 20.0, 0.0).to_ecef()
        b = GeoPoint(-30.0, 100.0, 550.0).to_ecef()
        assert a.distance_km(b) == pytest.approx(b.distance_km(a))


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
        assert slant_range_km(ground, satellite) == pytest.approx(550.0)

    def test_slant_exceeds_altitude_off_zenith(self):
        ground = GeoPoint(0.0, 0.0, 0.0)
        satellite = GeoPoint(5.0, 5.0, 550.0)
        assert slant_range_km(ground, satellite) > 550.0

    def test_slant_range_vs_chord_for_surface_points(self):
        # For two surface points, the slant (chord) must be below the arc.
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 90.0)
        assert slant_range_km(a, b) < great_circle_km(a, b)


class TestElevationAngle:
    def test_zenith_is_90_degrees(self):
        ground = GeoPoint(10.0, 20.0, 0.0)
        overhead = GeoPoint(10.0, 20.0, 550.0)
        assert elevation_angle_deg(ground, overhead) == pytest.approx(90.0, abs=1e-6)

    def test_far_satellite_below_horizon(self):
        ground = GeoPoint(0.0, 0.0, 0.0)
        far = GeoPoint(0.0, 170.0, 550.0)
        assert elevation_angle_deg(ground, far) < 0.0

    def test_elevation_decreases_with_ground_distance(self):
        ground = GeoPoint(0.0, 0.0, 0.0)
        near = GeoPoint(0.0, 2.0, 550.0)
        far = GeoPoint(0.0, 10.0, 550.0)
        assert elevation_angle_deg(ground, near) > elevation_angle_deg(ground, far)

    def test_coincident_points_raise(self):
        point = GeoPoint(0.0, 0.0, 0.0)
        with pytest.raises(GeodesyError):
            elevation_angle_deg(point, point)


class TestSubsatellitePoint:
    def test_projects_to_surface(self):
        satellite = GeoPoint(30.0, 60.0, 550.0)
        below = satellite.surface()
        assert below.alt_km == 0.0
        assert below.lat_deg == satellite.lat_deg
        assert below.lon_deg == satellite.lon_deg


class TestEcefPoint:
    def test_norm(self):
        point = EcefPoint(3.0, 4.0, 0.0)
        assert point.norm_km() == pytest.approx(5.0)

    def test_distance(self):
        a = EcefPoint(0.0, 0.0, 0.0)
        b = EcefPoint(1.0, 2.0, 2.0)
        assert a.distance_km(b) == pytest.approx(3.0)
