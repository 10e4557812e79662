"""Tests for physical-constant helpers."""

import math

from repro import constants


class TestOrbitalPeriod:
    def test_shell1_period_is_about_95_minutes(self):
        period = constants.orbital_period_s(550.0)
        assert 94 * 60 < period < 97 * 60

    def test_period_grows_with_altitude(self):
        assert constants.orbital_period_s(1200.0) > constants.orbital_period_s(550.0)

    def test_iss_altitude_period_sanity(self):
        # ISS at ~420 km orbits in ~92-93 minutes.
        period = constants.orbital_period_s(420.0)
        assert 91 * 60 < period < 94 * 60


class TestOrbitalSpeed:
    """Circular-orbit speed, one circumference per :func:`orbital_period_s`."""

    @staticmethod
    def speed_km_s(altitude_km: float) -> float:
        radius = constants.EARTH_RADIUS_KM + altitude_km
        return 2.0 * math.pi * radius / constants.orbital_period_s(altitude_km)

    def test_shell1_speed_matches_paper_figure(self):
        # The paper quotes ~27,000 km/h for LEO satellites.
        speed_kmh = self.speed_km_s(550.0) * 3600.0
        assert 26_000 < speed_kmh < 28_500

    def test_speed_decreases_with_altitude(self):
        assert self.speed_km_s(300.0) > self.speed_km_s(600.0)


class TestMediumSpeeds:
    def test_fiber_slower_than_vacuum(self):
        assert constants.FIBER_SPEED_KM_S < constants.SPEED_OF_LIGHT_KM_S

    def test_fiber_speed_is_about_two_thirds_c(self):
        ratio = constants.FIBER_SPEED_KM_S / constants.SPEED_OF_LIGHT_KM_S
        assert 0.63 < ratio < 0.72

    def test_circuity_tiers_are_ordered(self):
        assert (
            1.0
            < constants.CIRCUITY_TIER1
            < constants.CIRCUITY_TIER2
            < constants.CIRCUITY_TIER3
        )
