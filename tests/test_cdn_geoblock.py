"""Tests for geo-blocking on apparent (PoP) locations."""

import pytest

from repro.cdn.geoblock import GeoBlockPolicy
from repro.errors import ConfigurationError
from repro.geo.datasets.cities import cities_in_country, city_by_name


@pytest.fixture
def policy() -> GeoBlockPolicy:
    p = GeoBlockPolicy()
    p.license_object("mz-news", {"MZ", "ZA"})
    p.license_object("de-stream", {"DE"})
    return p


class TestLicensing:
    def test_empty_allowlist_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            policy.license_object("x", set())

    def test_unknown_country_rejected(self, policy):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            policy.license_object("x", {"XX"})


class TestTerrestrialChecks:
    def test_local_user_allowed(self, policy):
        decision = policy.check_terrestrial("mz-news", city_by_name("Maputo"))
        assert decision.allowed
        assert not decision.misblocked

    def test_foreign_user_blocked(self, policy):
        decision = policy.check_terrestrial("mz-news", city_by_name("Berlin"))
        assert not decision.allowed
        # Blocked *correctly*: physically outside the licence area.
        assert not decision.misblocked

    def test_unrestricted_object_always_allowed(self, policy):
        assert policy.check_terrestrial("open-content", city_by_name("Berlin")).allowed


class TestStarlinkChecks:
    def test_maputo_starlink_user_misblocked(self, policy):
        # Physically in MZ (licensed) but the IP geolocates to Frankfurt.
        decision = policy.check_starlink("mz-news", city_by_name("Maputo"))
        assert not decision.allowed
        assert decision.apparent_iso2 == "DE"
        assert decision.physical_iso2 == "MZ"
        assert decision.misblocked

    def test_maputo_starlink_user_unlocks_german_content(self, policy):
        # The mirror-image anomaly: German geo-fenced content becomes
        # reachable from Mozambique over Starlink.
        decision = policy.check_starlink("de-stream", city_by_name("Maputo"))
        assert decision.allowed

    def test_berlin_starlink_user_fine(self, policy):
        decision = policy.check_starlink("de-stream", city_by_name("Berlin"))
        assert decision.allowed


class TestMisblockRate:
    """The share of a licensed population whose Starlink users are blocked
    although they sit inside the licence area."""

    @staticmethod
    def misblocked(policy, object_id, cities):
        return [policy.check_starlink(object_id, c).misblocked for c in cities]

    def test_rate_for_mozambique_cities_is_total(self, policy):
        assert all(self.misblocked(policy, "mz-news", cities_in_country("MZ")))

    def test_rate_zero_for_unrestricted(self, policy):
        assert not any(self.misblocked(policy, "open-content", cities_in_country("MZ")))

    def test_rate_zero_when_no_eligible_city(self, policy):
        assert not any(self.misblocked(policy, "mz-news", cities_in_country("JP")))

    def test_rate_mixed_population(self, policy):
        # Spanish cities are licensed and exit locally -> never misblocked;
        # Mozambican cities are licensed but exit at Frankfurt -> always
        # misblocked (DE is not in the licence).
        policy.license_object("both", {"ES", "MZ"})
        cities = list(cities_in_country("ES")) + list(cities_in_country("MZ"))
        flags = self.misblocked(policy, "both", cities)
        assert sum(flags) == len(cities_in_country("MZ"))
