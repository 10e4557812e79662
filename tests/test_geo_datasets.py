"""Tests for the embedded gazetteer: structural facts the paper relies on."""

import pytest

from repro.errors import DatasetError
from repro.geo.coordinates import great_circle_km
from repro.geo.datasets.cdn_sites import all_cdn_sites, cdn_site_by_name
from repro.geo.datasets.cities import all_cities, cities_in_country, city_by_name
from repro.geo.datasets.countries import (
    all_countries,
    country_by_iso2,
    starlink_covered_countries,
)
from repro.geo.datasets.ground_stations import all_ground_stations
from repro.geo.datasets.pops import all_pops, assigned_pop, pop_by_name


class TestCountries:
    def test_iso_codes_unique(self):
        codes = [c.iso2 for c in all_countries()]
        assert len(codes) == len(set(codes))

    def test_lookup_known_country(self):
        assert country_by_iso2("MZ").name == "Mozambique"

    def test_lookup_unknown_raises(self):
        with pytest.raises(DatasetError):
            country_by_iso2("XX")

    def test_tiers_valid(self):
        assert all(c.infra_tier in (1, 2, 3) for c in all_countries())

    def test_starlink_coverage_count_matches_paper_scale(self):
        # The paper analyses Starlink measurements from 55 countries; our
        # gazetteer models a comparable majority-covered world.
        covered = starlink_covered_countries()
        assert 40 <= len(covered) <= 70

    def test_table1_countries_all_covered(self):
        for iso2 in ("GT", "MZ", "CY", "SZ", "HT", "KE", "ZM", "RW", "LT", "ES", "JP"):
            assert country_by_iso2(iso2).starlink

    def test_south_africa_not_covered(self):
        # ZA had no consumer Starlink service in the paper's timeframe.
        assert not country_by_iso2("ZA").starlink


class TestCities:
    def test_names_unique(self):
        names = [c.name for c in all_cities()]
        assert len(names) == len(set(names))

    def test_every_city_country_exists(self):
        for city in all_cities():
            country_by_iso2(city.iso2)

    def test_city_lookup(self):
        maputo = city_by_name("Maputo")
        assert maputo.iso2 == "MZ"
        assert maputo.lat_deg < 0  # southern hemisphere

    def test_unknown_city_raises(self):
        with pytest.raises(DatasetError):
            city_by_name("Atlantis")

    def test_cities_in_country(self):
        de = cities_in_country("DE")
        assert {c.name for c in de} == {"Berlin", "Frankfurt", "Munich"}

    def test_cities_in_unknown_country_raises(self):
        with pytest.raises(DatasetError):
            cities_in_country("QQ")

    def test_population_positive(self):
        assert all(c.population_m > 0 for c in all_cities())

    def test_scale_of_gazetteer(self):
        assert len(all_cities()) >= 100


class TestPops:
    def test_exactly_22_pops_as_in_paper(self):
        assert len(all_pops()) == 22

    def test_pop_lookup(self):
        frankfurt = pop_by_name("Frankfurt")
        assert frankfurt.iso2 == "DE"

    def test_unknown_pop_raises(self):
        with pytest.raises(DatasetError):
            pop_by_name("Pyongyang")

    def test_no_pop_in_southern_or_eastern_africa(self):
        # The structural gap that drives the paper's Africa findings.
        african_pops = [p for p in all_pops() if country_by_iso2(p.iso2).region == "africa"]
        assert [p.name for p in african_pops] == ["Lagos"]


class TestAssignedPop:
    def test_mozambique_exits_at_frankfurt(self):
        assert assigned_pop("MZ").name == "Frankfurt"

    def test_kenya_exits_at_frankfurt(self):
        assert assigned_pop("KE").name == "Frankfurt"

    def test_spain_exits_locally(self):
        assert assigned_pop("ES").name == "Madrid"

    def test_japan_exits_locally(self):
        assert assigned_pop("JP").name == "Tokyo"

    def test_us_city_assignment_uses_proximity(self):
        seattle = city_by_name("Seattle")
        pop = assigned_pop("US", seattle.lat_deg, seattle.lon_deg)
        assert pop.name == "Seattle"

    def test_different_us_cities_get_different_pops(self):
        miami = city_by_name("Miami")
        seattle = city_by_name("Seattle")
        pop_miami = assigned_pop("US", miami.lat_deg, miami.lon_deg)
        pop_seattle = assigned_pop("US", seattle.lat_deg, seattle.lon_deg)
        assert pop_miami.name != pop_seattle.name

    def test_unknown_country_raises(self):
        with pytest.raises(DatasetError):
            assigned_pop("XX")

    def test_assignment_distance_for_mozambique_is_intercontinental(self):
        maputo = city_by_name("Maputo")
        pop = assigned_pop("MZ", maputo.lat_deg, maputo.lon_deg)
        assert great_circle_km(maputo.location, pop.location) > 8000


class TestGroundStations:
    def test_every_station_has_valid_pop(self):
        for gs in all_ground_stations():
            pop_by_name(gs.pop_name)

    def test_names_unique(self):
        names = [g.name for g in all_ground_stations()]
        assert len(names) == len(set(names))

    def test_no_stations_in_southern_africa(self):
        southern = [
            g
            for g in all_ground_stations()
            if g.iso2 in ("MZ", "ZM", "ZA", "SZ", "KE", "RW", "MW", "BW")
        ]
        assert southern == []

    def test_nigeria_has_a_station(self):
        assert any(g.iso2 == "NG" for g in all_ground_stations())

    def test_station_near_its_pop_mostly(self):
        # Gateways backhaul over fiber; the vast majority sit within ~2500 km
        # of their PoP (long exceptions exist, e.g. Alaska).
        distances = [
            great_circle_km(g.location, g.pop.location) for g in all_ground_stations()
        ]
        within = sum(1 for d in distances if d < 2500)
        assert within / len(distances) > 0.9

    def test_scale(self):
        assert len(all_ground_stations()) >= 40


class TestCdnSites:
    def test_names_unique(self):
        names = [s.name for s in all_cdn_sites()]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert cdn_site_by_name("Maputo").iso2 == "MZ"

    def test_unknown_site_raises(self):
        with pytest.raises(DatasetError):
            cdn_site_by_name("Gotham")

    def test_cdn_present_in_key_underserved_capitals(self):
        # The paper's point: CDNs are *already* near these users; the
        # satellite path just cannot reach them.
        for name in ("Maputo", "Kigali", "Guatemala City", "Port-au-Prince", "Nairobi"):
            cdn_site_by_name(name)

    def test_no_cdn_site_in_lusaka_or_mbabane(self):
        # Matches the paper's Table 1: Zambian/Eswatini clients travel to
        # Johannesburg-area CDNs even terrestrially.
        names = {s.name for s in all_cdn_sites()}
        assert "Lusaka" not in names
        assert "Mbabane" not in names

    def test_scale_spans_regions(self):
        sites = all_cdn_sites()
        assert len(sites) >= 80
        regions = {country_by_iso2(s.iso2).region for s in sites}
        assert {"africa", "europe", "asia", "north-america", "south-america"} <= regions
