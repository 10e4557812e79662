"""Tests for the synthetic AIM dataset generator."""

import copy
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthesis_reference
from repro.errors import ConfigurationError
from repro.geo.datasets.cdn_sites import all_cdn_sites
from repro.geo.datasets.cities import all_cities, city_by_name
from repro.measurements.aim import (
    CANDIDATE_SITES,
    PROBES_PER_SITE,
    STARLINK,
    TERRESTRIAL,
    AimDataset,
    AimGenerator,
    SpeedTest,
)
from repro.simulation.sampler import seeded_rng


@pytest.fixture(scope="module")
def generator() -> AimGenerator:
    return AimGenerator(seed=5)


@pytest.fixture(scope="module")
def small_dataset(generator) -> AimDataset:
    cities = (
        city_by_name("Maputo"),
        city_by_name("Madrid"),
        city_by_name("Lagos"),
        city_by_name("Tokyo"),
    )
    return generator.generate(tests_per_city=15, cities=cities)


class TestGenerator:
    def test_unknown_isp_rejected(self, generator):
        city = city_by_name("Madrid")
        from repro.geo.datasets.cdn_sites import cdn_site_by_name

        site = cdn_site_by_name("Madrid")
        with pytest.raises(ConfigurationError):
            generator.sample_rtt_ms(city, site, "carrier-pigeon")

    def test_candidate_sites_starlink_anchor_is_pop(self, generator):
        # Starlink candidates for Maputo cluster around Frankfurt, not Maputo.
        candidates = generator.candidate_sites_for(city_by_name("Maputo"), STARLINK)
        names = {s.name for s in candidates}
        assert "Frankfurt" in names
        assert "Maputo" not in names

    def test_candidate_sites_terrestrial_anchor_is_client(self, generator):
        candidates = generator.candidate_sites_for(city_by_name("Maputo"), TERRESTRIAL)
        assert candidates[0].name == "Maputo"

    def test_candidate_sites_are_the_nearest_and_shared(self, generator):
        from repro.geo.coordinates import great_circle_km

        city = city_by_name("Nairobi")
        candidates = generator.candidate_sites_for(city, TERRESTRIAL)
        nearest = sorted(
            all_cdn_sites(), key=lambda s: great_circle_km(city.location, s.location)
        )[:CANDIDATE_SITES]
        assert list(candidates) == nearest
        # One memo per anchor for every generator, not one per instance.
        assert AimGenerator(seed=99).candidate_sites_for(city, TERRESTRIAL) is candidates

    def test_optimal_site_maputo(self, generator):
        terr_site, terr_rtt = generator.optimal_site(city_by_name("Maputo"), TERRESTRIAL)
        star_site, star_rtt = generator.optimal_site(city_by_name("Maputo"), STARLINK)
        assert terr_site.name == "Maputo"
        assert star_site.iso2 in ("DE", "NL", "BE", "FR")  # Frankfurt region
        assert star_rtt > terr_rtt

    def test_generate_city_tests_fields(self, generator):
        tests = generator.generate_city_tests(city_by_name("Madrid"), STARLINK, 5)
        assert len(tests) == 5
        for test in tests:
            assert isinstance(test, SpeedTest)
            assert test.isp == STARLINK
            assert test.latency_ms > 0
            assert test.loaded_latency_ms > test.latency_ms * 0.5
            assert test.cdn_distance_km >= 0

    def test_generate_city_tests_invalid_count(self, generator):
        with pytest.raises(ConfigurationError):
            generator.generate_city_tests(city_by_name("Madrid"), STARLINK, 0)

    @pytest.mark.parametrize("tests_per_city", [0, -3])
    def test_generate_invalid_tests_per_city(self, tests_per_city):
        with pytest.raises(ConfigurationError, match="tests_per_city must be >= 1"):
            AimGenerator(seed=1).generate(tests_per_city=tests_per_city)


class TestDataset:
    def test_both_isps_present(self, small_dataset):
        assert small_dataset.countries(TERRESTRIAL) == {"MZ", "ES", "NG", "JP"}
        assert small_dataset.countries(STARLINK) == {"MZ", "ES", "NG", "JP"}

    def test_starlink_weighting_by_tier(self, small_dataset):
        # Tier-3 countries get more Starlink tests than tier-1.
        mz_tests = len(small_dataset.filter(isp=STARLINK, iso2="MZ"))
        es_tests = len(small_dataset.filter(isp=STARLINK, iso2="ES"))
        assert mz_tests > es_tests

    def test_filter(self, small_dataset):
        subset = small_dataset.filter(isp=TERRESTRIAL, iso2="MZ")
        assert all(t.isp == TERRESTRIAL and t.iso2 == "MZ" for t in subset)
        assert subset

    def test_median_min_relationship(self, small_dataset):
        for iso2 in ("MZ", "ES"):
            for isp in (STARLINK, TERRESTRIAL):
                assert small_dataset.min_rtt_ms(iso2, isp) <= small_dataset.median_rtt_ms(
                    iso2, isp
                )

    def test_unmeasured_country_is_nan(self, small_dataset):
        assert math.isnan(small_dataset.median_rtt_ms("US", STARLINK))
        assert math.isnan(small_dataset.mean_distance_km("US", STARLINK))
        assert math.isnan(small_dataset.min_rtt_ms("US", STARLINK))

    def test_rtts_by_country(self, small_dataset):
        grouped = small_dataset.rtts_by_country(STARLINK)
        assert set(grouped) == {"MZ", "ES", "NG", "JP"}
        assert all(len(v) > 0 for v in grouped.values())

    def test_pooled_doubles_sample_count(self, small_dataset):
        idle = small_dataset.all_rtts(STARLINK)
        pooled = small_dataset.all_rtts_pooled(STARLINK)
        assert len(pooled) == 2 * len(idle)

    def test_paper_shape_starlink_worse_except_nigeria(self, small_dataset):
        for iso2 in ("MZ", "ES", "JP"):
            assert small_dataset.median_rtt_ms(iso2, STARLINK) > small_dataset.median_rtt_ms(
                iso2, TERRESTRIAL
            )
        # Nigeria: Starlink beats the congested terrestrial access.
        assert small_dataset.median_rtt_ms("NG", STARLINK) < small_dataset.median_rtt_ms(
            "NG", TERRESTRIAL
        )

    def test_starlink_distance_penalty_mozambique(self, small_dataset):
        assert small_dataset.mean_distance_km("MZ", STARLINK) > 7000
        assert small_dataset.mean_distance_km("MZ", TERRESTRIAL) < 1000


class TestReproducibility:
    def test_same_seed_same_dataset(self):
        cities = (city_by_name("Madrid"),)
        a = AimGenerator(seed=9).generate(tests_per_city=5, cities=cities)
        b = AimGenerator(seed=9).generate(tests_per_city=5, cities=cities)
        assert [t.latency_ms for t in a.tests] == [t.latency_ms for t in b.tests]

    def test_different_seed_differs(self):
        cities = (city_by_name("Madrid"),)
        a = AimGenerator(seed=1).generate(tests_per_city=5, cities=cities)
        b = AimGenerator(seed=2).generate(tests_per_city=5, cities=cities)
        assert [t.latency_ms for t in a.tests] != [t.latency_ms for t in b.tests]


LEG_CITIES = ("Maputo", "Madrid", "Lagos", "Nairobi", "Tokyo")


def resolve_every_leg(generator: AimGenerator, cities) -> None:
    """Resolve every deterministic leg a ``generate(cities=...)`` call uses."""
    for city in cities:
        generator.starlink.resolve_path(city)
        for isp in (TERRESTRIAL, STARLINK):
            model = generator.terrestrial if isp == TERRESTRIAL else generator.starlink
            for site in generator.candidate_sites_for(city, isp):
                model.min_rtt_floor_ms(city, site.location, site.iso2)
            generator.throughput_profiles(city, isp)


class TestLegResolution:
    """A path leg is resolved once, draws nothing, and changes no output."""

    def test_cold_resolution_leaves_the_rng_untouched(self):
        generator = AimGenerator(seed=3)
        rng = generator.terrestrial.rng
        before = copy.deepcopy(rng.bit_generator.state)
        assert not generator.terrestrial._legs and not generator.starlink._legs
        resolve_every_leg(generator, tuple(city_by_name(n) for n in LEG_CITIES))
        assert generator.terrestrial._legs and generator.starlink._legs
        assert rng.bit_generator.state == before

    def test_prewarmed_caches_give_identical_output(self):
        cities = tuple(city_by_name(n) for n in LEG_CITIES)
        warm = AimGenerator(seed=3)
        resolve_every_leg(warm, cities)
        legs = (len(warm.terrestrial._legs), len(warm.starlink._legs))
        cold = AimGenerator(seed=3)
        assert (
            warm.generate(tests_per_city=6, cities=cities).tests
            == cold.generate(tests_per_city=6, cities=cities).tests
        )
        # The warm-up resolved every leg the run used.
        assert (len(warm.terrestrial._legs), len(warm.starlink._legs)) == legs


    def test_leg_keys_identify_gazetteer_records(self):
        # A leg is keyed by the client city's name and the remote's
        # (country, lat, lon): each must pick out one gazetteer record.
        cities, sites = all_cities(), all_cdn_sites()
        assert (len(cities), len(sites)) == (115, 94)
        assert len({c.name for c in cities}) == len(cities)
        assert len({(s.iso2, s.lat_deg, s.lon_deg) for s in sites}) == len(sites)
        assert len({s.name for s in sites}) == len(sites)


STARLINK_CITIES = tuple(c for c in all_cities() if c.country.starlink)


@st.composite
def probe_specs(draw):
    """One probe: (city, ISP, candidate-site index, loaded?)."""
    isp = draw(st.sampled_from((TERRESTRIAL, STARLINK)))
    city = draw(st.sampled_from(all_cities() if isp == TERRESTRIAL else STARLINK_CITIES))
    return city, isp, draw(st.integers(0, 7)), draw(st.booleans())


class TestDrawForDraw:
    """Each leg sampler draws what the one-helper-per-draw reference draws."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(probe_specs(), min_size=1, max_size=8))
    def test_samplers_match_the_reference(self, seed, probes):
        generator = AimGenerator(seed=seed)
        reference = seeded_rng(seed, 1)
        for city, isp, index, loaded in probes:
            site = generator.candidate_sites_for(city, isp)[index]
            sample = generator.sample_loaded_rtt_ms if loaded else generator.sample_rtt_ms
            assert sample(city, site, isp) == synthesis_reference.sample_rtt_ms(
                reference, generator, city, site, isp, loaded
            )
        assert generator.terrestrial.rng.bit_generator.state == reference.bit_generator.state


class TestSpeedDraws:
    def test_speed_scale_is_numpys_uniform_draw(self):
        generator = AimGenerator(seed=4)
        download, _ = generator.throughput_profiles(city_by_name("Lagos"), STARLINK)
        reference = np.random.default_rng(0)
        reference.bit_generator.state = copy.deepcopy(
            generator.terrestrial.rng.bit_generator.state
        )
        rtts = [20.0 + 7.0 * i for i in range(100)]
        assert [generator.sample_mbps(download, rtt) for rtt in rtts] == [
            download.download_mbps(rtt) * float(reference.uniform(0.5, 1.0))
            for rtt in rtts
        ]


class TestOptimalSiteMedian:
    @pytest.mark.parametrize("isp", [TERRESTRIAL, STARLINK])
    def test_matches_statistics_median_reference(self, isp):
        city = city_by_name("Nairobi")
        generator = AimGenerator(seed=13)
        # Move the stream off its seed so the replay below depends on the copy.
        generator.optimal_site(city_by_name("Madrid"), isp)
        reference = AimGenerator(seed=99)
        reference.terrestrial.rng.bit_generator.state = copy.deepcopy(
            generator.terrestrial.rng.bit_generator.state
        )

        site, latency = generator.optimal_site(city, isp)

        medians = [
            (
                statistics.median(
                    reference.sample_rtt_ms(city, candidate, isp)
                    for _ in range(PROBES_PER_SITE)
                ),
                candidate,
            )
            for candidate in reference.candidate_sites_for(city, isp)
        ]
        best = min(m for m, _ in medians)
        expected_site = next(c for m, c in medians if m == best)
        assert (site, latency) == (expected_site, best)
