"""Tests for the terrestrial ISP path model."""

import numpy as np
import pytest

from repro.geo.datasets.cdn_sites import cdn_site_by_name
from repro.geo.datasets.cities import city_by_name
from repro.network.terrestrial import TerrestrialPathModel


@pytest.fixture
def model() -> TerrestrialPathModel:
    return TerrestrialPathModel(rng=np.random.default_rng(11))


class TestPathTier:
    def test_same_tier(self, model):
        assert model.path_tier("DE", "GB") == 1

    def test_worst_end_dominates(self, model):
        assert model.path_tier("DE", "MZ") == 3
        assert model.path_tier("MZ", "DE") == 3


class TestCoreLatency:
    def test_zero_distance_is_hop_cost_only(self, model):
        berlin = city_by_name("Berlin")
        core = model.one_way_core_ms(berlin.location, "DE", berlin.location, "DE")
        assert 0.0 < core < 2.0

    def test_local_cdn_is_fast(self, model):
        maputo = city_by_name("Maputo")
        site = cdn_site_by_name("Maputo")
        core = model.one_way_core_ms(maputo.location, "MZ", site.location, "MZ")
        assert core < 3.0

    def test_africa_cross_country_slower_than_europe_same_distance(self, model):
        # Same geodesic distance, but tier-3 circuity vs tier-1.
        maputo = city_by_name("Maputo")
        johannesburg = cdn_site_by_name("Johannesburg")
        london = city_by_name("London")
        frankfurt = cdn_site_by_name("Frankfurt")
        africa = model.one_way_core_ms(maputo.location, "MZ", johannesburg.location, "ZA")
        europe = model.one_way_core_ms(london.location, "GB", frankfurt.location, "DE")
        # Maputo-Jo'burg (~440 km) vs London-Frankfurt (~640 km): despite the
        # shorter geodesic, the African path costs more.
        assert africa > europe


class TestIdleRtt:
    def test_maputo_local_cdn_matches_paper(self, model):
        # Paper Fig. 3b: ~20 ms median to the Maputo CDN terrestrially.
        maputo = city_by_name("Maputo")
        site = cdn_site_by_name("Maputo")
        samples = [
            model.idle_rtt_ms(maputo, site.location, site.iso2) for _ in range(300)
        ]
        assert 12.0 < np.median(samples) < 32.0

    def test_maputo_johannesburg_higher(self, model):
        maputo = city_by_name("Maputo")
        local = cdn_site_by_name("Maputo")
        joburg = cdn_site_by_name("Johannesburg")
        local_median = np.median(
            [model.idle_rtt_ms(maputo, local.location, local.iso2) for _ in range(200)]
        )
        joburg_median = np.median(
            [model.idle_rtt_ms(maputo, joburg.location, joburg.iso2) for _ in range(200)]
        )
        assert joburg_median > local_median + 5.0

    def test_rtt_always_positive(self, model):
        city = city_by_name("Tokyo")
        site = cdn_site_by_name("Tokyo")
        assert all(
            model.idle_rtt_ms(city, site.location, site.iso2) > 0 for _ in range(50)
        )

    def test_nigeria_terrestrial_is_slow_despite_local_cdn(self, model):
        # The paper's NG outlier mechanism: congested access networks.
        lagos = city_by_name("Lagos")
        site = cdn_site_by_name("Lagos")
        samples = [
            model.idle_rtt_ms(lagos, site.location, site.iso2) for _ in range(300)
        ]
        assert np.median(samples) > 40.0


class TestLoadedRtt:
    def test_loaded_adds_mild_bufferbloat(self, model):
        # Loaded = idle + Exp(25 ms), far milder than Starlink's 90 + Exp(60).
        city = city_by_name("Madrid")
        site = cdn_site_by_name("Madrid")
        idle = [model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(2000)]
        loaded = [
            model.loaded_rtt_ms(city, site.location, site.iso2) for _ in range(2000)
        ]
        assert np.mean(loaded) - np.mean(idle) == pytest.approx(25.0, rel=0.15)
