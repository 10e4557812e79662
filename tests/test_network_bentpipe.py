"""Tests for the Starlink bent-pipe / ISL path model."""

import numpy as np
import pytest

from repro.geo.datasets.cdn_sites import cdn_site_by_name
from repro.geo.datasets.cities import city_by_name
from repro.network.bentpipe import StarlinkModelParams, StarlinkPathModel


@pytest.fixture
def model() -> StarlinkPathModel:
    return StarlinkPathModel(rng=np.random.default_rng(21))


class TestResolvePath:
    def test_maputo_routes_via_frankfurt_over_isls(self, model):
        path = model.resolve_path(city_by_name("Maputo"))
        assert path.pop.name == "Frankfurt"
        assert path.uses_isl
        assert path.isl_hops >= 4
        # Nearest Frankfurt-backhauled gateway (Lamia, GR) is ~7300 km away.
        assert path.gateway_distance_km > 7000

    def test_madrid_is_bent_pipe(self, model):
        path = model.resolve_path(city_by_name("Madrid"))
        assert path.pop.name == "Madrid"
        assert not path.uses_isl
        assert path.isl_hops == 0
        assert path.gateway_distance_km < 500

    def test_tokyo_is_bent_pipe(self, model):
        path = model.resolve_path(city_by_name("Tokyo"))
        assert path.pop.name == "Tokyo"
        assert not path.uses_isl

    def test_gateway_belongs_to_assigned_pop(self, model):
        for name in ("Maputo", "Madrid", "Nairobi", "Seattle", "Sydney"):
            path = model.resolve_path(city_by_name(name))
            assert path.gateway.site.pop_name == path.pop.name

    def test_path_cached(self, model):
        city = city_by_name("Maputo")
        assert model.resolve_path(city) is model.resolve_path(city)

    def test_isl_floor_dominated_by_distance(self, model):
        nairobi = model.resolve_path(city_by_name("Nairobi"))
        maputo = model.resolve_path(city_by_name("Maputo"))
        assert maputo.gateway_distance_km > nairobi.gateway_distance_km
        assert maputo.one_way_floor_ms > nairobi.one_way_floor_ms


class TestFloorCalibration:
    def test_madrid_floor_matches_paper_best_case(self, model):
        # Paper Table 1: Spain Starlink minRTT ~33 ms to a local CDN.
        city = city_by_name("Madrid")
        site = cdn_site_by_name("Madrid")
        floor = model.min_rtt_floor_ms(city, site.location, site.iso2)
        assert 24.0 < floor < 38.0

    def test_maputo_frankfurt_floor_matches_paper(self, model):
        # Paper Table 1: Mozambique Starlink minRTT ~139 ms.
        city = city_by_name("Maputo")
        site = cdn_site_by_name("Frankfurt")
        floor = model.min_rtt_floor_ms(city, site.location, site.iso2)
        assert 110.0 < floor < 165.0

    def test_floor_below_sampled_rtts(self, model):
        city = city_by_name("Maputo")
        site = cdn_site_by_name("Frankfurt")
        floor = model.min_rtt_floor_ms(city, site.location, site.iso2)
        samples = [
            model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(100)
        ]
        assert min(samples) > floor * 0.9


class TestSampledRtts:
    def test_idle_rtt_positive(self, model):
        city = city_by_name("Seattle")
        site = cdn_site_by_name("Seattle")
        assert all(
            model.idle_rtt_ms(city, site.location, site.iso2) > 0 for _ in range(50)
        )

    def test_loaded_exceeds_idle_significantly(self, model):
        # Paper: >200 ms during active downloads from ISL-served countries.
        city = city_by_name("Nairobi")
        site = cdn_site_by_name("Frankfurt")
        idle = np.median(
            [model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(200)]
        )
        loaded = np.median(
            [model.loaded_rtt_ms(city, site.location, site.iso2) for _ in range(200)]
        )
        assert loaded > idle + 80.0
        assert loaded > 200.0

    def test_maputo_frankfurt_median_matches_figure3(self, model):
        # Paper Fig. 3a: ~160 ms median from Maputo to the Frankfurt CDN.
        city = city_by_name("Maputo")
        site = cdn_site_by_name("Frankfurt")
        median = np.median(
            [model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(300)]
        )
        assert 135.0 < median < 185.0

    def test_starlink_to_remote_cloud_beats_terrestrial_for_maputo(self, model):
        # Paper §3.2: "for applications that care more about connecting to
        # remote cloud servers, Starlink provides a faster alternative with
        # its fast-path to Europe" — compare Maputo -> Frankfurt both ways.
        from repro.network.terrestrial import TerrestrialPathModel

        terrestrial = TerrestrialPathModel(rng=model.rng)
        city = city_by_name("Maputo")
        site = cdn_site_by_name("Frankfurt")
        star = np.median(
            [model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(200)]
        )
        terr = np.median(
            [terrestrial.idle_rtt_ms(city, site.location, site.iso2) for _ in range(200)]
        )
        assert star < terr


class TestParams:
    def test_custom_stretch_increases_floor(self):
        rng = np.random.default_rng(5)
        slow = StarlinkPathModel(
            rng=rng,
            params=StarlinkModelParams(isl_path_stretch=2.5),
        )
        fast = StarlinkPathModel(
            rng=rng,
            params=StarlinkModelParams(isl_path_stretch=1.2),
        )
        city = city_by_name("Maputo")
        assert (
            slow.resolve_path(city).one_way_floor_ms
            > fast.resolve_path(city).one_way_floor_ms
        )

    def test_bent_pipe_threshold_switches_mode(self):
        rng = np.random.default_rng(6)
        generous = StarlinkPathModel(
            rng=rng, params=StarlinkModelParams(bent_pipe_max_km=10_000.0)
        )
        city = city_by_name("Nairobi")
        assert not generous.resolve_path(city).uses_isl
