"""Tests for anycast site selection."""

import pytest

from repro.cdn.anycast import best_site_by_latency, nearest_site
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.cdn_sites import all_cdn_sites, cdn_site_by_name


class TestNearestSite:
    def test_maputo_nearest_is_maputo(self):
        maputo = GeoPoint(-25.97, 32.57)
        assert nearest_site(maputo, all_cdn_sites()).name == "Maputo"

    def test_empty_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            nearest_site(GeoPoint(0.0, 0.0), [])

    def test_returns_minimum_distance(self):
        point = GeoPoint(48.0, 10.0)
        chosen = nearest_site(point, all_cdn_sites())
        best = min(
            great_circle_km(point, s.location) for s in all_cdn_sites()
        )
        assert great_circle_km(point, chosen.location) == pytest.approx(best)


class TestBestSiteByLatency:
    def test_picks_minimum(self):
        sites = [cdn_site_by_name("Frankfurt"), cdn_site_by_name("Maputo")]
        site, latency = best_site_by_latency(
            sites, lambda s: 10.0 if s.name == "Maputo" else 50.0
        )
        assert site.name == "Maputo"
        assert latency == 10.0

    def test_negative_latency_rejected(self):
        sites = [cdn_site_by_name("Frankfurt")]
        with pytest.raises(ConfigurationError):
            best_site_by_latency(sites, lambda s: -1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            best_site_by_latency([], lambda s: 1.0)
