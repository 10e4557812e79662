"""Tests for anycast site selection."""

import pytest

from repro.cdn.anycast import best_site_by_latency
from repro.errors import ConfigurationError
from repro.geo.datasets.cdn_sites import cdn_site_by_name


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
