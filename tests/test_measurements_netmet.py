"""Tests for the NetMet web-browsing model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.datasets.cities import city_by_name
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.measurements.netmet import NetMetProbe
from repro.measurements.webpage import WebPage, top_site_pages


class TestWebPages:
    def test_twenty_pages_like_tranco_top20(self):
        assert len(top_site_pages()) == 20

    def test_page_fields_valid(self):
        for page in top_site_pages():
            assert page.html_bytes > 0
            assert page.critical_bytes >= 0
            assert page.render_ms >= 0

    def test_invalid_page_rejected(self):
        with pytest.raises(ConfigurationError):
            WebPage("x", html_bytes=0, critical_resources=1, critical_bytes=10, render_ms=1.0)
        with pytest.raises(ConfigurationError):
            WebPage("x", html_bytes=10, critical_resources=-1, critical_bytes=10, render_ms=1.0)
        with pytest.raises(ConfigurationError):
            WebPage("x", html_bytes=10, critical_resources=1, critical_bytes=10, render_ms=-1.0)


class TestTransferModel:
    def test_slow_start_zero_for_tiny_transfer(self):
        assert NetMetProbe.slow_start_rtts(1000) == 0

    def test_slow_start_grows_then_caps(self):
        small = NetMetProbe.slow_start_rtts(50_000)
        big = NetMetProbe.slow_start_rtts(5_000_000)
        assert 0 < small <= big <= 5

    def test_slow_start_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            NetMetProbe.slow_start_rtts(-1)

    def test_transfer_time_linear(self):
        assert NetMetProbe.transfer_ms(2_000_000, 10.0) == pytest.approx(
            2 * NetMetProbe.transfer_ms(1_000_000, 10.0)
        )

    def test_transfer_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetMetProbe.transfer_ms(1000, 0.0)


class TestBandwidth:
    def test_nigeria_terrestrial_slow(self):
        probe = NetMetProbe(seed=1)
        lagos = city_by_name("Lagos")
        berlin = city_by_name("Berlin")
        ng = np.median([probe.bandwidth_mbps(lagos, TERRESTRIAL) for _ in range(300)])
        de = np.median([probe.bandwidth_mbps(berlin, TERRESTRIAL) for _ in range(300)])
        assert ng < de / 5

    def test_starlink_bandwidth_city_independent(self):
        probe = NetMetProbe(seed=2)
        lagos = city_by_name("Lagos")
        berlin = city_by_name("Berlin")
        ng = np.median([probe.bandwidth_mbps(lagos, STARLINK) for _ in range(300)])
        de = np.median([probe.bandwidth_mbps(berlin, STARLINK) for _ in range(300)])
        assert ng == pytest.approx(de, rel=0.25)

    def test_unknown_isp_rejected(self):
        probe = NetMetProbe(seed=3)
        with pytest.raises(ConfigurationError):
            probe.bandwidth_mbps(city_by_name("Berlin"), "dialup")


class TestFetchPage:
    def test_metrics_ordering(self):
        probe = NetMetProbe(seed=4)
        page = top_site_pages()[0]
        record = probe.fetch_page(city_by_name("Berlin"), TERRESTRIAL, page)
        assert record.dns_ms >= 0
        assert record.connect_ms > 0
        assert record.tls_ms > 0
        assert record.http_response_ms >= record.connect_ms  # at least one RTT
        assert record.fcp_ms > record.http_response_ms + page.render_ms

    def test_browse_round_count(self):
        probe = NetMetProbe(seed=5)
        records = probe.browse(city_by_name("Berlin"), TERRESTRIAL, rounds=2)
        assert len(records) == 40

    def test_browse_invalid_rounds(self):
        probe = NetMetProbe(seed=6)
        with pytest.raises(ConfigurationError):
            probe.browse(city_by_name("Berlin"), TERRESTRIAL, rounds=0)

    def test_starlink_fcp_higher_in_germany(self):
        # Paper Fig. 5: ~200 ms higher median FCP over Starlink in DE.
        probe = NetMetProbe(seed=7)
        berlin = city_by_name("Berlin")
        star = np.median([r.fcp_ms for r in probe.browse(berlin, STARLINK, rounds=3)])
        terr = np.median([r.fcp_ms for r in probe.browse(berlin, TERRESTRIAL, rounds=3)])
        assert 100.0 < star - terr < 400.0

    def test_nigeria_starlink_hrt_faster(self):
        # Paper Fig. 4: Nigeria is the outlier where Starlink wins.
        probe = NetMetProbe(seed=8)
        lagos = city_by_name("Lagos")
        star = np.median(
            [r.http_response_ms for r in probe.browse(lagos, STARLINK, rounds=3)]
        )
        terr = np.median(
            [r.http_response_ms for r in probe.browse(lagos, TERRESTRIAL, rounds=3)]
        )
        assert star < terr
