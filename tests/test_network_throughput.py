"""Tests for the TCP throughput model."""

import pytest

from repro.errors import ConfigurationError
from repro.network.throughput import (
    effective_download_mbps,
    mathis_throughput_mbps,
    starlink_profile,
    terrestrial_profile,
)


class TestMathis:
    def test_known_value(self):
        # MSS 1460 B, RTT 100 ms, loss 1e-4: ~14.3 Mbps.
        assert mathis_throughput_mbps(100.0, 1e-4) == pytest.approx(14.3, rel=0.05)

    def test_throughput_falls_with_rtt(self):
        fast = mathis_throughput_mbps(20.0, 1e-4)
        slow = mathis_throughput_mbps(160.0, 1e-4)
        assert fast == pytest.approx(8 * slow, rel=1e-9)

    def test_throughput_falls_with_loss(self):
        clean = mathis_throughput_mbps(50.0, 1e-5)
        lossy = mathis_throughput_mbps(50.0, 1e-3)
        assert clean == pytest.approx(10 * lossy, rel=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtt_ms": 0.0},
            {"loss_rate": 0.0},
            {"loss_rate": 1.0},
            {"mss_bytes": 0},
        ],
    )
    def test_invalid_args(self, kwargs):
        base = dict(rtt_ms=50.0, loss_rate=1e-4, mss_bytes=1460)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            mathis_throughput_mbps(**base)


class TestEffectiveDownload:
    def test_capacity_caps_short_paths(self):
        # A 5 ms clean path is Mathis-bound above 500 Mbps, so the link
        # capacity is the binding constraint.
        assert effective_download_mbps(5.0, 2e-5, 500.0) == 500.0

    def test_mathis_caps_long_paths(self):
        speed = effective_download_mbps(150.0, 8e-4, 500.0)
        assert speed < 100.0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            effective_download_mbps(50.0, 1e-4, 0.0)


class TestProfiles:
    def test_isl_paths_lossier(self):
        assert starlink_profile(True).loss_rate > starlink_profile(False).loss_rate

    def test_terrestrial_tiers_ordered(self):
        assert (
            terrestrial_profile(1).loss_rate
            < terrestrial_profile(2).loss_rate
            < terrestrial_profile(3).loss_rate
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            terrestrial_profile(9)

    def test_paper_speed_asymmetry(self):
        """A Maputo-class user (ISL path, ~150 ms) gets a far slower single
        flow than a Madrid-class user (bent pipe, ~40 ms)."""
        maputo_like = starlink_profile(True).download_mbps(150.0)
        madrid_like = starlink_profile(False).download_mbps(40.0)
        assert madrid_like > 3.0 * maputo_like


class TestUploadProfiles:
    def test_starlink_upload_far_below_download(self):
        from repro.network.throughput import starlink_upload_profile

        up = starlink_upload_profile(False).download_mbps(40.0)
        down = starlink_profile(False).download_mbps(40.0)
        assert up < down / 2

    def test_terrestrial_upload_tiers_ordered(self):
        from repro.network.throughput import terrestrial_upload_profile

        t1 = terrestrial_upload_profile(1).link_capacity_mbps
        t3 = terrestrial_upload_profile(3).link_capacity_mbps
        assert t1 > t3

    def test_unknown_tier_rejected(self):
        from repro.network.throughput import terrestrial_upload_profile

        with pytest.raises(ConfigurationError):
            terrestrial_upload_profile(9)


class TestAimIntegration:
    def test_speed_tests_carry_download(self):
        from repro.geo.datasets.cities import city_by_name
        from repro.measurements.aim import STARLINK, AimGenerator

        generator = AimGenerator(seed=11)
        tests = generator.generate_city_tests(city_by_name("Maputo"), STARLINK, 10)
        assert all(t.download_mbps > 0 for t in tests)
        assert all(0 < t.upload_mbps < t.download_mbps * 3 for t in tests)

    def test_starlink_download_slower_in_isl_countries(self):
        import numpy as np

        from repro.geo.datasets.cities import city_by_name
        from repro.measurements.aim import STARLINK, AimGenerator

        generator = AimGenerator(seed=12)
        maputo = generator.generate_city_tests(city_by_name("Maputo"), STARLINK, 20)
        madrid = generator.generate_city_tests(city_by_name("Madrid"), STARLINK, 20)
        assert np.median([t.download_mbps for t in maputo]) < np.median(
            [t.download_mbps for t in madrid]
        )
