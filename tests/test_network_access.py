"""Tests for Ku-band access-link latency and the sampled uplink's geometry.

The analytic Starlink model samples the uplink inside its probe sampler
(:class:`repro.network.bentpipe.StarlinkLeg`); :func:`uplinks_ms` reads it
alone, with the jitter draws held at their identity.
"""

import numpy as np
import pytest

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import ConfigurationError
from repro.network.access import access_latency_ms
from repro.network.bentpipe import StarlinkModelParams
from synthesis_reference import FixedJitter, uplinks_ms
from visibility_reference import max_slant_range_km


def uplink_at(fraction: float, altitude_km: float = 550.0) -> float:
    """The uplink ms at elevation ``25 + fraction * 65`` degrees."""
    params = StarlinkModelParams(altitude_km=altitude_km)
    return uplinks_ms(FixedJitter(elevation_fraction=fraction), 1, params)[0]


def elevation_fraction(elevation_deg: float) -> float:
    return (elevation_deg - MIN_ELEVATION_USER_DEG) / (90.0 - MIN_ELEVATION_USER_DEG)


class TestAccessLatency:
    def test_array_equals_scalar_bit_for_bit(self):
        slants = np.random.default_rng(3).uniform(0.0, 2500.0, size=257)
        slants[:3] = (0.0, 550.0, 1123.456789)
        batch = access_latency_ms(slants)
        assert isinstance(batch, np.ndarray) and batch.shape == slants.shape
        scalar = np.array([access_latency_ms(float(x)) for x in slants])
        assert batch.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("index", [0, 4, 9])
    def test_any_negative_element_rejected(self, index):
        slants = np.full(10, 700.0)
        slants[index] = -1e-9
        with pytest.raises(ConfigurationError):
            access_latency_ms(slants)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scalar_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            access_latency_ms(value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("index", [0, 4, 9])
    def test_any_non_finite_element_rejected(self, value, index):
        slants = np.full(10, 700.0)
        slants[index] = value
        with pytest.raises(ConfigurationError, match="finite"):
            access_latency_ms(slants)


class TestSlantRangeForElevation:
    def test_zenith_equals_altitude(self):
        assert uplink_at(1.0) == pytest.approx(access_latency_ms(550.0), rel=1e-12)

    def test_monotone_decreasing_in_elevation(self):
        ranges = [uplink_at(f) for f in (0.0, 0.25, 0.5, 1.0)]
        assert ranges == sorted(ranges, reverse=True)

    def test_matches_visibility_bound(self):
        # Must agree with the law-of-sines bound used by visibility.
        for elevation in (25.0, 40.0, 60.0):
            assert uplink_at(elevation_fraction(elevation)) == pytest.approx(
                access_latency_ms(max_slant_range_km(550.0, elevation)), rel=1e-6
            )

    def test_invalid_elevation_rejected(self):
        for fraction in (-0.5, 1.01):
            with pytest.raises(ConfigurationError, match="elevation"):
                uplink_at(fraction)

    def test_invalid_altitude_rejected(self):
        with pytest.raises(ConfigurationError, match="altitude"):
            uplink_at(0.5, altitude_km=0.0)


class TestSampleElevation:
    def test_within_usable_range(self):
        samples = uplinks_ms(FixedJitter(np.random.default_rng(0)), 500)
        assert all(uplink_at(1.0) <= s <= uplink_at(0.0) for s in samples)

    def test_skewed_towards_low_elevations(self):
        samples = np.array(uplinks_ms(FixedJitter(np.random.default_rng(1)), 2000))
        # A lower elevation means a longer slant range and a slower uplink.
        midpoint = uplink_at(elevation_fraction((25.0 + 90.0) / 2.0))
        assert np.mean(samples > midpoint) > 0.55


class TestSampleAccessLatency:
    def test_bounded_by_geometry(self):
        samples = uplinks_ms(FixedJitter(np.random.default_rng(3)), 500)
        # Floor: zenith propagation + fixed overheads (~7.3 ms);
        # ceiling: horizon-range propagation + overheads (~9.3 ms).
        assert all(7.0 < s < 10.0 for s in samples)

    def test_reproducible(self):
        a = uplinks_ms(FixedJitter(np.random.default_rng(5)), 5)
        b = uplinks_ms(FixedJitter(np.random.default_rng(5)), 5)
        assert a == b
