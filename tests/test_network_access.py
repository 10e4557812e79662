"""Tests for Ku-band access-link latency and geometry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.access import (
    access_latency_ms,
    sample_access_one_way_ms,
    sample_elevation_deg,
    slant_range_for_elevation_km,
)


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
        assert slant_range_for_elevation_km(90.0, 550.0) == pytest.approx(550.0)

    def test_monotone_decreasing_in_elevation(self):
        ranges = [slant_range_for_elevation_km(e, 550.0) for e in (10, 25, 50, 90)]
        assert ranges == sorted(ranges, reverse=True)

    def test_matches_visibility_bound(self):
        # Must agree with the law-of-sines bound used by visibility.
        from repro.orbits.visibility import max_slant_range_km

        for elevation in (10.0, 25.0, 40.0):
            assert slant_range_for_elevation_km(elevation, 550.0) == pytest.approx(
                max_slant_range_km(550.0, elevation), rel=1e-6
            )

    def test_invalid_elevation_rejected(self):
        with pytest.raises(ConfigurationError):
            slant_range_for_elevation_km(-1.0)
        with pytest.raises(ConfigurationError):
            slant_range_for_elevation_km(90.1)

    def test_invalid_altitude_rejected(self):
        with pytest.raises(ConfigurationError):
            slant_range_for_elevation_km(45.0, 0.0)


class TestSampleElevation:
    def test_within_usable_range(self):
        rng = np.random.default_rng(0)
        samples = [sample_elevation_deg(rng) for _ in range(500)]
        assert all(25.0 <= s <= 90.0 for s in samples)

    def test_skewed_towards_low_elevations(self):
        rng = np.random.default_rng(1)
        samples = np.array([sample_elevation_deg(rng) for _ in range(2000)])
        midpoint = (25.0 + 90.0) / 2.0
        assert np.mean(samples < midpoint) > 0.55

    def test_invalid_min_elevation_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigurationError):
            sample_elevation_deg(rng, min_elevation_deg=90.0)


class TestSampleAccessLatency:
    def test_bounded_by_geometry(self):
        rng = np.random.default_rng(3)
        samples = [sample_access_one_way_ms(rng) for _ in range(500)]
        # Floor: zenith propagation + fixed overheads (~7.3 ms);
        # ceiling: horizon-range propagation + overheads (~9.3 ms).
        assert all(7.0 < s < 10.0 for s in samples)

    def test_reproducible(self):
        a = [sample_access_one_way_ms(np.random.default_rng(5)) for _ in range(5)]
        b = [sample_access_one_way_ms(np.random.default_rng(5)) for _ in range(5)]
        assert a == b
