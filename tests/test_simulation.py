"""Tests for simulation utilities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.sampler import EpochSampler, seeded_rng, user_sample_points


class TestSeededRng:
    def test_reproducible(self):
        a = seeded_rng(7, 1).normal(size=5)
        b = seeded_rng(7, 1).normal(size=5)
        assert np.allclose(a, b)

    def test_streams_independent(self):
        a = seeded_rng(7, 1).normal(size=5)
        b = seeded_rng(7, 2).normal(size=5)
        assert not np.allclose(a, b)


class TestEpochSampler:
    def test_count(self):
        sampler = EpochSampler(period_s=5700.0, num_epochs=5, seed=1)
        assert len(sampler.epochs()) == 5

    def test_epochs_within_period(self):
        sampler = EpochSampler(period_s=5700.0, num_epochs=8, seed=1)
        assert all(0.0 <= e < 5700.0 for e in sampler.epochs())

    def test_stratified_one_per_stratum(self):
        sampler = EpochSampler(period_s=100.0, num_epochs=4, seed=2)
        epochs = sampler.epochs()
        for i, epoch in enumerate(epochs):
            assert i * 25.0 <= epoch < (i + 1) * 25.0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            EpochSampler(period_s=0.0, num_epochs=3)
        with pytest.raises(ConfigurationError):
            EpochSampler(period_s=100.0, num_epochs=0)


class TestUserSamplePoints:
    def test_count_and_bounds(self):
        rng = np.random.default_rng(0)
        points = user_sample_points(rng, 200, max_abs_latitude_deg=53.0)
        assert len(points) == 200
        assert all(abs(p.lat_deg) <= 53.0 for p in points)
        assert all(-180.0 <= p.lon_deg <= 180.0 for p in points)

    def test_area_uniformity_not_pole_biased(self):
        # Uniform-in-sin(lat): roughly half the samples fall within the
        # band |lat| < 23.6 deg (sin 53 deg ~ 0.8, half-mass at sin ~ 0.4).
        rng = np.random.default_rng(1)
        points = user_sample_points(rng, 4000, max_abs_latitude_deg=53.0)
        inner = sum(1 for p in points if abs(p.lat_deg) < 23.6)
        assert 0.42 < inner / len(points) < 0.58

    def test_invalid_args(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigurationError):
            user_sample_points(rng, 0)
        with pytest.raises(ConfigurationError):
            user_sample_points(rng, 5, max_abs_latitude_deg=0.0)
