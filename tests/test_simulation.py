"""Tests for simulation utilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simulation.sampler import (
    EpochSampler,
    WeightedIndex,
    seeded_rng,
    user_sample_points,
)


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


# Raw weights, normalised the way every caller does (``w / w.sum()``).
# Zeros (leading, inner and trailing), a single weight and heavy skew are
# the edges where a CDF search can pick the wrong side of a flat step.
raw_weights = st.one_of(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, 0.0, 1e-12, 1.0, 1e9]), min_size=1, max_size=12),
).filter(lambda w: sum(w) > 0)


# Small integer weights padded to a power-of-two total: every probability
# and CDF step is then an exact multiple of 2**-53 (with ties and zero
# runs), so ``random()`` can land on it.
dyadic_weights = st.lists(st.integers(0, 4), min_size=1, max_size=12).map(
    lambda w: [*w, (1 << max(sum(w) - 1, 0).bit_length()) - sum(w)]
)

_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _rng_whose_next_random_is(u: float) -> np.random.Generator:
    """A PCG64 Generator whose next ``random()`` returns exactly ``u``.

    ``random()`` is ``(next64 >> 11) * 2**-53``, and PCG64 steps its
    128-bit LCG state before outputting ``rotr(hi ^ lo, hi >> 58)``; a
    post-step state with ``hi == 0`` outputs ``lo``. So the pre-step state
    is that target run backwards through the LCG.
    """
    k = int(u * 2**53)
    assert k / 2**53 == u, "u must be a multiple of 2**-53"
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    target = k << 11
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = (target - state["state"]["inc"]) * inverse % (1 << 128)
    rng.bit_generator.state = state
    check = np.random.default_rng(0)
    check.bit_generator.state = state
    assert check.random() == u
    return rng


class TestWeightedIndex:
    @given(raw_weights, st.integers(0, 2**32 - 1))
    @example([1.0], 0)
    @example([0.0, 1.0, 0.0], 1)
    @example([0.0, 0.0, 1.0], 2)
    @example([1e9, 1e-12, 0.0, 1e-12], 3)
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_generator_choice(self, raw, seed):
        """Index for index and state for state, the helper is
        ``Generator.choice(len(p), p=p)``."""
        p = np.array(raw, dtype=float)
        p /= p.sum()
        index = WeightedIndex(p)
        ours = np.random.default_rng(seed)
        numpy_choice = np.random.default_rng(seed)
        for _ in range(25):
            expected = int(numpy_choice.choice(len(p), p=p))
            assert index.draw(ours) == expected
            assert ours.bit_generator.state == numpy_choice.bit_generator.state

    @given(dyadic_weights)
    @example([1])
    @example([1, 1])
    @example([0, 1, 0, 1, 0])
    @settings(max_examples=200, deadline=None)
    def test_ties_resolve_like_generator_choice(self, raw):
        """When ``random()`` lands exactly on a CDF step (or on 0.0), the
        helper picks the index ``choice`` picks. A uniformly seeded draw
        almost never ties, so each tie is forced through the Generator's
        state."""
        p = np.array(raw, dtype=float)
        p /= p.sum()
        index = WeightedIndex(p)
        cdf = np.cumsum(p)
        for u in {0.0, *(float(v) for v in cdf if v < 1.0)}:
            ours = _rng_whose_next_random_is(u)
            numpy_choice = _rng_whose_next_random_is(u)
            assert index.draw(ours) == int(numpy_choice.choice(len(p), p=p))
            assert ours.bit_generator.state == numpy_choice.bit_generator.state

    def test_zero_weight_never_drawn(self):
        index = WeightedIndex(np.array([0.0, 0.5, 0.0, 0.5, 0.0]))
        rng = np.random.default_rng(0)
        assert {index.draw(rng) for _ in range(500)} == {1, 3}

    @pytest.mark.parametrize(
        "p",
        [
            [],
            [[0.5, 0.5]],
            [0.5, 0.6],
            [1.5, -0.5],
            [0.5, float("nan")],
            [float("inf"), 0.0],
        ],
    )
    def test_invalid_weights_rejected(self, p):
        with pytest.raises(ConfigurationError):
            WeightedIndex(np.array(p, dtype=float))
