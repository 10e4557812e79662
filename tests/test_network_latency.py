"""Tests for latency building blocks."""

import numpy as np
import pytest

from repro.constants import FIBER_SPEED_KM_S, SPEED_OF_LIGHT_KM_S
from repro.errors import ConfigurationError
from repro.network.latency import (
    LatencyNoise,
    circuity_for_tier,
    estimate_router_hops,
    fiber_path_ms,
    propagation_ms,
)


class TestPropagation:
    def test_light_ms_per_1000km(self):
        # ~3.336 ms per 1000 km in vacuum.
        assert propagation_ms(1000.0, SPEED_OF_LIGHT_KM_S) == pytest.approx(3.336, abs=0.01)

    def test_fiber_slower(self):
        assert propagation_ms(1000.0, FIBER_SPEED_KM_S) > propagation_ms(
            1000.0, SPEED_OF_LIGHT_KM_S
        )

    def test_zero_distance(self):
        assert propagation_ms(0.0, FIBER_SPEED_KM_S) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            propagation_ms(-1.0, FIBER_SPEED_KM_S)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            propagation_ms(1.0, 0.0)


class TestCircuity:
    def test_known_tiers(self):
        assert circuity_for_tier(1) < circuity_for_tier(2) < circuity_for_tier(3)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            circuity_for_tier(4)


class TestRouterHops:
    def test_metro_floor(self):
        assert estimate_router_hops(0.0) == 3

    def test_grows_with_distance(self):
        assert estimate_router_hops(6000.0) > estimate_router_hops(600.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_router_hops(-1.0)


class TestFiberPath:
    def test_tier_ordering(self):
        for distance in (100.0, 1000.0, 8000.0):
            assert (
                fiber_path_ms(distance, 1)
                < fiber_path_ms(distance, 2)
                < fiber_path_ms(distance, 3)
            )

    def test_transatlantic_sanity(self):
        # London-New York (~5570 km) one-way over tier-1 fiber: ~38-45 ms
        # (observed RTTs are ~70-80 ms).
        one_way = fiber_path_ms(5570.0, 1)
        assert 33.0 < one_way < 50.0

    def test_extra_hops_add_latency(self):
        assert fiber_path_ms(100.0, 1, extra_hops=10) > fiber_path_ms(100.0, 1)


class TestLatencyNoise:
    def test_last_mile_positive(self, noise):
        samples = [noise.last_mile_ms(tier) for tier in (1, 2, 3) for _ in range(20)]
        assert all(s > 0 for s in samples)

    def test_last_mile_tier_ordering_in_median(self):
        rng = np.random.default_rng(0)
        noise = LatencyNoise(rng=rng)
        t1 = np.median([noise.last_mile_ms(1) for _ in range(500)])
        t3 = np.median([noise.last_mile_ms(3) for _ in range(500)])
        assert t1 < t3

    def test_nigeria_override_is_much_slower(self):
        noise = LatencyNoise(rng=np.random.default_rng(1))
        ng = np.median([noise.last_mile_ms(3, "NG") for _ in range(500)])
        generic = np.median([noise.last_mile_ms(3, "MZ") for _ in range(500)])
        assert ng > 2.0 * generic

    def test_unknown_tier_rejected(self, noise):
        with pytest.raises(ConfigurationError):
            noise.last_mile_ms(7)

    def test_jitter_close_to_base(self):
        noise = LatencyNoise(rng=np.random.default_rng(2))
        base = 100.0
        samples = [noise.jitter_ms(base) for _ in range(500)]
        assert 95.0 < np.median(samples) < 115.0
        assert all(s > 0 for s in samples)

    def test_jitter_negative_base_rejected(self, noise):
        with pytest.raises(ConfigurationError):
            noise.jitter_ms(-1.0)

    def test_bufferbloat_heavy_tail(self):
        noise = LatencyNoise(rng=np.random.default_rng(3))
        samples = np.array([noise.bufferbloat_ms(60.0) for _ in range(2000)])
        assert samples.mean() == pytest.approx(60.0, rel=0.15)
        assert samples.max() > 200.0

    def test_frame_jitter_bounded(self):
        from repro.constants import STARLINK_FRAME_JITTER_MAX_MS

        noise = LatencyNoise(rng=np.random.default_rng(4))
        samples = [noise.starlink_frame_jitter_ms() for _ in range(500)]
        assert all(0.0 <= s <= STARLINK_FRAME_JITTER_MAX_MS for s in samples)

    def test_frame_jitter_is_numpys_uniform_draw(self):
        # The draw sequence is the measurement path's output contract: the
        # jitter must stay bit-identical to Generator.uniform(0, max).
        from repro.constants import STARLINK_FRAME_JITTER_MAX_MS

        noise = LatencyNoise(rng=np.random.default_rng(4))
        reference = np.random.default_rng(4)
        assert [noise.starlink_frame_jitter_ms() for _ in range(500)] == [
            float(reference.uniform(0.0, STARLINK_FRAME_JITTER_MAX_MS))
            for _ in range(500)
        ]

    def test_reproducible_from_seed(self):
        a = LatencyNoise(rng=np.random.default_rng(99))
        b = LatencyNoise(rng=np.random.default_rng(99))
        assert [a.last_mile_ms(1) for _ in range(10)] == [
            b.last_mile_ms(1) for _ in range(10)
        ]
