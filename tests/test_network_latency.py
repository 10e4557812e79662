"""Tests for latency building blocks."""

import numpy as np
import pytest

from repro.constants import FIBER_SPEED_KM_S, SPEED_OF_LIGHT_KM_S
from repro.errors import ConfigurationError
from repro.geo.datasets.cdn_sites import cdn_site_by_name
from repro.geo.datasets.cities import city_by_name
from repro.network.access import access_latency_ms
from repro.network.bentpipe import StarlinkLeg, StarlinkModelParams, StarlinkPathModel
from repro.network.latency import (
    LegSampler,
    circuity_for_tier,
    estimate_router_hops,
    fiber_path_ms,
    propagation_ms,
)
from repro.network.terrestrial import TerrestrialLeg, last_mile_median_ms
from synthesis_reference import FixedJitter, uplinks_ms


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
    """The stochastic components: last mile, jitter, bufferbloat and the
    Starlink frame jitter, each drawn inside a leg sampler."""

    def test_last_mile_positive(self):
        assert all(last_mile_median_ms(tier, "DE") > 0 for tier in (1, 2, 3))

    def test_last_mile_tier_ordering_in_median(self):
        assert last_mile_median_ms(1, "DE") < last_mile_median_ms(3, "MZ")

    def test_nigeria_override_is_much_slower(self):
        assert last_mile_median_ms(3, "NG") > 2.0 * last_mile_median_ms(3, "MZ")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            last_mile_median_ms(7, "DE")

    def test_jitter_close_to_base(self):
        sampler = LegSampler(np.random.default_rng(2))
        base = 100.0
        samples = [sampler.jittered_ms(base) for _ in range(500)]
        assert 95.0 < np.median(samples) < 115.0
        assert all(s > 0 for s in samples)

    def test_jitter_negative_base_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            LegSampler(rng).jittered_ms(-1.0)

    def test_bufferbloat_heavy_tail(self):
        # Loaded = idle + 90 ms + Exp(60 ms) over Starlink.
        city = city_by_name("Madrid")
        site = cdn_site_by_name("Madrid")
        model = StarlinkPathModel(rng=np.random.default_rng(3))
        idle = np.array(
            [model.idle_rtt_ms(city, site.location, site.iso2) for _ in range(2000)]
        )
        loaded = np.array(
            [model.loaded_rtt_ms(city, site.location, site.iso2) for _ in range(2000)]
        )
        assert loaded.mean() - idle.mean() == pytest.approx(150.0, rel=0.05)
        assert loaded.max() > np.median(idle) + 90.0 + 200.0

    def test_frame_jitter_bounded(self):
        from repro.constants import STARLINK_FRAME_JITTER_MAX_MS

        samples = frame_jitters_ms(np.random.default_rng(4), 500)
        assert all(0.0 <= s <= STARLINK_FRAME_JITTER_MAX_MS for s in samples)

    def test_frame_jitter_is_numpys_uniform_draw(self):
        # The draw sequence is the measurement path's output contract: the
        # jitter must stay Generator.uniform(0, max), bit for bit. On a
        # zenith leg with no tail, no remote leg and identity jitter, a
        # probe is its jitter-free RTT plus the frame jitter, exactly.
        from repro.constants import STARLINK_FRAME_JITTER_MAX_MS

        base = zenith_probes_ms(FixedJitter(elevation_fraction=1.0), 1)[0]
        probes = zenith_probes_ms(
            FixedJitter(np.random.default_rng(4), 1.0, frame_jitter=True), 500
        )
        reference = np.random.default_rng(4)
        assert probes == [
            base + float(reference.uniform(0.0, STARLINK_FRAME_JITTER_MAX_MS))
            for _ in range(500)
        ]

    def test_reproducible_from_seed(self):
        a = TerrestrialLeg(np.random.default_rng(99), 1.0, 1, "DE")
        b = TerrestrialLeg(np.random.default_rng(99), 1.0, 1, "DE")
        assert [a.idle_rtt_ms() for _ in range(10)] == [
            b.idle_rtt_ms() for _ in range(10)
        ]


def zenith_probes_ms(draws: FixedJitter, n: int) -> list[float]:
    """``n`` idle RTTs drawn from ``draws`` on a leg with no tail and no
    remote leg."""
    leg = StarlinkLeg(draws, StarlinkModelParams(), 0.0, 0.0)
    return [leg.idle_rtt_ms() for _ in range(n)]


def frame_jitters_ms(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` Starlink frame jitters, read off zenith probes with no jitter."""
    draws = FixedJitter(rng, elevation_fraction=1.0, frame_jitter=True)
    zenith = access_latency_ms(550.0)
    return [2.0 * (up - zenith) for up in uplinks_ms(draws, n)]
