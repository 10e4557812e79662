"""Latency building blocks shared by the terrestrial and Starlink path models.

The decomposition follows how real paths accrue delay:

* *propagation* — distance over medium speed (vacuum for radio/optical ISLs,
  ~2/3 c for fiber), inflated by route circuity on terrestrial segments;
* *per-hop forwarding* — a small per-router delay;
* *last mile* — the access-network delay at the client edge, strongly
  tier-dependent (DOCSIS/fiber in tier 1 vs congested links in tier 3);
* *jitter* — multiplicative log-normal plus additive exponential queueing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CIRCUITY_TIER1,
    CIRCUITY_TIER2,
    CIRCUITY_TIER3,
    FIBER_SPEED_KM_S,
    STARLINK_FRAME_JITTER_MAX_MS,
    TERRESTRIAL_PER_HOP_MS,
)
from repro.errors import ConfigurationError

_TIER_CIRCUITY = {1: CIRCUITY_TIER1, 2: CIRCUITY_TIER2, 3: CIRCUITY_TIER3}

# Last-mile one-way medians by infrastructure tier (ms). Minimums observed in
# speed tests are far lower than medians, hence the wide log-normal sigma.
_TIER_LAST_MILE_MEDIAN_MS = {1: 3.5, 2: 5.0, 3: 8.0}
_LAST_MILE_SIGMA = 0.7

# Country-specific last-mile overrides where access quality deviates sharply
# from the tier norm. Nigeria's fixed/mobile access is persistently congested
# (the paper finds Starlink *beats* terrestrial there despite a local CDN,
# because subscribers "skip the still under-developed terrestrial
# infrastructure").
_COUNTRY_LAST_MILE_MEDIAN_MS = {"NG": 26.0}


def propagation_ms(distance_km: float, speed_km_s: float) -> float:
    """One-way propagation delay over ``distance_km`` at ``speed_km_s``."""
    if distance_km < 0:
        raise ConfigurationError(f"negative distance: {distance_km}")
    if speed_km_s <= 0:
        raise ConfigurationError(f"non-positive speed: {speed_km_s}")
    return distance_km / speed_km_s * 1000.0


def circuity_for_tier(tier: int) -> float:
    """Route-stretch factor (actual fiber path / geodesic) for an infra tier."""
    try:
        return _TIER_CIRCUITY[tier]
    except KeyError:
        raise ConfigurationError(f"unknown infrastructure tier: {tier}") from None


def estimate_router_hops(distance_km: float) -> int:
    """Rough router-hop count for a terrestrial path of the given geodesic length.

    A handful of hops inside the metro plus roughly one transit hop per
    600 km of long-haul distance.
    """
    if distance_km < 0:
        raise ConfigurationError(f"negative distance: {distance_km}")
    return 3 + int(distance_km / 600.0)


def fiber_path_ms(distance_km: float, tier: int, extra_hops: int = 0) -> float:
    """One-way latency of a terrestrial fiber path (propagation + forwarding).

    ``distance_km`` is the geodesic distance; circuity inflation comes from
    the infrastructure tier of the region the path crosses.
    """
    stretched = distance_km * circuity_for_tier(tier)
    hops = estimate_router_hops(distance_km) + extra_hops
    return propagation_ms(stretched, FIBER_SPEED_KM_S) + hops * TERRESTRIAL_PER_HOP_MS


@dataclass
class LatencyNoise:
    """Stochastic latency components, driven by a seeded numpy Generator.

    Keeping the RNG injected (rather than module-global) makes every
    experiment reproducible from its seed alone.
    """

    rng: np.random.Generator

    def last_mile_ms(self, tier: int, iso2: str | None = None) -> float:
        """One sampled last-mile one-way delay for a client in the given tier.

        ``iso2`` enables country-specific overrides (e.g. Nigeria's
        congested access networks).
        """
        median = _TIER_LAST_MILE_MEDIAN_MS.get(tier)
        if median is None:
            raise ConfigurationError(f"unknown infrastructure tier: {tier}")
        if iso2 is not None:
            median = _COUNTRY_LAST_MILE_MEDIAN_MS.get(iso2, median)
        return float(self.rng.lognormal(math.log(median), _LAST_MILE_SIGMA))

    def jitter_ms(self, base_ms: float, sigma: float = 0.06, queue_scale_ms: float = 1.5) -> float:
        """Total jittered latency: multiplicative log-normal + exponential queueing."""
        if base_ms < 0:
            raise ConfigurationError(f"negative base latency: {base_ms}")
        multiplicative = float(self.rng.lognormal(0.0, sigma))
        queueing = float(self.rng.exponential(queue_scale_ms))
        return base_ms * multiplicative + queueing

    def bufferbloat_ms(self, scale_ms: float = 60.0) -> float:
        """Extra queueing delay under load (heavy-tailed)."""
        return float(self.rng.exponential(scale_ms))

    def starlink_frame_jitter_ms(self) -> float:
        """Per-RTT spread from uplink-grant alignment and CGNAT queueing.

        Uniform over [0, max]: the terminal's request lands anywhere within
        the scheduler's grant cycle, independently each round trip.
        ``max * random()`` is numpy's own ``uniform(0.0, max)`` formula
        (``low + (high - low) * random()``), minus its argument checks.
        """
        return STARLINK_FRAME_JITTER_MAX_MS * self.rng.random()
