"""Latency building blocks shared by the terrestrial and Starlink path models.

The decomposition follows how real paths accrue delay:

* *propagation* — distance over medium speed (vacuum for radio/optical ISLs,
  ~2/3 c for fiber), inflated by route circuity on terrestrial segments;
* *per-hop forwarding* — a small per-router delay;
* *jitter* — multiplicative log-normal plus additive exponential queueing.

Each path model resolves a client-remote leg once into a :class:`LegSampler`
that holds the leg's constants; a probe over the leg then only draws.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    CIRCUITY_TIER1,
    CIRCUITY_TIER2,
    CIRCUITY_TIER3,
    FIBER_SPEED_KM_S,
    TERRESTRIAL_PER_HOP_MS,
)
from repro.errors import ConfigurationError

_TIER_CIRCUITY = {1: CIRCUITY_TIER1, 2: CIRCUITY_TIER2, 3: CIRCUITY_TIER3}

# Per-probe jitter: log-normal sigma of the multiplicative part, mean of the
# exponential queueing part (ms).
_JITTER_SIGMA = 0.06
_QUEUE_SCALE_MS = 1.5


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


class LegSampler:
    """The draws of one probe over a resolved client-remote leg.

    A path model resolves each leg once into a subclass that holds every
    constant a probe needs plus the seeded Generator's bound draw methods,
    so a probe only draws and does its arithmetic. The draw sequence is the
    measurement path's output contract (DESIGN.md §3.10).
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._lognormal = rng.lognormal
        self._exponential = rng.exponential

    def jittered_ms(self, base_ms: float) -> float:
        """``base_ms`` jittered: multiplicative log-normal plus exponential
        queueing (draws lognormal, then exponential)."""
        if base_ms < 0:
            raise ConfigurationError(f"negative base latency: {base_ms}")
        return base_ms * self._lognormal(0.0, _JITTER_SIGMA) + self._exponential(
            _QUEUE_SCALE_MS
        )
