"""Terrestrial ISP path model: client city -> CDN/destination over fiber.

The model captures why terrestrial CDN access is usually fast: most clients
have an anycast CDN site in or near their own city, so the RTT is dominated
by the last mile. Long cross-region paths pick up circuity from the worst
infrastructure tier they cross (the paper cites Africa's inter-country
detours through Europe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.cities import City
from repro.geo.datasets.countries import country_by_iso2
from repro.network.latency import LegSampler, fiber_path_ms

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

# Mean of the exponential extra queueing under load: terrestrial
# bufferbloat is mild by comparison with Starlink's.
_BUFFERBLOAT_SCALE_MS = 25.0


def last_mile_median_ms(tier: int, iso2: str) -> float:
    """Median last-mile one-way delay of a client in ``iso2``, a tier-``tier``
    country; ``iso2`` enables country-specific overrides (e.g. Nigeria's
    congested access networks)."""
    median = _TIER_LAST_MILE_MEDIAN_MS.get(tier)
    if median is None:
        raise ConfigurationError(f"unknown infrastructure tier: {tier}")
    return _COUNTRY_LAST_MILE_MEDIAN_MS.get(iso2, median)


class TerrestrialLeg(LegSampler):
    """A resolved terrestrial leg and the draws of one probe over it.

    An idle probe draws lognormal (last mile), then lognormal and
    exponential (jitter); a loaded probe then draws one more exponential
    (bufferbloat).
    """

    def __init__(self, rng: np.random.Generator, core_ms: float, tier: int, iso2: str):
        super().__init__(rng)
        self.core_ms = core_ms
        self._log_last_mile = math.log(last_mile_median_ms(tier, iso2))

    def idle_rtt_ms(self) -> float:
        """RTT = last mile (counted once per direction) + 2x core one-way +
        server think time, all jittered."""
        last_mile = self._lognormal(self._log_last_mile, _LAST_MILE_SIGMA)
        return self.jittered_ms(
            2.0 * (self.core_ms + last_mile) + CDN_SERVER_THINK_TIME_MS
        )

    def loaded_rtt_ms(self) -> float:
        """RTT during an active download: idle RTT plus bufferbloat."""
        return self.idle_rtt_ms() + self._exponential(_BUFFERBLOAT_SCALE_MS)


@dataclass
class TerrestrialPathModel:
    """Latency model for paths that never leave the ground."""

    rng: np.random.Generator
    _legs: dict[tuple[str, str, float, float], TerrestrialLeg] = field(
        default_factory=dict, repr=False
    )

    def path_tier(self, client_iso2: str, remote_iso2: str) -> int:
        """Infrastructure tier governing circuity between two countries.

        A path is only as good as the worse end: a tier-1 client reaching a
        tier-3 country still crosses the tier-3 segment.
        """
        client_tier = country_by_iso2(client_iso2).infra_tier
        remote_tier = country_by_iso2(remote_iso2).infra_tier
        return max(client_tier, remote_tier)

    def one_way_core_ms(
        self, client: GeoPoint, client_iso2: str, remote: GeoPoint, remote_iso2: str
    ) -> float:
        """Deterministic one-way core-network latency (no last mile, no jitter)."""
        distance = great_circle_km(client, remote)
        tier = self.path_tier(client_iso2, remote_iso2)
        return fiber_path_ms(distance, tier)

    def _leg(self, city: City, remote: GeoPoint, remote_iso2: str) -> TerrestrialLeg:
        """The client-remote leg, resolved once; resolving draws nothing.

        Keyed by the city's (unique) gazetteer name and the remote's country
        and coordinates, which hash far faster than the records.
        """
        key = (city.name, remote_iso2, remote.lat_deg, remote.lon_deg)
        leg = self._legs.get(key)
        if leg is None:
            leg = self._legs[key] = TerrestrialLeg(
                self.rng,
                self.one_way_core_ms(city.location, city.iso2, remote, remote_iso2),
                city.country.infra_tier,
                city.iso2,
            )
        return leg

    def idle_rtt_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """One sampled idle RTT from a client in ``city`` to ``remote``."""
        return self._leg(city, remote, remote_iso2).idle_rtt_ms()

    def loaded_rtt_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """One sampled RTT during an active download."""
        return self._leg(city, remote, remote_iso2).loaded_rtt_ms()
