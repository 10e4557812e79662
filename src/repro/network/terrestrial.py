"""Terrestrial ISP path model: client city -> CDN/destination over fiber.

The model captures why terrestrial CDN access is usually fast: most clients
have an anycast CDN site in or near their own city, so the RTT is dominated
by the last mile. Long cross-region paths pick up circuity from the worst
infrastructure tier they cross (the paper cites Africa's inter-country
detours through Europe).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets import City, country_by_iso2
from repro.network.latency import LatencyNoise, fiber_path_ms


@dataclass
class TerrestrialPathModel:
    """Latency model for paths that never leave the ground."""

    noise: LatencyNoise
    _legs: dict[tuple[City, GeoPoint, str], tuple[float, int]] = field(
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

    def _leg(
        self, client_city: City, remote: GeoPoint, remote_iso2: str
    ) -> tuple[float, int]:
        """The deterministic part of a client-remote leg, resolved once.

        Returns (one-way core ms, the client's last-mile tier). The AIM
        generator probes the same city-site pairs thousands of times and
        none of this varies between probes; resolving it draws nothing.
        """
        key = (client_city, remote, remote_iso2)
        leg = self._legs.get(key)
        if leg is None:
            core = self.one_way_core_ms(
                client_city.location, client_city.iso2, remote, remote_iso2
            )
            leg = self._legs[key] = (core, client_city.country.infra_tier)
        return leg

    def idle_rtt_ms(
        self,
        client_city: City,
        remote: GeoPoint,
        remote_iso2: str,
        server_think_ms: float = CDN_SERVER_THINK_TIME_MS,
    ) -> float:
        """One sampled idle RTT from a client in ``client_city`` to ``remote``.

        RTT = last mile (both directions share the access link, counted once
        per direction) + 2x core one-way + server think time, all jittered.
        """
        if server_think_ms < 0:
            raise ConfigurationError(f"negative think time: {server_think_ms}")
        core, tier = self._leg(client_city, remote, remote_iso2)
        last_mile = self.noise.last_mile_ms(tier, client_city.iso2)
        base = 2.0 * (core + last_mile) + server_think_ms
        return self.noise.jitter_ms(base)

    def min_rtt_floor_ms(
        self, client_city: City, remote: GeoPoint, remote_iso2: str
    ) -> float:
        """The deterministic lower bound of the RTT distribution (no noise)."""
        core, _ = self._leg(client_city, remote, remote_iso2)
        return 2.0 * core + CDN_SERVER_THINK_TIME_MS
