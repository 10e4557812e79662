"""Starlink subscriber path model: terminal -> satellite(s) -> gateway -> PoP.

This is the *effective* (analytic) model used for the large measurement
simulations. It resolves, per client city, the structural route Starlink
imposes:

1. the subscriber's traffic must exit at the country's **assigned PoP**;
2. it lands at the gateway (ground station) serving that PoP that is nearest
   to the client;
3. if that gateway is close (within single-satellite bent-pipe range), the
   path is a classic bent pipe; otherwise the traffic rides **inter-satellite
   links** over the great-circle distance to the gateway — exactly the
   Maputo -> Frankfurt case the paper dissects.

The full constellation-graph model (used for Figs. 7/8) lives in
:mod:`repro.topology`; both share the access-link and ISL latency constants,
and the analytic model's ISL stretch factor is calibrated against the graph
model (see ``tests/test_integration_models.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.constants import (
    CDN_SERVER_THINK_TIME_MS,
    ISL_HOP_PROCESSING_MS,
    SPEED_OF_LIGHT_KM_S,
    STARLINK_PROCESSING_DELAY_MS,
    STARLINK_SHELL1_ALTITUDE_KM,
)
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.cities import City
from repro.geo.datasets.countries import country_by_iso2
from repro.geo.datasets.pops import assigned_pop
from repro.network.access import access_latency_ms, sample_access_one_way_ms
from repro.network.latency import LatencyNoise, fiber_path_ms
from repro.topology.ground import GroundSegment, GroundStation, PointOfPresence


@dataclass(frozen=True)
class StarlinkModelParams:
    """Tunables of the analytic Starlink path model."""

    altitude_km: float = STARLINK_SHELL1_ALTITUDE_KM
    bent_pipe_max_km: float = 1100.0
    """Max client-to-gateway ground distance servable by one satellite."""

    isl_path_stretch: float = 1.45
    """Base ratio of ISL route length to the great-circle distance."""

    isl_stretch_per_1000km: float = 0.055
    """Extra stretch per 1000 km of ground distance: long +Grid routes zigzag
    across planes and detour around the constellation seam, so the effective
    path inflation grows with distance (calibrated against paper Table 1)."""

    isl_hop_length_km: float = 1970.0
    """Average ISL hop length (Shell 1 in-plane neighbour spacing)."""

    bufferbloat_base_ms: float = 90.0
    bufferbloat_scale_ms: float = 60.0
    """Loaded-latency inflation: base + Exp(scale). Calibrated so that total
    loaded latency exceeds 200 ms in ISL-served countries (paper §3.2) while
    staying near 150-200 ms where idle latency is already low."""


@dataclass(frozen=True)
class StarlinkPath:
    """The resolved structural path from a client city to its PoP."""

    pop: PointOfPresence
    gateway: GroundStation
    gateway_distance_km: float
    uses_isl: bool
    isl_distance_km: float
    isl_hops: int
    one_way_floor_ms: float
    """Deterministic minimum one-way latency client -> PoP."""


@dataclass
class StarlinkPathModel:
    """Analytic latency model for Starlink subscriber paths."""

    noise: LatencyNoise
    ground: GroundSegment = field(default_factory=GroundSegment.from_gazetteer)
    params: StarlinkModelParams = field(default_factory=StarlinkModelParams)
    _path_cache: dict[tuple[float, float, str], StarlinkPath] = field(
        default_factory=dict, repr=False
    )
    _legs: dict[tuple[City, GeoPoint, str], tuple[float, float]] = field(
        default_factory=dict, repr=False
    )

    def resolve_path(self, city: City) -> StarlinkPath:
        """Resolve the structural path for a client in ``city`` (cached)."""
        key = (city.lat_deg, city.lon_deg, city.iso2)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached

        pop_site = assigned_pop(city.iso2, city.lat_deg, city.lon_deg)
        pop = self.ground.pop_named(pop_site.name)
        stations = self.ground.stations_for_pop(pop.name)
        if not stations:
            raise ConfigurationError(f"PoP {pop.name!r} has no gateway in the gazetteer")
        gateway = min(
            stations, key=lambda gs: great_circle_km(city.location, gs.location)
        )
        gs_distance = great_circle_km(city.location, gateway.location)
        uses_isl = gs_distance > self.params.bent_pipe_max_km

        if uses_isl:
            stretch = (
                self.params.isl_path_stretch
                + self.params.isl_stretch_per_1000km * gs_distance / 1000.0
            )
            isl_distance = gs_distance * stretch
            isl_hops = max(1, round(isl_distance / self.params.isl_hop_length_km))
        else:
            isl_distance = 0.0
            isl_hops = 0

        path = StarlinkPath(
            pop=pop,
            gateway=gateway,
            gateway_distance_km=gs_distance,
            uses_isl=uses_isl,
            isl_distance_km=isl_distance,
            isl_hops=isl_hops,
            one_way_floor_ms=self._one_way_floor_ms(
                gs_distance, isl_distance, isl_hops, gateway, pop
            ),
        )
        self._path_cache[key] = path
        return path

    def _one_way_floor_ms(
        self,
        gs_distance_km: float,
        isl_distance_km: float,
        isl_hops: int,
        gateway: GroundStation,
        pop: PointOfPresence,
    ) -> float:
        """Deterministic one-way latency floor: zenith uplink, minimal path."""
        alt = self.params.altitude_km
        up_ms = access_latency_ms(alt)
        if isl_hops > 0:
            space_ms = (
                isl_distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
                + isl_hops * ISL_HOP_PROCESSING_MS
            )
            down_slant_km = alt
        else:
            space_ms = 0.0
            # The single bent-pipe satellite sits between client and gateway.
            down_slant_km = math.sqrt(alt * alt + gs_distance_km * gs_distance_km)
        down_ms = (
            down_slant_km / SPEED_OF_LIGHT_KM_S * 1000.0 + STARLINK_PROCESSING_DELAY_MS
        )
        return (
            up_ms
            + space_ms
            + down_ms
            + gateway.backhaul_latency_ms()
            + pop.processing_delay_ms
        )

    def pop_to_remote_one_way_ms(
        self, city: City, remote: GeoPoint, remote_iso2: str
    ) -> float:
        """Deterministic one-way latency from the client's PoP to a remote host."""
        path = self.resolve_path(city)
        distance = great_circle_km(path.pop.location, remote)
        pop_tier = country_by_iso2(path.pop.site.iso2).infra_tier
        remote_tier = country_by_iso2(remote_iso2).infra_tier
        return fiber_path_ms(distance, max(pop_tier, remote_tier))

    def _leg(
        self, city: City, remote: GeoPoint, remote_iso2: str
    ) -> tuple[float, float]:
        """The deterministic part of a client-remote leg, resolved once.

        Returns (floor one-way ms past the uplink, PoP-to-remote one-way
        ms). The AIM generator probes the same city-site pairs thousands of
        times and neither leg carries noise; resolving them draws nothing.
        """
        key = (city, remote, remote_iso2)
        leg = self._legs.get(key)
        if leg is None:
            path = self.resolve_path(city)
            floor_tail = path.one_way_floor_ms - access_latency_ms(
                self.params.altitude_km
            )
            leg = self._legs[key] = (
                floor_tail,
                self.pop_to_remote_one_way_ms(city, remote, remote_iso2),
            )
        return leg

    def idle_rtt_ms(
        self,
        city: City,
        remote: GeoPoint,
        remote_iso2: str,
        server_think_ms: float = CDN_SERVER_THINK_TIME_MS,
    ) -> float:
        """One sampled idle RTT from ``city`` to a remote host over Starlink.

        Only the uplink is sampled; everything past it keeps its floor
        value, and jitter is applied to the whole RTT.
        """
        floor_tail, remote_ms = self._leg(city, remote, remote_iso2)
        up_ms = sample_access_one_way_ms(self.noise.rng, self.params.altitude_km)
        one_way = up_ms + floor_tail + remote_ms
        base = 2.0 * one_way + server_think_ms + self.noise.starlink_frame_jitter_ms()
        return self.noise.jitter_ms(base)

    def loaded_rtt_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """RTT during an active download: idle RTT plus bufferbloat."""
        extra = self.params.bufferbloat_base_ms + self.noise.bufferbloat_ms(
            self.params.bufferbloat_scale_ms
        )
        return self.idle_rtt_ms(city, remote, remote_iso2) + extra

    def min_rtt_floor_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """Deterministic lower bound of the RTT distribution."""
        _, remote_ms = self._leg(city, remote, remote_iso2)
        one_way = self.resolve_path(city).one_way_floor_ms + remote_ms
        return 2.0 * one_way + CDN_SERVER_THINK_TIME_MS
