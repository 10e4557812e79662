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

import numpy as np

from repro.constants import (
    CDN_SERVER_THINK_TIME_MS,
    EARTH_RADIUS_KM,
    ISL_HOP_PROCESSING_MS,
    MIN_ELEVATION_USER_DEG,
    SPEED_OF_LIGHT_KM_S,
    STARLINK_FRAME_JITTER_MAX_MS,
    STARLINK_PROCESSING_DELAY_MS,
    STARLINK_SHELL1_ALTITUDE_KM,
)
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.cities import City
from repro.geo.datasets.countries import country_by_iso2
from repro.geo.datasets.pops import assigned_pop
from repro.network.access import access_latency_ms
from repro.network.latency import LegSampler, fiber_path_ms
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


_ELEVATION_SPAN_DEG = 90.0 - MIN_ELEVATION_USER_DEG


class StarlinkLeg(LegSampler):
    """A resolved Starlink leg and the draws of one probe over it.

    Only the uplink is sampled. Everything past it keeps its floor value:
    ``tail_ms`` (one-way space segment, downlink, backhaul and PoP) and
    ``remote_ms`` (PoP-to-remote fibre). An idle probe draws beta (the
    serving satellite's elevation), random (frame jitter), then lognormal
    and exponential (jitter); a loaded probe first draws one exponential
    (bufferbloat).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        params: StarlinkModelParams,
        tail_ms: float,
        remote_ms: float,
    ):
        super().__init__(rng)
        h = params.altitude_km
        if not h > 0:
            raise ConfigurationError(f"altitude must be positive: {h}")
        self.tail_ms = tail_ms
        self.remote_ms = remote_ms
        self._hh = h * h
        self._two_re_h = 2.0 * EARTH_RADIUS_KM * h
        self._bloat_base_ms = params.bufferbloat_base_ms
        self._bloat_scale_ms = params.bufferbloat_scale_ms
        self._beta = rng.beta
        self._random = rng.random

    def idle_rtt_ms(self) -> float:
        """Uplink + tail + remote leg, both ways, plus server think time and
        frame jitter, all jittered. The elevation is Beta(1, 2) over the
        usable range: the sky annulus shrinks towards zenith, and the
        scheduler balances load rather than always picking the overhead
        satellite. ``max * random()`` is numpy's own ``uniform(0, max)``."""
        elevation = MIN_ELEVATION_USER_DEG + self._beta(1.0, 2.0) * _ELEVATION_SPAN_DEG
        if not 0.0 <= elevation <= 90.0:
            raise ConfigurationError(f"elevation {elevation} outside [0, 90]")
        # Slant range from the Earth-centre triangle with radii R and R + h.
        re_sin_e = EARTH_RADIUS_KM * math.sin(math.radians(elevation))
        slant_km = math.sqrt(re_sin_e**2 + self._hh + self._two_re_h) - re_sin_e
        one_way = access_latency_ms(slant_km) + self.tail_ms + self.remote_ms
        return self.jittered_ms(
            2.0 * one_way
            + CDN_SERVER_THINK_TIME_MS
            + STARLINK_FRAME_JITTER_MAX_MS * self._random()
        )

    def loaded_rtt_ms(self) -> float:
        """RTT during an active download: idle RTT plus bufferbloat."""
        extra = self._bloat_base_ms + self._exponential(self._bloat_scale_ms)
        return self.idle_rtt_ms() + extra


@dataclass
class StarlinkPathModel:
    """Analytic latency model for Starlink subscriber paths."""

    rng: np.random.Generator
    ground: GroundSegment = field(default_factory=GroundSegment.from_gazetteer)
    params: StarlinkModelParams = field(default_factory=StarlinkModelParams)
    _path_cache: dict[tuple[float, float, str], StarlinkPath] = field(
        default_factory=dict, repr=False
    )
    _legs: dict[tuple[str, str, float, float], StarlinkLeg] = field(
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

    def _leg(self, city: City, remote: GeoPoint, remote_iso2: str) -> StarlinkLeg:
        """The client-remote leg, resolved once; resolving draws nothing.

        Keyed by the city's (unique) gazetteer name and the remote's country
        and coordinates, which hash far faster than the records.
        """
        key = (city.name, remote_iso2, remote.lat_deg, remote.lon_deg)
        leg = self._legs.get(key)
        if leg is None:
            path = self.resolve_path(city)
            leg = self._legs[key] = StarlinkLeg(
                self.rng,
                self.params,
                path.one_way_floor_ms - access_latency_ms(self.params.altitude_km),
                self.pop_to_remote_one_way_ms(city, remote, remote_iso2),
            )
        return leg

    def idle_rtt_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """One sampled idle RTT from ``city`` to a remote host over Starlink."""
        return self._leg(city, remote, remote_iso2).idle_rtt_ms()

    def loaded_rtt_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """One sampled RTT during an active download."""
        return self._leg(city, remote, remote_iso2).loaded_rtt_ms()

    def min_rtt_floor_ms(self, city: City, remote: GeoPoint, remote_iso2: str) -> float:
        """The jitter-free RTT (zenith uplink, floor path, no frame jitter).
        Not a floor: the jitter scales the whole RTT, so samples fall below it."""
        remote_ms = self._leg(city, remote, remote_iso2).remote_ms
        one_way = self.resolve_path(city).one_way_floor_ms + remote_ms
        return 2.0 * one_way + CDN_SERVER_THINK_TIME_MS
