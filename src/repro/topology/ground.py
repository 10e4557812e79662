"""Ground-segment node models: user terminals, gateways, PoPs.

These bind gazetteer sites to the snapshot-graph machinery: a
:class:`GroundStation` wraps a gateway site and knows its backhaul PoP; a
:class:`PointOfPresence` is where traffic enters the Internet and where the
nearest CDN cache is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import (
    FIBER_SPEED_KM_S,
    MIN_ELEVATION_GS_DEG,
    POP_PROCESSING_DELAY_MS,
    TERRESTRIAL_PER_HOP_MS,
)
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.ground_stations import GroundStationSite, all_ground_stations
from repro.geo.datasets.pops import PopSite, all_pops


@dataclass(frozen=True)
class GroundStation:
    """A gateway: downlinks constellation traffic and backhauls it to a PoP."""

    site: GroundStationSite
    min_elevation_deg: float = MIN_ELEVATION_GS_DEG

    @property
    def name(self) -> str:
        return self.site.name

    @property
    def location(self) -> GeoPoint:
        return self.site.location

    def backhaul_latency_ms(self, hops: int = 3) -> float:
        """One-way fiber latency from this gateway to its PoP."""
        distance = great_circle_km(self.location, self.site.pop.location)
        # Gateway backhaul is dedicated fiber: modest circuity.
        return distance * 1.3 / FIBER_SPEED_KM_S * 1000.0 + hops * TERRESTRIAL_PER_HOP_MS


@dataclass(frozen=True)
class PointOfPresence:
    """A Starlink PoP: CGNAT boundary and Internet hand-off point."""

    site: PopSite
    processing_delay_ms: float = POP_PROCESSING_DELAY_MS

    @property
    def name(self) -> str:
        return self.site.name

    @property
    def location(self) -> GeoPoint:
        return self.site.location


@dataclass
class GroundSegment:
    """The full ground segment: every gateway and PoP, with lookup helpers."""

    stations: tuple[GroundStation, ...]
    pops: tuple[PointOfPresence, ...]
    _pops_by_name: dict[str, PointOfPresence] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._pops_by_name = {pop.name: pop for pop in self.pops}

    @staticmethod
    def from_gazetteer() -> "GroundSegment":
        """Build the ground segment from the embedded datasets."""
        return GroundSegment(
            stations=tuple(GroundStation(site) for site in all_ground_stations()),
            pops=tuple(PointOfPresence(site) for site in all_pops()),
        )

    def pop_named(self, name: str) -> PointOfPresence:
        """Look up a PoP by name."""
        from repro.errors import DatasetError

        pop = self._pops_by_name.get(name)
        if pop is None:
            raise DatasetError(f"unknown PoP: {name!r}")
        return pop

    def stations_for_pop(self, pop_name: str) -> tuple[GroundStation, ...]:
        """Every gateway backhauling to the named PoP."""
        return tuple(gs for gs in self.stations if gs.site.pop_name == pop_name)
