"""Geo-blocking: content licensing enforced on the *apparent* client location.

CDNs geo-fence content by the requesting IP's geolocation. A Starlink
subscriber's IP geolocates to their PoP's country — so a user physically in
a licensed country is blocked when their PoP is not (the paper cites cruise
passengers and subscribers routed across borders hitting 403s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.datasets.cities import City
from repro.geo.datasets.countries import country_by_iso2
from repro.geo.datasets.pops import assigned_pop


@dataclass(frozen=True)
class BlockDecision:
    """The outcome of a geo-block check."""

    allowed: bool
    apparent_iso2: str
    physical_iso2: str

    @property
    def misblocked(self) -> bool:
        """Blocked solely because the exit country differs from the user's."""
        return not self.allowed and self.physical_iso2 != self.apparent_iso2


@dataclass
class GeoBlockPolicy:
    """Per-object country allow-lists, evaluated on the apparent location."""

    allowed_countries: dict[str, frozenset[str]] = field(default_factory=dict)

    def license_object(self, object_id: str, countries: set[str]) -> None:
        """Restrict ``object_id`` to the given ISO-3166 alpha-2 countries."""
        if not countries:
            raise ConfigurationError("allow-list cannot be empty")
        for iso2 in countries:
            country_by_iso2(iso2)  # validate
        self.allowed_countries[object_id] = frozenset(countries)

    def check_terrestrial(self, object_id: str, city: City) -> BlockDecision:
        """Check for a terrestrial client: apparent location == physical."""
        return self._check(object_id, apparent_iso2=city.iso2, physical_iso2=city.iso2)

    def check_starlink(self, object_id: str, city: City) -> BlockDecision:
        """Check for a Starlink client: apparent location is the PoP country."""
        pop = assigned_pop(city.iso2, city.lat_deg, city.lon_deg)
        return self._check(object_id, apparent_iso2=pop.iso2, physical_iso2=city.iso2)

    def _check(self, object_id: str, apparent_iso2: str, physical_iso2: str) -> BlockDecision:
        allowed_set = self.allowed_countries.get(object_id)
        allowed = allowed_set is None or apparent_iso2 in allowed_set
        return BlockDecision(
            allowed=allowed, apparent_iso2=apparent_iso2, physical_iso2=physical_iso2
        )
