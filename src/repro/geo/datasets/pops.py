"""Starlink points of presence (PoPs) and the country→PoP assignment.

The paper (Fig. 2) shows 22 operational PoPs. A Starlink subscriber's traffic
always enters the Internet at their *assigned* PoP — which for countries
without local ground infrastructure can be on another continent (southern and
eastern African subscribers exit at Frankfurt, per the paper and Mohan et
al. WWW'24). We embed the 22 sites and an assignment table: nearest PoP by
default, with explicit overrides where the real assignment is documented to
differ from pure proximity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import DatasetError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.countries import country_by_iso2


@dataclass(frozen=True)
class PopSite:
    """A Starlink point of presence: where subscriber traffic exits to the Internet."""

    name: str
    iso2: str
    lat_deg: float
    lon_deg: float

    @cached_property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat_deg, self.lon_deg, 0.0)


# The 22 operational PoPs shown in the paper's Fig. 2 world map.
_POPS: tuple[tuple[str, str, float, float], ...] = (
    ("Seattle", "US", 47.61, -122.33),
    ("Los Angeles", "US", 34.05, -118.24),
    ("Denver", "US", 39.74, -104.99),
    ("Dallas", "US", 32.78, -96.80),
    ("Chicago", "US", 41.88, -87.63),
    ("Atlanta", "US", 33.75, -84.39),
    ("New York", "US", 40.71, -74.01),
    ("Toronto", "CA", 43.65, -79.38),
    ("Queretaro", "MX", 20.59, -100.39),
    ("Bogota", "CO", 4.71, -74.07),
    ("Lima", "PE", -12.05, -77.04),
    ("Santiago", "CL", -33.45, -70.67),
    ("Sao Paulo", "BR", -23.55, -46.63),
    ("London", "GB", 51.51, -0.13),
    ("Frankfurt", "DE", 50.11, 8.68),
    ("Madrid", "ES", 40.42, -3.70),
    ("Milan", "IT", 45.46, 9.19),
    ("Warsaw", "PL", 52.23, 21.01),
    ("Lagos", "NG", 6.52, 3.38),
    ("Tokyo", "JP", 35.68, 139.69),
    ("Sydney", "AU", -33.87, 151.21),
    ("Auckland", "NZ", -36.85, 174.76),
)

# Documented cases where the assigned PoP is NOT the geographically nearest
# one. Southern/eastern African subscribers exit at Frankfurt (paper §3.2);
# Indian-Ocean and some central-Asian coverage follows the same pattern.
_ASSIGNMENT_OVERRIDES: dict[str, str] = {
    "MZ": "Frankfurt",
    "KE": "Frankfurt",
    "ZM": "Frankfurt",
    "RW": "Frankfurt",
    "SZ": "Lagos",
    "MW": "Frankfurt",
    "BW": "Frankfurt",
    "MG": "Frankfurt",
    "BJ": "Lagos",
    "MN": "Tokyo",
    "FJ": "Auckland",
    # Caribbean/Central-American traffic exits in the continental US / Mexico.
    "HT": "Atlanta",
    "DO": "Atlanta",
    "JM": "Atlanta",
    "GT": "Queretaro",
    "HN": "Queretaro",
    "SV": "Queretaro",
    "CR": "Dallas",
    "PA": "Atlanta",
    # Eastern Europe / eastern Mediterranean are served from Frankfurt.
    "CY": "Frankfurt",
    "GR": "Frankfurt",
    "BG": "Frankfurt",
    "RO": "Frankfurt",
    "LT": "Frankfurt",
    "UA": "Warsaw",
    # South-east Asia exits at Tokyo until regional PoPs exist.
    "MY": "Tokyo",
    "PH": "Tokyo",
    "ID": "Tokyo",
}


@lru_cache(maxsize=1)
def all_pops() -> tuple[PopSite, ...]:
    """The 22 operational Starlink PoPs."""
    return tuple(PopSite(*row) for row in _POPS)


@lru_cache(maxsize=None)
def pop_by_name(name: str) -> PopSite:
    """Look a PoP up by its exact name."""
    for pop in all_pops():
        if pop.name == name:
            return pop
    raise DatasetError(f"unknown PoP: {name!r}")


@lru_cache(maxsize=None)
def assigned_pop(iso2: str, lat_deg: float | None = None, lon_deg: float | None = None) -> PopSite:
    """The PoP serving subscribers in a country.

    Uses the documented override table when present; otherwise the
    geographically nearest PoP to the given location (or to the country's
    first gazetteer city when no location is supplied).
    """
    country_by_iso2(iso2)
    override = _ASSIGNMENT_OVERRIDES.get(iso2)
    if override is not None:
        return pop_by_name(override)
    if lat_deg is None or lon_deg is None:
        from repro.geo.datasets.cities import cities_in_country

        cities = cities_in_country(iso2)
        if not cities:
            raise DatasetError(f"no gazetteer city for country {iso2!r}")
        lat_deg, lon_deg = cities[0].lat_deg, cities[0].lon_deg
    here = GeoPoint(lat_deg, lon_deg, 0.0)
    return min(all_pops(), key=lambda pop: great_circle_km(here, pop.location))
