"""Starlink ground-station (gateway) sites.

Real Starlink operates ~150 gateway sites, but their *coverage* is what
matters: dense in North America, Europe, Oceania and parts of South America;
a single West-African cluster (Nigeria); and nothing across southern or
eastern Africa — forcing those users' traffic over inter-satellite links to
Europe. We embed 48 representative sites preserving that coverage map. Each
site names its backhaul PoP (the PoP its fiber connects to).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.geo.coordinates import GeoPoint
from repro.geo.datasets.pops import pop_by_name


@dataclass(frozen=True)
class GroundStationSite:
    """A Starlink gateway: satellites downlink here; fiber backhauls to a PoP."""

    name: str
    iso2: str
    lat_deg: float
    lon_deg: float
    pop_name: str

    @cached_property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat_deg, self.lon_deg, 0.0)

    @property
    def pop(self):
        """The PoP this gateway backhauls to."""
        return pop_by_name(self.pop_name)


# (name, iso2, lat, lon, backhaul PoP)
_GROUND_STATIONS: tuple[tuple[str, str, float, float, str], ...] = (
    # United States (densest deployment)
    ("North Bend WA", "US", 47.50, -121.79, "Seattle"),
    ("Merrillan WI", "US", 44.45, -90.84, "Chicago"),
    ("Conrad MT", "US", 48.17, -111.95, "Seattle"),
    ("Colburn ID", "US", 48.37, -116.52, "Seattle"),
    ("Hawthorne CA", "US", 33.92, -118.33, "Los Angeles"),
    ("Baja CA", "US", 32.57, -116.63, "Los Angeles"),
    ("Litchfield Park AZ", "US", 33.49, -112.36, "Los Angeles"),
    ("Greenville TX", "US", 33.14, -96.11, "Dallas"),
    ("Sanderson TX", "US", 30.14, -102.39, "Dallas"),
    ("Boca Chica TX", "US", 25.99, -97.19, "Dallas"),
    ("Robertsdale AL", "US", 30.55, -87.71, "Atlanta"),
    ("Fayetteville GA", "US", 33.45, -84.45, "Atlanta"),
    ("Cape Canaveral FL", "US", 28.39, -80.60, "Atlanta"),
    ("Hampton GA", "US", 33.38, -84.28, "Atlanta"),
    ("Loring ME", "US", 46.95, -67.89, "New York"),
    ("Elkton VA", "US", 38.41, -78.62, "New York"),
    ("Kuna ID", "US", 43.49, -116.42, "Denver"),
    ("Wolcott CO", "US", 39.70, -106.68, "Denver"),
    ("Prudhoe Bay AK", "US", 70.25, -148.34, "Seattle"),
    # Canada
    ("St. John's NL", "CA", 47.56, -52.71, "Toronto"),
    ("High River AB", "CA", 50.58, -113.87, "Seattle"),
    ("Kamloops BC", "CA", 50.67, -120.33, "Seattle"),
    # Mexico / Latin America
    ("Cutzamala MX", "MX", 18.97, -100.25, "Queretaro"),
    ("Villa de Reyes MX", "MX", 21.80, -100.93, "Queretaro"),
    ("Pedro Leopoldo BR", "BR", -19.62, -44.04, "Sao Paulo"),
    ("Caucaia BR", "BR", -3.74, -38.66, "Sao Paulo"),
    ("Santiago GW CL", "CL", -33.36, -70.95, "Santiago"),
    ("Puerto Montt CL", "CL", -41.47, -72.94, "Santiago"),
    ("Lurin PE", "PE", -12.27, -76.89, "Lima"),
    ("Tenjo CO", "CO", 4.87, -74.15, "Bogota"),
    # Europe
    ("Goonhilly GB", "GB", 50.05, -5.18, "London"),
    ("Chalfont GB", "GB", 51.64, -0.57, "London"),
    ("Aerzen DE", "DE", 52.05, 9.26, "Frankfurt"),
    ("Usingen DE", "DE", 50.34, 8.54, "Frankfurt"),
    ("Villenave FR", "FR", 44.77, -0.55, "London"),
    ("Alcala ES", "ES", 40.49, -3.36, "Madrid"),
    ("Sevilla GW ES", "ES", 37.42, -5.90, "Madrid"),
    ("Gavirate IT", "IT", 45.85, 8.72, "Milan"),
    ("Ka Lamia GR", "GR", 38.90, 22.43, "Frankfurt"),
    ("Wola PL", "PL", 52.20, 20.90, "Warsaw"),
    # Africa (Nigeria only — the coverage gap is the point)
    ("Epe NG", "NG", 6.58, 3.98, "Lagos"),
    # Asia
    ("Chitose JP", "JP", 42.79, 141.67, "Tokyo"),
    ("Ibaraki JP", "JP", 36.31, 140.57, "Tokyo"),
    # Oceania
    ("Broken Hill AU", "AU", -31.96, 141.47, "Sydney"),
    ("Merredin AU", "AU", -31.48, 118.28, "Sydney"),
    ("Wagga Wagga AU", "AU", -35.12, 147.37, "Sydney"),
    ("Clevedon NZ", "NZ", -36.99, 175.04, "Auckland"),
    ("Cromwell NZ", "NZ", -45.05, 169.20, "Auckland"),
)


@lru_cache(maxsize=1)
def all_ground_stations() -> tuple[GroundStationSite, ...]:
    """Every gateway site in the gazetteer."""
    return tuple(GroundStationSite(*row) for row in _GROUND_STATIONS)
