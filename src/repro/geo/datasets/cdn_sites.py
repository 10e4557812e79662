"""CDN edge sites (Cloudflare-like anycast footprint).

Cloudflare operates 300+ anycast sites; we embed ~110 covering every region
the paper's measurements touch. The structurally important facts preserved
here: CDN sites exist in most capitals — including Maputo, Kigali,
Guatemala City and Port-au-Prince — which is exactly why *terrestrial* users
in those cities see single-digit-millisecond CDN RTTs while Starlink users,
whose traffic exits at a distant PoP, are mapped to caches near that PoP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import DatasetError
from repro.geo.coordinates import GeoPoint


@dataclass(frozen=True)
class CdnSite:
    """An anycast CDN edge location."""

    name: str
    iso2: str
    lat_deg: float
    lon_deg: float

    @cached_property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat_deg, self.lon_deg, 0.0)


# (name, iso2, lat, lon)
_CDN_SITES: tuple[tuple[str, str, float, float], ...] = (
    # North America
    ("Seattle", "US", 47.61, -122.33),
    ("San Jose", "US", 37.34, -121.89),
    ("Los Angeles", "US", 34.05, -118.24),
    ("Denver", "US", 39.74, -104.99),
    ("Dallas", "US", 32.78, -96.80),
    ("Chicago", "US", 41.88, -87.63),
    ("Atlanta", "US", 33.75, -84.39),
    ("Miami", "US", 25.76, -80.19),
    ("New York", "US", 40.71, -74.01),
    ("Ashburn", "US", 39.04, -77.49),
    ("Toronto", "CA", 43.65, -79.38),
    ("Vancouver", "CA", 49.28, -123.12),
    ("Montreal", "CA", 45.50, -73.57),
    ("Mexico City", "MX", 19.43, -99.13),
    # Central America & Caribbean
    ("Guatemala City", "GT", 14.63, -90.51),
    ("San Jose CR", "CR", 9.93, -84.08),
    ("Panama City", "PA", 8.98, -79.52),
    ("Port-au-Prince", "HT", 18.54, -72.34),
    ("Santo Domingo", "DO", 18.49, -69.89),
    ("Kingston", "JM", 17.97, -76.79),
    # South America
    ("Sao Paulo", "BR", -23.55, -46.63),
    ("Rio de Janeiro", "BR", -22.91, -43.17),
    ("Fortaleza", "BR", -3.73, -38.53),
    ("Buenos Aires", "AR", -34.60, -58.38),
    ("Santiago", "CL", -33.45, -70.67),
    ("Lima", "PE", -12.05, -77.04),
    ("Bogota", "CO", 4.71, -74.07),
    ("Quito", "EC", -0.18, -78.47),
    ("Asuncion", "PY", -25.26, -57.58),
    ("Montevideo", "UY", -34.90, -56.16),
    # Europe
    ("London", "GB", 51.51, -0.13),
    ("Manchester", "GB", 53.48, -2.24),
    ("Frankfurt", "DE", 50.11, 8.68),
    ("Berlin", "DE", 52.52, 13.40),
    ("Munich", "DE", 48.14, 11.58),
    ("Dusseldorf", "DE", 51.23, 6.77),
    ("Paris", "FR", 48.86, 2.35),
    ("Marseille", "FR", 43.30, 5.37),
    ("Madrid", "ES", 40.42, -3.70),
    ("Barcelona", "ES", 41.39, 2.17),
    ("Lisbon", "PT", 38.72, -9.14),
    ("Rome", "IT", 41.90, 12.50),
    ("Milan", "IT", 45.46, 9.19),
    ("Amsterdam", "NL", 52.37, 4.90),
    ("Brussels", "BE", 50.85, 4.35),
    ("Zurich", "CH", 47.37, 8.54),
    ("Vienna", "AT", 48.21, 16.37),
    ("Dublin", "IE", 53.35, -6.26),
    ("Stockholm", "SE", 59.33, 18.07),
    ("Oslo", "NO", 59.91, 10.75),
    ("Helsinki", "FI", 60.17, 24.94),
    ("Copenhagen", "DK", 55.68, 12.57),
    ("Warsaw", "PL", 52.23, 21.01),
    ("Riga", "LV", 56.95, 24.11),
    ("Tallinn", "EE", 59.44, 24.75),
    ("Bucharest", "RO", 44.43, 26.10),
    ("Sofia", "BG", 42.70, 23.32),
    ("Athens", "GR", 37.98, 23.73),
    ("Nicosia", "CY", 35.19, 33.38),
    ("Zagreb", "HR", 45.81, 15.98),
    ("Kyiv", "UA", 50.45, 30.52),
    # Africa
    ("Lagos", "NG", 6.52, 3.38),
    ("Accra", "GH", 5.60, -0.19),
    ("Nairobi", "KE", -1.29, 36.82),
    ("Mombasa", "KE", -4.04, 39.67),
    ("Maputo", "MZ", -25.97, 32.57),
    ("Kigali", "RW", -1.94, 30.06),
    ("Johannesburg", "ZA", -26.20, 28.05),
    ("Cape Town", "ZA", -33.92, 18.42),
    ("Durban", "ZA", -29.86, 31.03),
    ("Cairo", "EG", 30.04, 31.24),
    ("Dar es Salaam", "TZ", -6.79, 39.21),
    ("Antananarivo", "MG", -18.88, 47.51),
    # Middle East
    ("Istanbul", "TR", 41.01, 28.98),
    ("Tel Aviv", "IL", 32.08, 34.78),
    ("Dubai", "AE", 25.20, 55.27),
    # Asia
    ("Tokyo", "JP", 35.68, 139.69),
    ("Osaka", "JP", 34.69, 135.50),
    ("Seoul", "KR", 37.57, 126.98),
    ("Singapore", "SG", 1.35, 103.82),
    ("Kuala Lumpur", "MY", 3.14, 101.69),
    ("Manila", "PH", 14.60, 120.98),
    ("Cebu", "PH", 10.32, 123.89),
    ("Jakarta", "ID", -6.21, 106.85),
    ("Mumbai", "IN", 19.08, 72.88),
    ("Bangkok", "TH", 13.76, 100.50),
    ("Hanoi", "VN", 21.03, 105.85),
    ("Ulaanbaatar", "MN", 47.89, 106.91),
    # Oceania
    ("Sydney", "AU", -33.87, 151.21),
    ("Melbourne", "AU", -37.81, 144.96),
    ("Perth", "AU", -31.95, 115.86),
    ("Auckland", "NZ", -36.85, 174.76),
    ("Christchurch", "NZ", -43.53, 172.64),
    ("Suva", "FJ", -18.14, 178.44),
)


@lru_cache(maxsize=1)
def all_cdn_sites() -> tuple[CdnSite, ...]:
    """Every CDN edge location in the gazetteer."""
    return tuple(CdnSite(*row) for row in _CDN_SITES)


@lru_cache(maxsize=None)
def cdn_site_by_name(name: str) -> CdnSite:
    """Look a CDN site up by its exact name."""
    for site in all_cdn_sites():
        if site.name == name:
            return site
    raise DatasetError(f"unknown CDN site: {name!r}")
