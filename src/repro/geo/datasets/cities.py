"""World cities used as measurement vantage points.

Each city carries a population weight (millions, used to weight how many
synthetic speed tests originate there) and inherits its country's
infrastructure tier and Starlink-coverage flag via ``countries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import DatasetError
from repro.geo.coordinates import GeoPoint
from repro.geo.datasets.countries import Country, country_by_iso2


@dataclass(frozen=True)
class City:
    """A measurement vantage city."""

    name: str
    iso2: str
    lat_deg: float
    lon_deg: float
    population_m: float

    @cached_property
    def location(self) -> GeoPoint:
        """The city centre as a surface point."""
        return GeoPoint(self.lat_deg, self.lon_deg, 0.0)

    @property
    def country(self) -> Country:
        """The country record this city belongs to."""
        return country_by_iso2(self.iso2)


# (name, iso2, lat, lon, population in millions)
_CITIES: tuple[tuple[str, str, float, float, float], ...] = (
    # --- North America
    ("Seattle", "US", 47.61, -122.33, 4.0),
    ("Los Angeles", "US", 34.05, -118.24, 13.2),
    ("Denver", "US", 39.74, -104.99, 2.9),
    ("Dallas", "US", 32.78, -96.80, 7.6),
    ("Chicago", "US", 41.88, -87.63, 9.5),
    ("Atlanta", "US", 33.75, -84.39, 6.1),
    ("New York", "US", 40.71, -74.01, 19.8),
    ("Miami", "US", 25.76, -80.19, 6.1),
    ("Boise", "US", 43.62, -116.20, 0.8),
    ("Anchorage", "US", 61.22, -149.90, 0.4),
    ("Toronto", "CA", 43.65, -79.38, 6.2),
    ("Vancouver", "CA", 49.28, -123.12, 2.6),
    ("Montreal", "CA", 45.50, -73.57, 4.2),
    ("Winnipeg", "CA", 49.90, -97.14, 0.8),
    ("Mexico City", "MX", 19.43, -99.13, 21.8),
    ("Monterrey", "MX", 25.69, -100.32, 5.3),
    # --- Central America & Caribbean
    ("Guatemala City", "GT", 14.63, -90.51, 3.0),
    ("Tegucigalpa", "HN", 14.07, -87.19, 1.4),
    ("San Salvador", "SV", 13.69, -89.22, 1.1),
    ("San Jose CR", "CR", 9.93, -84.08, 1.4),
    ("Panama City", "PA", 8.98, -79.52, 1.9),
    ("Port-au-Prince", "HT", 18.54, -72.34, 2.8),
    ("Santo Domingo", "DO", 18.49, -69.89, 3.3),
    ("Kingston", "JM", 17.97, -76.79, 1.2),
    # --- South America
    ("Sao Paulo", "BR", -23.55, -46.63, 22.4),
    ("Rio de Janeiro", "BR", -22.91, -43.17, 13.5),
    ("Manaus", "BR", -3.12, -60.02, 2.3),
    ("Brasilia", "BR", -15.79, -47.88, 4.8),
    ("Buenos Aires", "AR", -34.60, -58.38, 15.4),
    ("Cordoba AR", "AR", -31.42, -64.18, 1.6),
    ("Santiago", "CL", -33.45, -70.67, 6.9),
    ("Punta Arenas", "CL", -53.16, -70.91, 0.14),
    ("Lima", "PE", -12.05, -77.04, 11.2),
    ("Bogota", "CO", 4.71, -74.07, 11.3),
    ("Quito", "EC", -0.18, -78.47, 2.0),
    ("Asuncion", "PY", -25.26, -57.58, 3.4),
    ("Montevideo", "UY", -34.90, -56.16, 1.8),
    # --- Western & Northern Europe
    ("London", "GB", 51.51, -0.13, 9.6),
    ("Manchester", "GB", 53.48, -2.24, 2.9),
    ("Edinburgh", "GB", 55.95, -3.19, 0.9),
    ("Berlin", "DE", 52.52, 13.40, 3.8),
    ("Frankfurt", "DE", 50.11, 8.68, 2.7),
    ("Munich", "DE", 48.14, 11.58, 2.6),
    ("Paris", "FR", 48.86, 2.35, 11.2),
    ("Marseille", "FR", 43.30, 5.37, 1.8),
    ("Madrid", "ES", 40.42, -3.70, 6.8),
    ("Barcelona", "ES", 41.39, 2.17, 5.7),
    ("Seville", "ES", 37.39, -5.98, 1.5),
    ("Lisbon", "PT", 38.72, -9.14, 3.0),
    ("Rome", "IT", 41.90, 12.50, 4.3),
    ("Milan", "IT", 45.46, 9.19, 3.2),
    ("Amsterdam", "NL", 52.37, 4.90, 2.5),
    ("Brussels", "BE", 50.85, 4.35, 2.1),
    ("Zurich", "CH", 47.37, 8.54, 1.4),
    ("Vienna", "AT", 48.21, 16.37, 2.0),
    ("Dublin", "IE", 53.35, -6.26, 1.4),
    ("Stockholm", "SE", 59.33, 18.07, 1.7),
    ("Oslo", "NO", 59.91, 10.75, 1.1),
    ("Helsinki", "FI", 60.17, 24.94, 1.3),
    ("Copenhagen", "DK", 55.68, 12.57, 1.4),
    # --- Eastern Europe & Baltics
    ("Warsaw", "PL", 52.23, 21.01, 1.8),
    ("Krakow", "PL", 50.06, 19.94, 0.8),
    ("Vilnius", "LT", 54.69, 25.28, 0.6),
    ("Kaunas", "LT", 54.90, 23.91, 0.3),
    ("Riga", "LV", 56.95, 24.11, 0.6),
    ("Tallinn", "EE", 59.44, 24.75, 0.5),
    ("Bucharest", "RO", 44.43, 26.10, 1.8),
    ("Sofia", "BG", 42.70, 23.32, 1.3),
    ("Athens", "GR", 37.98, 23.73, 3.2),
    ("Nicosia", "CY", 35.19, 33.38, 0.3),
    ("Limassol", "CY", 34.68, 33.04, 0.2),
    ("Zagreb", "HR", 45.81, 15.98, 0.8),
    ("Kyiv", "UA", 50.45, 30.52, 3.0),
    # --- Africa
    ("Lagos", "NG", 6.52, 3.38, 15.4),
    ("Abuja", "NG", 9.06, 7.50, 3.8),
    ("Nairobi", "KE", -1.29, 36.82, 5.1),
    ("Mombasa", "KE", -4.04, 39.67, 1.3),
    ("Maputo", "MZ", -25.97, 32.57, 1.1),
    ("Beira", "MZ", -19.84, 34.84, 0.5),
    ("Lusaka", "ZM", -15.39, 28.32, 3.0),
    ("Kigali", "RW", -1.94, 30.06, 1.2),
    ("Mbabane", "SZ", -26.31, 31.14, 0.1),
    ("Lilongwe", "MW", -13.96, 33.77, 1.1),
    ("Cotonou", "BJ", 6.37, 2.39, 0.7),
    ("Johannesburg", "ZA", -26.20, 28.05, 6.0),
    ("Cape Town", "ZA", -33.92, 18.42, 4.8),
    ("Cairo", "EG", 30.04, 31.24, 21.3),
    ("Accra", "GH", 5.60, -0.19, 2.6),
    ("Dar es Salaam", "TZ", -6.79, 39.21, 7.4),
    ("Gaborone", "BW", -24.63, 25.92, 0.3),
    ("Antananarivo", "MG", -18.88, 47.51, 3.7),
    # --- Middle East & Asia
    ("Istanbul", "TR", 41.01, 28.98, 15.6),
    ("Tel Aviv", "IL", 32.08, 34.78, 4.4),
    ("Dubai", "AE", 25.20, 55.27, 3.5),
    ("Tokyo", "JP", 35.68, 139.69, 37.3),
    ("Osaka", "JP", 34.69, 135.50, 19.1),
    ("Sapporo", "JP", 43.06, 141.35, 2.7),
    ("Seoul", "KR", 37.57, 126.98, 25.5),
    ("Singapore", "SG", 1.35, 103.82, 5.9),
    ("Kuala Lumpur", "MY", 3.14, 101.69, 8.4),
    ("Manila", "PH", 14.60, 120.98, 14.4),
    ("Cebu", "PH", 10.32, 123.89, 3.0),
    ("Jakarta", "ID", -6.21, 106.85, 10.9),
    ("Mumbai", "IN", 19.08, 72.88, 20.7),
    ("Bangkok", "TH", 13.76, 100.50, 10.7),
    ("Hanoi", "VN", 21.03, 105.85, 8.1),
    ("Ulaanbaatar", "MN", 47.89, 106.91, 1.6),
    # --- Oceania
    ("Sydney", "AU", -33.87, 151.21, 5.4),
    ("Melbourne", "AU", -37.81, 144.96, 5.1),
    ("Perth", "AU", -31.95, 115.86, 2.1),
    ("Alice Springs", "AU", -23.70, 133.88, 0.03),
    ("Auckland", "NZ", -36.85, 174.76, 1.7),
    ("Christchurch", "NZ", -43.53, 172.64, 0.4),
    ("Suva", "FJ", -18.14, 178.44, 0.2),
    ("Port Moresby", "PG", -9.44, 147.18, 0.4),
)


@lru_cache(maxsize=1)
def all_cities() -> tuple[City, ...]:
    """Every vantage city in the gazetteer."""
    return tuple(City(*row) for row in _CITIES)


@lru_cache(maxsize=None)
def cities_in_country(iso2: str) -> tuple[City, ...]:
    """All vantage cities in a country (validates the country code)."""
    country_by_iso2(iso2)
    return tuple(c for c in all_cities() if c.iso2 == iso2)


@lru_cache(maxsize=None)
def city_by_name(name: str) -> City:
    """Look a city up by its exact name."""
    for city in all_cities():
        if city.name == name:
            return city
    raise DatasetError(f"unknown city: {name!r}")
