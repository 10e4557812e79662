"""Web-page models for the NetMet browsing simulation.

A page is characterised by what determines its first-contentful-paint: the
HTML document size, the number and total size of *render-critical* resources
(CSS, blocking JS, above-the-fold images), and how many round trips the
critical path costs. The ``top_site_pages`` set mirrors the paper's use of
the Tranco top-20 landing pages served by Cloudflare/CloudFront.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WebPage:
    """A landing page as seen by the fetch model."""

    name: str
    html_bytes: int
    critical_resources: int
    critical_bytes: int
    render_ms: float
    """Client-side parse/layout/paint time on a reference machine."""

    def __post_init__(self) -> None:
        if self.html_bytes <= 0 or self.critical_bytes < 0:
            raise ConfigurationError(f"page {self.name!r} has invalid sizes")
        if self.critical_resources < 0:
            raise ConfigurationError(f"page {self.name!r} has negative resources")
        if self.render_ms < 0:
            raise ConfigurationError(f"page {self.name!r} has negative render time")


# Synthetic stand-ins for the Tranco top-20 landing pages: sizes and critical
# resource counts follow the published HTTP Archive medians for popular sites.
_TOP_PAGES: tuple[tuple[str, int, int, int, float], ...] = (
    ("search-portal", 50_000, 4, 300_000, 120.0),
    ("video-platform", 90_000, 8, 800_000, 200.0),
    ("social-network", 120_000, 10, 900_000, 220.0),
    ("encyclopedia", 70_000, 3, 150_000, 90.0),
    ("news-international", 110_000, 12, 1_100_000, 240.0),
    ("news-regional", 95_000, 10, 850_000, 210.0),
    ("e-commerce", 130_000, 9, 1_000_000, 230.0),
    ("streaming-service", 85_000, 7, 700_000, 190.0),
    ("webmail", 60_000, 5, 400_000, 150.0),
    ("developer-hub", 55_000, 4, 250_000, 110.0),
    ("cloud-console", 75_000, 6, 500_000, 170.0),
    ("messaging-web", 65_000, 5, 450_000, 160.0),
    ("travel-booking", 125_000, 11, 950_000, 235.0),
    ("banking-portal", 80_000, 6, 550_000, 180.0),
    ("sports-scores", 100_000, 9, 800_000, 215.0),
    ("weather-service", 45_000, 3, 200_000, 100.0),
    ("q-and-a-forum", 58_000, 4, 280_000, 115.0),
    ("photo-sharing", 105_000, 8, 1_200_000, 225.0),
    ("music-streaming", 72_000, 6, 480_000, 165.0),
    ("gaming-store", 135_000, 12, 1_300_000, 245.0),
)


@lru_cache(maxsize=1)
def top_site_pages() -> tuple[WebPage, ...]:
    """The 20 synthetic landing pages the NetMet model browses (built once)."""
    return tuple(WebPage(*row) for row in _TOP_PAGES)
