"""NetMet: the web-browsing measurement model (paper §3.1).

Reproduces what the browser plugin records per page fetch: DNS lookup, TCP
connect, TLS negotiation, HTTP response time (first byte), and — in the
containerised deployment — first contentful paint. Every timing is a
function of the access path's RTT, the page's critical path, and the access
bandwidth, so ISP differences flow straight through to the user experience
numbers, exactly as the paper observes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.datasets.cities import City
from repro.measurements.aim import STARLINK, TERRESTRIAL, AimGenerator
from repro.measurements.webpage import WebPage, top_site_pages

# Access downlink medians (Mbps) for the transfer-time model.
_STARLINK_BANDWIDTH_MEDIAN_MBPS = 140.0
_TIER_BANDWIDTH_MEDIAN_MBPS = {1: 300.0, 2: 100.0, 3: 30.0}
_COUNTRY_BANDWIDTH_MEDIAN_MBPS = {"NG": 12.0}
_BANDWIDTH_SIGMA = 0.4

_TCP_INITIAL_WINDOW_BYTES = 10 * 1460
_PARALLEL_CONNECTIONS = 6


@dataclass(frozen=True)
class PageFetchMetrics:
    """The per-fetch record NetMet produces."""

    page: str
    city: str
    iso2: str
    isp: str
    dns_ms: float
    connect_ms: float
    tls_ms: float
    http_response_ms: float
    fcp_ms: float


@dataclass
class NetMetProbe:
    """Simulated NetMet deployment: fetches the top pages from a city."""

    seed: int = 0
    generator: AimGenerator = field(init=False)

    def __post_init__(self) -> None:
        self.generator = AimGenerator(seed=self.seed)

    # -- component models -------------------------------------------------

    def _rng(self):
        return self.generator.terrestrial.rng

    def bandwidth_mbps(self, city: City, isp: str) -> float:
        """One sampled downlink bandwidth for a client."""
        if isp == STARLINK:
            median = _STARLINK_BANDWIDTH_MEDIAN_MBPS
        elif isp == TERRESTRIAL:
            median = _COUNTRY_BANDWIDTH_MEDIAN_MBPS.get(
                city.iso2, _TIER_BANDWIDTH_MEDIAN_MBPS[city.country.infra_tier]
            )
        else:
            raise ConfigurationError(f"unknown ISP class: {isp!r}")
        return float(self._rng().lognormal(math.log(median), _BANDWIDTH_SIGMA))

    @staticmethod
    def slow_start_rtts(transfer_bytes: int) -> int:
        """Extra round trips TCP slow start costs for a transfer."""
        if transfer_bytes < 0:
            raise ConfigurationError(f"negative transfer size: {transfer_bytes}")
        if transfer_bytes <= _TCP_INITIAL_WINDOW_BYTES:
            return 0
        return min(5, int(math.ceil(math.log2(transfer_bytes / _TCP_INITIAL_WINDOW_BYTES))))

    @staticmethod
    def transfer_ms(transfer_bytes: int, bandwidth_mbps: float) -> float:
        """Serialisation time of a transfer at the given bandwidth."""
        if bandwidth_mbps <= 0:
            raise ConfigurationError(f"bandwidth must be positive: {bandwidth_mbps}")
        return transfer_bytes * 8.0 / (bandwidth_mbps * 1e6) * 1000.0

    # -- fetch simulation ---------------------------------------------------

    def fetch_page(self, city: City, isp: str, page: WebPage) -> PageFetchMetrics:
        """Simulate one page fetch and return its NetMet record."""
        site, _ = self.generator.optimal_site(city, isp)
        rtt = self.generator.sample_rtt_ms(city, site, isp)
        bandwidth = self.bandwidth_mbps(city, isp)
        rng = self._rng()

        # DNS usually hits a nearby resolver cache; misses pay a recursive
        # lookup that scales with the path RTT. Popular landing pages are
        # cached most of the time.
        if rng.random() < 0.7:
            dns_ms = float(rng.exponential(1.5))
        else:
            dns_ms = 0.4 * rtt + float(rng.exponential(5.0))
        connect_ms = rtt  # TCP three-way handshake
        tls_ms = rtt  # TLS 1.3, one round trip
        # HTTP response time: request out, first byte back (server think time
        # is already part of the sampled RTT's remote component). First byte
        # needs no slow start — that cost lands on the body transfer below.
        http_response_ms = rtt

        html_ms = (
            self.transfer_ms(page.html_bytes, bandwidth)
            + self.slow_start_rtts(page.html_bytes) * rtt * 0.35
        )
        # Critical resources multiplex over the warm connection (HTTP/2) plus
        # a small parallel pool: one request round trip per connection wave,
        # with the congestion window continuing to ramp.
        waves = min(2, math.ceil(page.critical_resources / _PARALLEL_CONNECTIONS)) if page.critical_resources else 0
        resource_rtts = waves * rtt + self.slow_start_rtts(page.critical_bytes) * rtt * 0.35
        resource_ms = self.transfer_ms(page.critical_bytes, bandwidth)

        fcp_ms = (
            dns_ms
            + connect_ms
            + tls_ms
            + http_response_ms
            + html_ms
            + resource_rtts
            + resource_ms
            + page.render_ms
        )
        return PageFetchMetrics(
            page=page.name,
            city=city.name,
            iso2=city.iso2,
            isp=isp,
            dns_ms=dns_ms,
            connect_ms=connect_ms,
            tls_ms=tls_ms,
            http_response_ms=http_response_ms,
            fcp_ms=fcp_ms,
        )

    def browse(
        self, city: City, isp: str, rounds: int = 1
    ) -> list[PageFetchMetrics]:
        """Fetch every top page ``rounds`` times from a city over one ISP."""
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        records: list[PageFetchMetrics] = []
        for _ in range(rounds):
            for page in top_site_pages():
                records.append(self.fetch_page(city, isp, page))
        return records
