"""Synthetic Cloudflare-AIM-style speed-test dataset.

Replaces the paper's crowdsourced AIM cut (~22K Starlink + ~800K terrestrial
tests) with a generator over the same *structure*: per city and ISP class,
tests measure idle RTT to the anycast-optimal CDN site — determined, as in
the paper's methodology, by the median of sampled idle latencies per site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import median

from repro.cdn.anycast import best_site_by_latency
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_km
from repro.geo.datasets.cdn_sites import CdnSite, all_cdn_sites
from repro.geo.datasets.cities import City, all_cities
from repro.geo.datasets.pops import assigned_pop
from repro.network.bentpipe import StarlinkPathModel
from repro.network.terrestrial import TerrestrialPathModel
from repro.network.throughput import (
    ThroughputProfile,
    starlink_profile,
    starlink_upload_profile,
    terrestrial_profile,
    terrestrial_upload_profile,
)
from repro.simulation.sampler import seeded_rng

STARLINK = "starlink"
TERRESTRIAL = "terrestrial"

PROBES_PER_SITE = 5
"""Idle-RTT probes per candidate site; the optimal site has the lowest
median (an odd count, so the median is the middle probe)."""
CANDIDATE_SITES = 8
"""The nearest CDN sites to an anchor that anycast could deliver to."""


@dataclass(frozen=True)
class SpeedTest:
    """One synthetic speed-test record (the fields the paper's analysis uses)."""

    city: str
    iso2: str
    isp: str
    cdn_site: str
    cdn_iso2: str
    latency_ms: float
    loaded_latency_ms: float
    cdn_distance_km: float
    download_mbps: float
    upload_mbps: float


@dataclass
class AimDataset:
    """A bag of speed tests with the aggregations the experiments need."""

    tests: list[SpeedTest] = field(default_factory=list)

    def filter(self, isp: str | None = None, iso2: str | None = None) -> list[SpeedTest]:
        """Tests matching the given ISP class and/or country."""
        return [
            t
            for t in self.tests
            if (isp is None or t.isp == isp) and (iso2 is None or t.iso2 == iso2)
        ]

    def rtts_by_country(self, isp: str) -> dict[str, list[float]]:
        """idle RTT samples grouped by country for one ISP class."""
        grouped: dict[str, list[float]] = {}
        for test in self.tests:
            if test.isp == isp:
                grouped.setdefault(test.iso2, []).append(test.latency_ms)
        return grouped

    def min_rtt_ms(self, iso2: str, isp: str) -> float:
        """Minimum observed idle RTT for a country/ISP; NaN when unmeasured."""
        samples = [t.latency_ms for t in self.filter(isp=isp, iso2=iso2)]
        if not samples:
            return math.nan
        return float(min(samples))

    def mean_distance_km(self, iso2: str, isp: str) -> float:
        """Average client-to-chosen-CDN distance; NaN when unmeasured."""
        samples = [t.cdn_distance_km for t in self.filter(isp=isp, iso2=iso2)]
        if not samples:
            return math.nan
        return float(sum(samples) / len(samples))

    def all_rtts(self, isp: str) -> list[float]:
        """Every idle RTT for an ISP class."""
        return [t.latency_ms for t in self.tests if t.isp == isp]

    def all_rtts_pooled(self, isp: str) -> list[float]:
        """Idle and loaded RTTs pooled, for an ISP class.

        Speed tests measure latency both before and during active transfer;
        "the whole CDF" of AIM latency samples (paper Fig. 7 baselines)
        therefore spans both regimes — which is where Starlink's bufferbloat
        tail comes from.
        """
        samples: list[float] = []
        for test in self.tests:
            if test.isp == isp:
                samples.append(test.latency_ms)
                samples.append(test.loaded_latency_ms)
        return samples


@lru_cache(maxsize=None)
def _nearest_sites(lat_deg: float, lon_deg: float) -> tuple[CdnSite, ...]:
    """The :data:`CANDIDATE_SITES` CDN sites nearest an anchor, nearest first.

    Memoised per anchor across generators: every client of one country
    shares its Starlink PoP's anchor, and every shard rebuilds a generator.
    """
    anchor = GeoPoint(lat_deg, lon_deg)
    return tuple(
        sorted(all_cdn_sites(), key=lambda s: great_circle_km(anchor, s.location))[
            :CANDIDATE_SITES
        ]
    )


@dataclass
class AimGenerator:
    """Generates the synthetic AIM dataset from the path models."""

    seed: int = 0
    terrestrial: TerrestrialPathModel = field(init=False)
    starlink: StarlinkPathModel = field(init=False)

    def __post_init__(self) -> None:
        # One stream for both models: their draws interleave on it.
        rng = seeded_rng(self.seed, 1)
        self.terrestrial = TerrestrialPathModel(rng=rng)
        self.starlink = StarlinkPathModel(rng=rng)

    # -- per-test sampling ------------------------------------------------

    def sample_rtt_ms(self, city: City, site: CdnSite, isp: str) -> float:
        """One idle-RTT sample from a city to a CDN site over an ISP class."""
        if isp == TERRESTRIAL:
            return self.terrestrial.idle_rtt_ms(city, site.location, site.iso2)
        if isp == STARLINK:
            return self.starlink.idle_rtt_ms(city, site.location, site.iso2)
        raise ConfigurationError(f"unknown ISP class: {isp!r}")

    def sample_loaded_rtt_ms(self, city: City, site: CdnSite, isp: str) -> float:
        """One loaded-RTT sample (active download in progress)."""
        if isp == TERRESTRIAL:
            return self.terrestrial.loaded_rtt_ms(city, site.location, site.iso2)
        if isp == STARLINK:
            return self.starlink.loaded_rtt_ms(city, site.location, site.iso2)
        raise ConfigurationError(f"unknown ISP class: {isp!r}")

    # -- anycast optimum ---------------------------------------------------

    def candidate_sites_for(self, city: City, isp: str) -> tuple[CdnSite, ...]:
        """The sites anycast could plausibly deliver this client to.

        Terrestrial anycast follows client geography; Starlink anycast
        follows the assigned PoP's geography.
        """
        if isp == TERRESTRIAL:
            anchor = city.location
        elif isp == STARLINK:
            anchor = assigned_pop(city.iso2, city.lat_deg, city.lon_deg).location
        else:
            raise ConfigurationError(f"unknown ISP class: {isp!r}")
        return _nearest_sites(anchor.lat_deg, anchor.lon_deg)

    def optimal_site(self, city: City, isp: str) -> tuple[CdnSite, float]:
        """The median-latency-optimal CDN site for a city/ISP (paper §3.1)."""
        candidates = self.candidate_sites_for(city, isp)

        def median_rtt(site: CdnSite) -> float:
            rtts = sorted(
                [self.sample_rtt_ms(city, site, isp) for _ in range(PROBES_PER_SITE)]
            )
            return rtts[PROBES_PER_SITE // 2]

        return best_site_by_latency(candidates, median_rtt)

    # -- dataset generation --------------------------------------------------

    def throughput_profiles(
        self, city: City, isp: str
    ) -> tuple[ThroughputProfile, ThroughputProfile]:
        """The (download, upload) throughput profiles of a city's path class.

        TCP couples throughput to RTT and residual loss (Mathis bound), so
        the Starlink latency penalty also shows up as a speed penalty; the
        return channels are narrow and asymmetric.
        """
        if isp == STARLINK:
            uses_isl = self.starlink.resolve_path(city).uses_isl
            return starlink_profile(uses_isl), starlink_upload_profile(uses_isl)
        if isp == TERRESTRIAL:
            tier = city.country.infra_tier
            return terrestrial_profile(tier), terrestrial_upload_profile(tier)
        raise ConfigurationError(f"unknown ISP class: {isp!r}")

    def sample_mbps(self, profile: ThroughputProfile, rtt_ms: float) -> float:
        """One sampled speed over a path profile at the test's RTT.

        The Mathis bound scaled by U(0.5, 1) per test: cross traffic, Wi-Fi,
        server pacing. ``0.5 + 0.5 * random()`` is numpy's own
        ``uniform(0.5, 1.0)`` formula, minus its argument checks.
        """
        bound = profile.download_mbps(rtt_ms)
        return bound * (0.5 + 0.5 * self.terrestrial.rng.random())

    def generate_city_tests(
        self, city: City, isp: str, num_tests: int
    ) -> list[SpeedTest]:
        """``num_tests`` speed tests from one city over one ISP class."""
        if num_tests < 1:
            raise ConfigurationError("num_tests must be >= 1")
        site, _ = self.optimal_site(city, isp)
        distance = great_circle_km(city.location, site.location)
        download, upload = self.throughput_profiles(city, isp)
        tests = []
        for _ in range(num_tests):
            latency = self.sample_rtt_ms(city, site, isp)
            tests.append(
                SpeedTest(
                    city=city.name,
                    iso2=city.iso2,
                    isp=isp,
                    cdn_site=site.name,
                    cdn_iso2=site.iso2,
                    latency_ms=latency,
                    loaded_latency_ms=self.sample_loaded_rtt_ms(city, site, isp),
                    cdn_distance_km=distance,
                    download_mbps=self.sample_mbps(download, latency),
                    upload_mbps=self.sample_mbps(upload, latency),
                )
            )
        return tests

    # Starlink AIM test volume skews towards regions with poor terrestrial
    # alternatives (that is where subscriptions concentrate), so per-city
    # Starlink test counts scale with the terrestrial infrastructure tier.
    STARLINK_TIER_WEIGHT = {1: 1.0, 2: 1.5, 3: 2.5}

    def generate(
        self,
        tests_per_city: int = 30,
        cities: tuple[City, ...] | None = None,
    ) -> AimDataset:
        """The full dataset: terrestrial tests everywhere, Starlink tests in
        covered countries only (mirroring the paper's 55-vs-196 split)."""
        if tests_per_city < 1:
            raise ConfigurationError("tests_per_city must be >= 1")
        dataset = AimDataset()
        for city in cities if cities is not None else all_cities():
            dataset.tests.extend(
                self.generate_city_tests(city, TERRESTRIAL, tests_per_city)
            )
            if city.country.starlink:
                weight = self.STARLINK_TIER_WEIGHT[city.country.infra_tier]
                dataset.tests.extend(
                    self.generate_city_tests(
                        city, STARLINK, max(1, round(tests_per_city * weight))
                    )
                )
        return dataset
