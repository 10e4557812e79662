"""A draw-for-draw reference for the AIM/NetMet probe samplers.

The path models resolve each client-remote leg once into a sampler
(:class:`repro.network.terrestrial.TerrestrialLeg`,
:class:`repro.network.bentpipe.StarlinkLeg`) that holds the leg's constants
and makes a probe's draws inline. This module composes the same probe the
plain way, one helper per draw, so the property suite can check that both
give equal floats and leave the Generator in the same state. Only the
deterministic leg parts (core fibre latency, resolved Starlink path,
PoP-to-remote latency) come from the models; they draw nothing.

One helper is deliberately stronger than a copy: the frame jitter draws
``uniform(0, max)``, so the equality also pins the samplers' ``max *
random()`` to numpy's own uniform draw.

:class:`FixedJitter` and :func:`uplinks_ms` read the sampled uplink (or
the frame jitter) of a Starlink probe alone, for the access-geometry and
noise tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import (
    CDN_SERVER_THINK_TIME_MS,
    EARTH_RADIUS_KM,
    MIN_ELEVATION_USER_DEG,
    STARLINK_FRAME_JITTER_MAX_MS,
)
from repro.errors import ConfigurationError
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.network.access import access_latency_ms
from repro.network.bentpipe import StarlinkLeg, StarlinkModelParams

_TIER_LAST_MILE_MEDIAN_MS = {1: 3.5, 2: 5.0, 3: 8.0}
_COUNTRY_LAST_MILE_MEDIAN_MS = {"NG": 26.0}
_LAST_MILE_SIGMA = 0.7
_TERRESTRIAL_BUFFERBLOAT_MS = 25.0


# -- one helper per draw -----------------------------------------------------


def last_mile_ms(rng: np.random.Generator, tier: int, iso2: str) -> float:
    median = _TIER_LAST_MILE_MEDIAN_MS[tier]
    median = _COUNTRY_LAST_MILE_MEDIAN_MS.get(iso2, median)
    return float(rng.lognormal(math.log(median), _LAST_MILE_SIGMA))


def jitter_ms(rng: np.random.Generator, base_ms: float) -> float:
    multiplicative = float(rng.lognormal(0.0, 0.06))
    queueing = float(rng.exponential(1.5))
    return base_ms * multiplicative + queueing


def bufferbloat_ms(rng: np.random.Generator, scale_ms: float) -> float:
    return float(rng.exponential(scale_ms))


def frame_jitter_ms(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, STARLINK_FRAME_JITTER_MAX_MS))


def sample_elevation_deg(rng: np.random.Generator) -> float:
    fraction = float(rng.beta(1.0, 2.0))
    return MIN_ELEVATION_USER_DEG + fraction * (90.0 - MIN_ELEVATION_USER_DEG)


def slant_range_for_elevation_km(elevation_deg: float, altitude_km: float) -> float:
    re = EARTH_RADIUS_KM
    h = altitude_km
    sin_e = math.sin(math.radians(elevation_deg))
    return math.sqrt((re * sin_e) ** 2 + h * h + 2.0 * re * h) - re * sin_e


def sample_access_one_way_ms(rng: np.random.Generator, altitude_km: float) -> float:
    elevation = sample_elevation_deg(rng)
    return access_latency_ms(slant_range_for_elevation_km(elevation, altitude_km))


# -- one probe ---------------------------------------------------------------


def terrestrial_idle_rtt_ms(rng, model, city, remote, remote_iso2) -> float:
    core = model.one_way_core_ms(city.location, city.iso2, remote, remote_iso2)
    last_mile = last_mile_ms(rng, city.country.infra_tier, city.iso2)
    base = 2.0 * (core + last_mile) + CDN_SERVER_THINK_TIME_MS
    return jitter_ms(rng, base)


def terrestrial_loaded_rtt_ms(rng, model, city, remote, remote_iso2) -> float:
    idle = terrestrial_idle_rtt_ms(rng, model, city, remote, remote_iso2)
    return idle + bufferbloat_ms(rng, _TERRESTRIAL_BUFFERBLOAT_MS)


def starlink_idle_rtt_ms(rng, model, city, remote, remote_iso2) -> float:
    altitude = model.params.altitude_km
    floor_tail = model.resolve_path(city).one_way_floor_ms - access_latency_ms(altitude)
    remote_ms = model.pop_to_remote_one_way_ms(city, remote, remote_iso2)
    up_ms = sample_access_one_way_ms(rng, altitude)
    one_way = up_ms + floor_tail + remote_ms
    base = 2.0 * one_way + CDN_SERVER_THINK_TIME_MS + frame_jitter_ms(rng)
    return jitter_ms(rng, base)


def starlink_loaded_rtt_ms(rng, model, city, remote, remote_iso2) -> float:
    params = model.params
    extra = params.bufferbloat_base_ms + bufferbloat_ms(rng, params.bufferbloat_scale_ms)
    return starlink_idle_rtt_ms(rng, model, city, remote, remote_iso2) + extra


def sample_rtt_ms(rng, generator, city, site, isp: str, loaded: bool) -> float:
    """What ``generator.sample_rtt_ms`` (or ``sample_loaded_rtt_ms``) returns,
    drawn from ``rng`` instead of the generator's own stream."""
    if isp == TERRESTRIAL:
        probe = terrestrial_loaded_rtt_ms if loaded else terrestrial_idle_rtt_ms
        model = generator.terrestrial
    elif isp == STARLINK:
        probe = starlink_loaded_rtt_ms if loaded else starlink_idle_rtt_ms
        model = generator.starlink
    else:
        raise ConfigurationError(f"unknown ISP class: {isp!r}")
    return probe(rng, model, city, site.location, site.iso2)


# -- reading the uplink alone --------------------------------------------------


class FixedJitter:
    """A Generator stand-in that leaves a Starlink probe nothing but its uplink.

    ``beta`` draws from ``rng``, or returns ``elevation_fraction`` when that
    is given; both jitter draws are the identity (lognormal 1, exponential
    0), and the frame jitter is zero unless ``frame_jitter`` draws it from
    ``rng``.
    """

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        elevation_fraction: float | None = None,
        frame_jitter: bool = False,
    ) -> None:
        self._rng = rng
        self._fraction = elevation_fraction
        self._frame_jitter = frame_jitter

    def beta(self, a: float, b: float) -> float:
        if self._fraction is not None:
            return self._fraction
        return float(self._rng.beta(a, b))

    def random(self) -> float:
        return float(self._rng.random()) if self._frame_jitter else 0.0

    def lognormal(self, mean: float, sigma: float) -> float:
        return 1.0

    def exponential(self, scale: float) -> float:
        return 0.0


def uplinks_ms(
    draws: FixedJitter, n: int, params: StarlinkModelParams | None = None
) -> list[float]:
    """The one-way uplink ms of ``n`` Starlink probes drawn from ``draws``,
    on a leg with no tail and no remote leg (plus half of each frame jitter
    when ``draws`` draws one)."""
    leg = StarlinkLeg(draws, params or StarlinkModelParams(), 0.0, 0.0)
    return [(leg.idle_rtt_ms() - CDN_SERVER_THINK_TIME_MS) / 2.0 for _ in range(n)]
