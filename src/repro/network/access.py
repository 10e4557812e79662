"""Ku-band access-link latency, geometry and delay sampling.

:func:`access_latency_ms` is the one access-link formula: every path that
prices a terminal <-> satellite hop (the analytic bent-pipe model, Fig. 7,
the duty-cycle lookup and the serve ladder) calls it.

When the full constellation is not being propagated (the analytic AIM model),
the serving satellite's slant range is sampled from the elevation
distribution a terminal actually sees: elevations near the minimum are more
likely than zenith passes because the visible sky annulus is largest near
the horizon.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import (
    EARTH_RADIUS_KM,
    MIN_ELEVATION_USER_DEG,
    SPEED_OF_LIGHT_KM_S,
    STARLINK_PROCESSING_DELAY_MS,
    STARLINK_SCHEDULING_DELAY_MS,
    STARLINK_SHELL1_ALTITUDE_KM,
)
from repro.errors import ConfigurationError


def access_latency_ms(slant_range_km):
    """One-way latency of the Ku-band access link (terminal <-> satellite).

    Radio propagation at c plus the MAC scheduling delay (the terminal must
    wait for its uplink grant) and satellite processing. Takes a float or an
    ndarray of slant ranges; a negative or non-finite range anywhere raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(slant_range_km, np.ndarray):
        bad = ~np.isfinite(slant_range_km) | (slant_range_km < 0)
        if bad.any():
            raise ConfigurationError(
                f"slant range must be finite and >= 0, got {slant_range_km[bad][0]}"
            )
    elif not (math.isfinite(slant_range_km) and slant_range_km >= 0):
        raise ConfigurationError(
            f"slant range must be finite and >= 0, got {slant_range_km}"
        )
    return (
        slant_range_km / SPEED_OF_LIGHT_KM_S * 1000.0
        + STARLINK_SCHEDULING_DELAY_MS
        + STARLINK_PROCESSING_DELAY_MS
    )


def slant_range_for_elevation_km(
    elevation_deg: float, altitude_km: float = STARLINK_SHELL1_ALTITUDE_KM
) -> float:
    """Slant range to a satellite at ``altitude_km`` seen at ``elevation_deg``.

    Closed-form from the Earth-centre triangle: with Earth radius R and orbit
    radius R+h, the slant range at elevation e is
    ``sqrt((R sin e)^2 + h^2 + 2 R h) - R sin e``.
    """
    if not 0.0 <= elevation_deg <= 90.0:
        raise ConfigurationError(f"elevation {elevation_deg} outside [0, 90]")
    if altitude_km <= 0:
        raise ConfigurationError(f"altitude must be positive: {altitude_km}")
    re = EARTH_RADIUS_KM
    h = altitude_km
    sin_e = math.sin(math.radians(elevation_deg))
    return math.sqrt((re * sin_e) ** 2 + h * h + 2.0 * re * h) - re * sin_e


def sample_elevation_deg(
    rng: np.random.Generator, min_elevation_deg: float = MIN_ELEVATION_USER_DEG
) -> float:
    """Sample the serving satellite's elevation.

    Weighted towards lower elevations (Beta(1, 2) over the usable range):
    the sky annulus area shrinks towards zenith, and Starlink's scheduler
    balances load rather than always assigning the overhead satellite.
    """
    if not 0.0 <= min_elevation_deg < 90.0:
        raise ConfigurationError(f"min elevation {min_elevation_deg} outside [0, 90)")
    fraction = float(rng.beta(1.0, 2.0))
    return min_elevation_deg + fraction * (90.0 - min_elevation_deg)


def sample_access_one_way_ms(
    rng: np.random.Generator,
    altitude_km: float = STARLINK_SHELL1_ALTITUDE_KM,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> float:
    """One sampled one-way terminal->satellite latency (propagation + MAC + processing)."""
    elevation = sample_elevation_deg(rng, min_elevation_deg)
    return access_latency_ms(slant_range_for_elevation_km(elevation, altitude_km))
