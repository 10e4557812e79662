"""Ku-band access-link latency.

:func:`access_latency_ms` is the one access-link formula: every path that
prices a terminal <-> satellite hop (the analytic bent-pipe model, Fig. 7,
the duty-cycle lookup and the serve ladder) calls it. The analytic model
samples the slant range it prices from the elevation distribution a
terminal actually sees (:class:`repro.network.bentpipe.StarlinkLeg`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import (
    SPEED_OF_LIGHT_KM_S,
    STARLINK_PROCESSING_DELAY_MS,
    STARLINK_SCHEDULING_DELAY_MS,
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

