"""Physical and engineering constants used throughout the simulation.

All distances are kilometres, all times are seconds unless a name says
otherwise (``*_ms`` means milliseconds). The calibration constants in the
second half of the module are anchored to the figures quoted in the paper
(Bose et al., HotNets '24) — see DESIGN.md §6 for the anchor list.
"""

from __future__ import annotations

import math

# --- Physical constants -----------------------------------------------------

EARTH_RADIUS_KM: float = 6371.0
"""Mean Earth radius (spherical Earth model)."""

EARTH_MU_KM3_S2: float = 398600.4418
"""Standard gravitational parameter of Earth (km^3/s^2)."""

EARTH_ROTATION_RAD_S: float = 7.2921159e-5
"""Earth sidereal rotation rate (rad/s)."""

SPEED_OF_LIGHT_KM_S: float = 299792.458
"""Speed of light in vacuum — governs free-space optical ISLs and radio links."""

FIBER_REFRACTION_INDEX: float = 1.468
"""Typical group index of single-mode fiber; light in fiber travels at c/n."""

FIBER_SPEED_KM_S: float = SPEED_OF_LIGHT_KM_S / FIBER_REFRACTION_INDEX
"""Propagation speed in terrestrial fiber (~204,000 km/s)."""

SECONDS_PER_DAY: float = 86400.0

# --- Starlink Shell 1 (the configuration simulated in the paper, §4) --------

STARLINK_SHELL1_ALTITUDE_KM: float = 550.0
STARLINK_SHELL1_INCLINATION_DEG: float = 53.0
STARLINK_SHELL1_NUM_PLANES: int = 72
STARLINK_SHELL1_SATS_PER_PLANE: int = 22
STARLINK_SHELL1_PHASE_OFFSET: int = 39
"""Walker-delta phasing factor commonly used for Shell 1 in LEO simulators."""

MIN_ELEVATION_USER_DEG: float = 25.0
"""Minimum elevation angle for a user terminal to talk to a satellite."""

MIN_ELEVATION_GS_DEG: float = 10.0
"""Ground stations use larger dishes and can track lower elevations."""

# --- Access-link calibration (anchored to paper Table 1 best cases) ---------

STARLINK_SCHEDULING_DELAY_MS: float = 4.0
"""Minimum one-way MAC scheduling / frame-alignment delay on the Ku-band link.

This is the floor; the frame-alignment *jitter* on top of it (0 to one full
scheduling interval) lives in :class:`repro.network.bentpipe.StarlinkLeg`.
"""

STARLINK_FRAME_JITTER_MAX_MS: float = 20.0
"""Worst-case extra RTT from uplink-grant alignment and CGNAT queueing —
the spread between Starlink's minRTT and its median RTT."""

STARLINK_PROCESSING_DELAY_MS: float = 1.5
"""Per-traversal satellite/gateway processing (modem, switching)."""

POP_PROCESSING_DELAY_MS: float = 1.5
"""CGNAT + aggregation at the Starlink point of presence (one-way)."""

ISL_HOP_PROCESSING_MS: float = 0.35
"""Per-ISL-hop optical-terminal switching delay (one-way)."""

TERRESTRIAL_PER_HOP_MS: float = 0.25
"""Average per-router queueing/forwarding delay on terrestrial paths."""

CDN_SERVER_THINK_TIME_MS: float = 3.0
"""Typical CDN cache-hit response generation time (first byte)."""

BUFFERBLOAT_LOADED_EXTRA_MS: float = 200.0
"""Extra latency under load observed on Starlink paths (paper §3.2)."""

# --- The request-level SpaceCDN system ---------------------------------------

SNAPSHOT_INTERVAL_S: float = 60.0
"""How often the request-level system rebuilds its ISL snapshot as the
constellation rotates (60 s keeps link-length error under ~1%). It is also
the width of one obs time-series window, so a window never straddles a
topology change."""

GROUND_RTT_MS: float = 140.0
"""RTT of the Maputo-class bent-pipe + terrestrial path to a ground cache:
the SpaceCDN ladder's last rung. Half of it is the one-way ground fallback
of :class:`~repro.spacecdn.lookup.SpaceCdnLookup`."""

# --- Terrestrial path circuity ----------------------------------------------
# Real routes are longer than geodesics: cable layout, IXP detours. The paper's
# Africa analysis (Formoso et al. reference) motivates a much higher circuity
# for poorly interconnected regions.

CIRCUITY_TIER1: float = 1.4
"""Well-provisioned regions (western Europe, US coasts, Japan)."""

CIRCUITY_TIER2: float = 1.8
"""Moderately provisioned regions."""

CIRCUITY_TIER3: float = 2.6
"""Poorly interconnected regions (much of Africa, remote islands)."""


def orbital_period_s(altitude_km: float) -> float:
    """Period of a circular orbit at ``altitude_km`` above the mean surface."""
    semi_major_km = EARTH_RADIUS_KM + altitude_km
    return 2.0 * math.pi * math.sqrt(semi_major_km**3 / EARTH_MU_KM3_S2)
