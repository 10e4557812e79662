"""Constellation shell configuration and satellite identity.

A *shell* is one layer of a mega-constellation: a Walker-delta pattern of
circular orbits at a common altitude and inclination. The paper simulates
Starlink Shell 1 — 72 planes of 22 satellites at 550 km / 53 deg — which is
provided as a preset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    STARLINK_SHELL1_ALTITUDE_KM,
    STARLINK_SHELL1_INCLINATION_DEG,
    STARLINK_SHELL1_NUM_PLANES,
    STARLINK_SHELL1_PHASE_OFFSET,
    STARLINK_SHELL1_SATS_PER_PLANE,
    orbital_period_s,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShellConfig:
    """Geometry of one Walker-delta constellation shell."""

    altitude_km: float
    inclination_deg: float
    num_planes: int
    sats_per_plane: int
    phase_offset: int = 0
    name: str = "shell"
    isl_capable: bool = True
    """Whether the shell's satellites carry inter-satellite links.
    First-generation OneWeb famously does not — every path is a bent pipe."""

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ConfigurationError(f"altitude must be positive, got {self.altitude_km}")
        if not 0.0 < self.inclination_deg <= 180.0:
            raise ConfigurationError(
                f"inclination must be in (0, 180], got {self.inclination_deg}"
            )
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ConfigurationError("need at least one plane and one satellite per plane")
        if not 0 <= self.phase_offset < self.total_satellites:
            raise ConfigurationError(
                f"phase offset must be in [0, {self.total_satellites}), got {self.phase_offset}"
            )

    @property
    def total_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def period_s(self) -> float:
        """Orbital period of every satellite in the shell."""
        return orbital_period_s(self.altitude_km)

    @property
    def raan_spacing_deg(self) -> float:
        """Right-ascension spacing between adjacent planes."""
        return 360.0 / self.num_planes

    @property
    def in_plane_spacing_deg(self) -> float:
        """Angular spacing between adjacent satellites within a plane."""
        return 360.0 / self.sats_per_plane

    @property
    def inter_plane_phase_deg(self) -> float:
        """Phase shift applied between adjacent planes (Walker-delta F term)."""
        return self.phase_offset * 360.0 / self.total_satellites


def starlink_shell1() -> ShellConfig:
    """Starlink Shell 1 as simulated in the paper (72 x 22 at 550 km, 53 deg)."""
    return ShellConfig(
        altitude_km=STARLINK_SHELL1_ALTITUDE_KM,
        inclination_deg=STARLINK_SHELL1_INCLINATION_DEG,
        num_planes=STARLINK_SHELL1_NUM_PLANES,
        sats_per_plane=STARLINK_SHELL1_SATS_PER_PLANE,
        phase_offset=STARLINK_SHELL1_PHASE_OFFSET,
        name="starlink-shell1",
    )


def starlink_shell3() -> ShellConfig:
    """Starlink Shell 3 (36 x 20 at 570 km, 70 deg): higher-latitude coverage."""
    return ShellConfig(
        altitude_km=570.0,
        inclination_deg=70.0,
        num_planes=36,
        sats_per_plane=20,
        phase_offset=11,
        name="starlink-shell3",
    )


def starlink_vleo() -> ShellConfig:
    """A VLEO shell (~345 km) from the Gen2 plans (paper §2: "Very-Low Earth
    Orbits (~300 km)"). Lower altitude = shorter access links and smaller
    footprints — a useful ablation axis for SpaceCDN latency."""
    return ShellConfig(
        altitude_km=345.0,
        inclination_deg=53.0,
        num_planes=48,
        sats_per_plane=110 // 2,  # 48 x 55: a Gen2-scale dense shell
        phase_offset=17,
        name="starlink-vleo",
    )


def oneweb_phase1() -> ShellConfig:
    """OneWeb's phase-1 constellation (12 x 49 at 1200 km, 87.9 deg).

    No inter-satellite links: every connection is a bent pipe through a
    gateway, so a OneWeb SpaceCDN could only serve from the overhead
    satellite — a useful baseline for how much the ISLs buy.
    """
    return ShellConfig(
        altitude_km=1200.0,
        inclination_deg=87.9,
        num_planes=12,
        sats_per_plane=49,
        phase_offset=0,
        name="oneweb-phase1",
        isl_capable=False,
    )
