"""Walker-delta constellation construction and propagation.

The :class:`Constellation` is the workhorse of the space segment: it holds
per-satellite right ascensions and phase angles as numpy arrays and can
produce every satellite's position at any instant in a single vectorised
call. Circular two-body propagation is exact for this geometry — all
satellites share one altitude, so J2 drift moves planes together and does
not change the constellation-relative geometry the experiments depend on.

Frames: satellites are propagated in an inertial frame and rotated into the
Earth-centred Earth-fixed (ECEF) frame, so positions can be compared
directly with ground locations from :mod:`repro.geo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import EARTH_RADIUS_KM, EARTH_ROTATION_RAD_S
from repro.errors import ConfigurationError
from repro.orbits.elements import ShellConfig


@dataclass
class Constellation:
    """A propagatable Walker-delta shell.

    Attributes:
        config: shell geometry.
        raan_rad: per-satellite right ascension of ascending node (radians).
        phase_rad: per-satellite argument of latitude at epoch (radians).
    """

    config: ShellConfig
    raan_rad: np.ndarray
    phase_rad: np.ndarray
    _mean_motion_rad_s: float = field(init=False)
    _last_positions: tuple[float, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        n = self.config.total_satellites
        if self.raan_rad.shape != (n,) or self.phase_rad.shape != (n,):
            raise ConfigurationError(
                f"raan/phase arrays must have shape ({n},), got "
                f"{self.raan_rad.shape} and {self.phase_rad.shape}"
            )
        self._mean_motion_rad_s = 2.0 * math.pi / self.config.period_s

    def __len__(self) -> int:
        return self.config.total_satellites

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.config.altitude_km

    def positions_ecef(self, t_s: float) -> np.ndarray:
        """ECEF positions of every satellite at time ``t_s`` (shape (N, 3), km).

        The array is read-only: the last instant's positions are kept and
        handed out again, so a snapshot build and the visibility query that
        follows it at the same instant propagate once.
        """
        last = self._last_positions
        if last is not None and last[0] == t_s:
            return last[1]
        inc = math.radians(self.config.inclination_deg)
        u = self.phase_rad + self._mean_motion_rad_s * t_s  # argument of latitude
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_raan, sin_raan = np.cos(self.raan_rad), np.sin(self.raan_rad)
        cos_i, sin_i = math.cos(inc), math.sin(inc)

        r = self.orbit_radius_km
        x_eci = r * (cos_raan * cos_u - sin_raan * sin_u * cos_i)
        y_eci = r * (sin_raan * cos_u + cos_raan * sin_u * cos_i)
        z_eci = r * (sin_u * sin_i)

        # Rotate the inertial frame into the Earth-fixed frame.
        theta = EARTH_ROTATION_RAD_S * t_s
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x = x_eci * cos_t + y_eci * sin_t
        y = -x_eci * sin_t + y_eci * cos_t
        positions = np.column_stack((x, y, z_eci))
        positions.flags.writeable = False
        self._last_positions = (t_s, positions)
        return positions

def build_walker_delta(config: ShellConfig) -> Constellation:
    """Construct a Walker-delta constellation from a shell configuration.

    Plane ``p`` sits at RAAN ``p * 360/P``; satellite ``s`` of plane ``p``
    starts at argument of latitude ``s * 360/S + p * F * 360/T`` where ``F``
    is the Walker phasing factor and ``T`` the total satellite count.
    """
    total = config.total_satellites
    indices = np.arange(total)
    planes = indices // config.sats_per_plane
    slots = indices % config.sats_per_plane

    raan = np.radians(planes * config.raan_spacing_deg)
    phase = np.radians(
        slots * config.in_plane_spacing_deg + planes * config.inter_plane_phase_deg
    )
    return Constellation(config=config, raan_rad=raan, phase_rad=phase)
