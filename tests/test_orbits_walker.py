"""Tests for Walker-delta construction and propagation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta


def latitudes_deg(constellation: Constellation, t_s: float) -> np.ndarray:
    """Geocentric latitude of every satellite at ``t_s``."""
    x, y, z = constellation.positions_ecef(t_s).T
    return np.degrees(np.arctan2(z, np.hypot(x, y)))


class TestConstruction:
    def test_total_satellites(self, small_constellation, small_shell):
        assert len(small_constellation) == small_shell.total_satellites

    def test_raan_per_plane(self, small_constellation, small_shell):
        per = small_shell.sats_per_plane
        raan = small_constellation.raan_rad
        # All satellites of one plane share a RAAN.
        for plane in range(small_shell.num_planes):
            plane_raans = raan[plane * per : (plane + 1) * per]
            assert np.allclose(plane_raans, plane_raans[0])

    def test_raan_spacing(self, small_constellation, small_shell):
        per = small_shell.sats_per_plane
        raan0 = small_constellation.raan_rad[0]
        raan1 = small_constellation.raan_rad[per]
        expected = np.radians(small_shell.raan_spacing_deg)
        assert raan1 - raan0 == pytest.approx(expected)

    def test_phase_offset_between_planes(self, small_constellation, small_shell):
        per = small_shell.sats_per_plane
        phase0 = small_constellation.phase_rad[0]
        phase1 = small_constellation.phase_rad[per]
        expected = np.radians(small_shell.inter_plane_phase_deg)
        assert phase1 - phase0 == pytest.approx(expected)

    def test_mismatched_arrays_rejected(self, small_shell):
        with pytest.raises(ConfigurationError):
            Constellation(
                config=small_shell,
                raan_rad=np.zeros(3),
                phase_rad=np.zeros(small_shell.total_satellites),
            )


class TestPropagation:
    def test_orbit_radius_constant(self, small_constellation):
        for t in (0.0, 100.0, 3000.0):
            positions = small_constellation.positions_ecef(t)
            radii = np.linalg.norm(positions, axis=1)
            assert np.allclose(radii, small_constellation.orbit_radius_km)

    def test_period_returns_to_start_in_inertial_frame(self, small_constellation):
        # After one period the satellite returns to the same inertial spot;
        # in ECEF it is offset by Earth rotation, so compare latitude only.
        period = small_constellation.config.period_s
        lat0 = latitudes_deg(small_constellation, 0.0)
        lat1 = latitudes_deg(small_constellation, period)
        assert np.allclose(lat0, lat1, atol=0.05)

    def test_satellites_move_between_snapshots(self, small_constellation):
        p0 = small_constellation.positions_ecef(0.0)
        p1 = small_constellation.positions_ecef(60.0)
        moved = np.linalg.norm(p1 - p0, axis=1)
        # ~7.6 km/s ground-frame speed -> roughly 450 km/minute.
        assert moved.min() > 200.0

    def test_latitude_bounded_by_inclination(self, small_constellation):
        for t in np.linspace(0.0, small_constellation.config.period_s, 17):
            lats = latitudes_deg(small_constellation, float(t))
            assert np.all(np.abs(lats) <= small_constellation.config.inclination_deg + 0.1)

    def test_shell1_inclination_bound(self, shell1_constellation):
        lats = latitudes_deg(shell1_constellation, 1234.0)
        assert np.max(np.abs(lats)) <= 53.0 + 0.1
        # With 1584 satellites some are always near the inclination limit.
        assert np.max(np.abs(lats)) > 50.0


class TestBuildWalkerShell1:
    def test_build_full_shell1(self):
        constellation = build_walker_delta(starlink_shell1())
        assert len(constellation) == 1584
        positions = constellation.positions_ecef(0.0)
        assert positions.shape == (1584, 3)
        # All satellites are distinct points.
        unique_rows = np.unique(np.round(positions, 3), axis=0)
        assert unique_rows.shape[0] == 1584
