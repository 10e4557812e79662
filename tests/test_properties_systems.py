"""Property-based tests on the system-level components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits.elements import ShellConfig
from repro.spacecdn.dutycycle import DutyCycleScheduler
from repro.spacecdn.resilience import random_failure_set


class TestDutyCycleProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_active_set_size_and_bounds(self, total, fraction, slot):
        scheduler = DutyCycleScheduler(
            total_satellites=total, cache_fraction=fraction, seed=1
        )
        active = scheduler.active_caches(slot)
        assert len(active) == scheduler.caches_per_slot
        assert 1 <= len(active) <= total
        assert all(0 <= s < total for s in active)

    @given(
        st.integers(min_value=10, max_value=500),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, total, slot):
        a = DutyCycleScheduler(total_satellites=total, cache_fraction=0.4, seed=9)
        b = DutyCycleScheduler(total_satellites=total, cache_fraction=0.4, seed=9)
        assert a.active_caches(slot) == b.active_caches(slot)

    @given(st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_slot_index_consistent_with_duration(self, t):
        scheduler = DutyCycleScheduler(total_satellites=10, cache_fraction=0.5)
        slot = scheduler.slot_index(t)
        assert slot * 600.0 <= t < (slot + 1) * 600.0


class TestResilienceProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_failure_set_size_and_membership(self, total, fraction, seed):
        failed = random_failure_set(total, fraction, np.random.default_rng(seed))
        assert len(failed) == round(total * fraction)
        assert all(0 <= s < total for s in failed)


class TestShellConfigProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=200.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=30.0, max_value=98.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_shell_invariants(self, planes, per_plane, altitude, inclination):
        shell = ShellConfig(
            altitude_km=altitude,
            inclination_deg=inclination,
            num_planes=planes,
            sats_per_plane=per_plane,
        )
        assert shell.total_satellites == planes * per_plane
        assert shell.period_s > 0
        assert 0 < shell.raan_spacing_deg <= 360.0
        assert 0 < shell.in_plane_spacing_deg <= 360.0
        assert shell.in_plane_neighbor_distance_km() > 0

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_walker_positions_on_sphere(self, planes, per_plane):
        from repro.orbits.walker import build_walker_delta

        shell = ShellConfig(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=planes,
            sats_per_plane=per_plane,
        )
        constellation = build_walker_delta(shell)
        positions = constellation.positions_ecef(123.0)
        radii = np.linalg.norm(positions, axis=1)
        assert np.allclose(radii, constellation.orbit_radius_km)
