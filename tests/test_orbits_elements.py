"""Tests for shell configuration and shell presets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import (
    ShellConfig,
    oneweb_phase1,
    starlink_shell1,
    starlink_shell3,
    starlink_vleo,
)
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.lookup import LookupSource, SpaceCdnLookup
from repro.topology.graph import build_snapshot
from repro.topology.isl import plus_grid_links
from topology_reference import shell_presets


class TestShellConfig:
    def test_starlink_shell1_matches_paper(self):
        shell = starlink_shell1()
        assert shell.num_planes == 72
        assert shell.sats_per_plane == 22
        assert shell.total_satellites == 1584
        assert shell.altitude_km == 550.0
        assert shell.inclination_deg == 53.0

    def test_period_is_about_95_minutes(self):
        # The paper: satellites "revisit a location roughly every 90 minutes".
        assert 90 * 60 < starlink_shell1().period_s < 100 * 60

    def test_spacings(self):
        shell = starlink_shell1()
        assert shell.raan_spacing_deg == pytest.approx(5.0)
        assert shell.in_plane_spacing_deg == pytest.approx(360.0 / 22)

    def test_inter_plane_phase(self):
        shell = starlink_shell1()
        assert shell.inter_plane_phase_deg == pytest.approx(39 * 360.0 / 1584)

    def test_in_plane_neighbor_distance(self):
        positions = build_walker_delta(starlink_shell1()).positions_ecef(0.0)
        # 22 satellites around a 6921 km-radius orbit: chord ~1966 km.
        chord = np.linalg.norm(positions[1] - positions[0])
        assert chord == pytest.approx(1966, rel=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"altitude_km": 0.0},
            {"altitude_km": -10.0},
            {"inclination_deg": 0.0},
            {"inclination_deg": 181.0},
            {"num_planes": 0},
            {"sats_per_plane": 0},
            {"phase_offset": 48},  # >= total for the small config below
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=6,
            sats_per_plane=8,
            phase_offset=0,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ShellConfig(**base)


class TestShellPresets:
    def test_all_presets_valid(self):
        presets = shell_presets()
        assert len(presets) == 4
        names = {p.name for p in presets}
        assert len(names) == 4
        for preset in presets:
            assert preset.total_satellites > 500

    def test_oneweb_has_no_isls(self):
        shell = oneweb_phase1()
        assert not shell.isl_capable
        assert plus_grid_links(shell) == ()

    def test_oneweb_spacecdn_only_serves_overhead(self):
        """Without ISLs, a lookup can only hit the access satellite."""
        constellation = build_walker_delta(oneweb_phase1())
        snapshot = build_snapshot(constellation, 0.0)
        lookup = SpaceCdnLookup(snapshot=snapshot, max_hops=10)
        user = GeoPoint(0.0, 0.0)
        everywhere = frozenset(range(len(constellation)))
        hit = lookup.lookup_from_point(user, everywhere)
        assert hit.source is LookupSource.ACCESS_SATELLITE
        # Content on any OTHER satellite is unreachable in space.
        other = frozenset({(hit.access_satellite + 1) % len(constellation)})
        miss = lookup.lookup_from_point(user, other)
        assert miss.source is LookupSource.GROUND

    def test_vleo_lower_than_shell1(self):
        assert starlink_vleo().altitude_km < starlink_shell1().altitude_km

    def test_shell3_reaches_higher_latitudes(self):
        constellation = build_walker_delta(starlink_shell3())
        x, y, z = constellation.positions_ecef(0.0).T
        lats = np.degrees(np.arctan2(z, np.hypot(x, y)))
        assert abs(lats).max() > 60.0
