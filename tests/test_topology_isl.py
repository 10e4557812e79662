"""Tests for +Grid ISL wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.topology.isl import (
    IslLink,
    nearest_cross_plane_offset,
    plus_grid_links,
)


class TestIslLink:
    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            IslLink(3, 3, "intra-plane")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            IslLink(1, 2, "diagonal")


class TestPlusGrid:
    def test_link_count(self, small_shell):
        # 2 links per satellite in a P>2, S>2 grid.
        links = plus_grid_links(small_shell)
        assert len(links) == 2 * small_shell.total_satellites

    def test_every_satellite_has_degree_four(self, small_shell):
        degree = {i: 0 for i in range(small_shell.total_satellites)}
        for link in plus_grid_links(small_shell):
            degree[link.a] += 1
            degree[link.b] += 1
        assert set(degree.values()) == {4}

    def test_no_duplicate_links(self, small_shell):
        endpoints = [
            (min(link.a, link.b), max(link.a, link.b))
            for link in plus_grid_links(small_shell)
        ]
        assert len(endpoints) == len(set(endpoints))

    def test_kind_split(self, small_shell):
        links = plus_grid_links(small_shell)
        intra = [l for l in links if l.kind == "intra-plane"]
        cross = [l for l in links if l.kind == "cross-plane"]
        assert len(intra) == small_shell.total_satellites
        assert len(cross) == small_shell.total_satellites

    def test_intra_plane_links_stay_in_plane(self, small_shell):
        per = small_shell.sats_per_plane
        for link in plus_grid_links(small_shell):
            if link.kind == "intra-plane":
                assert link.a // per == link.b // per

    def test_cross_plane_links_adjacent_planes(self, small_shell):
        per = small_shell.sats_per_plane
        planes = small_shell.num_planes
        for link in plus_grid_links(small_shell):
            if link.kind == "cross-plane":
                dp = (link.b // per - link.a // per) % planes
                assert dp in (1, planes - 1)

    def test_shell1_link_count(self):
        assert len(plus_grid_links(starlink_shell1())) == 2 * 1584


class TestNearestCrossPlaneOffset:
    def test_offset_in_range(self):
        shell = starlink_shell1()
        offset = nearest_cross_plane_offset(shell)
        assert 0 <= offset < shell.sats_per_plane

    def test_single_plane_offset_zero(self):
        shell = ShellConfig(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=1,
            sats_per_plane=8,
            name="single",
        )
        assert nearest_cross_plane_offset(shell) == 0

    def test_offset_actually_minimises_distance(self):
        # The wired neighbour must be no farther than the same-slot one.
        from repro.orbits.walker import build_walker_delta

        shell = starlink_shell1()
        constellation = build_walker_delta(shell)
        positions = constellation.positions_ecef(0.0)
        offset = nearest_cross_plane_offset(shell)
        per = shell.sats_per_plane
        wired = np.linalg.norm(positions[per + offset] - positions[0])
        same_slot = np.linalg.norm(positions[per] - positions[0])
        assert wired <= same_slot

    def test_offset_is_brute_force_argmin(self):
        from repro.orbits.walker import build_walker_delta

        shell = ShellConfig(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=6,
            sats_per_plane=8,
            phase_offset=0,
            name="no-phase",
        )
        constellation = build_walker_delta(shell)
        positions = constellation.positions_ecef(0.0)
        per = shell.sats_per_plane
        distances = [
            float(np.linalg.norm(positions[per + off] - positions[0]))
            for off in range(per)
        ]
        assert nearest_cross_plane_offset(shell) == distances.index(min(distances))

