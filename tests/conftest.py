"""Shared fixtures for the test suite.

Orbit/topology tests use a small 6x8 shell so graph algorithms stay
instantaneous; tests that must exercise Shell-1 geometry build it explicitly
(module-scoped, cached).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.content import Catalog, ContentObject
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.topology.graph import build_snapshot
from topology_reference import networkx_view


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_shell() -> ShellConfig:
    """A 6-plane x 8-satellite shell: big enough for routing, tiny to build."""
    return ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="test-shell",
    )


@pytest.fixture
def small_constellation(small_shell):
    return build_walker_delta(small_shell)


@pytest.fixture
def small_snapshot(small_constellation):
    return build_snapshot(small_constellation, t_s=0.0)


@pytest.fixture
def small_view(small_snapshot):
    """The ``networkx`` reference view of :func:`small_snapshot`."""
    return networkx_view(small_snapshot)


@pytest.fixture(scope="session")
def shell1():
    return starlink_shell1()


@pytest.fixture(scope="session")
def shell1_constellation(shell1):
    return build_walker_delta(shell1)


@pytest.fixture(scope="session")
def shell1_snapshot(shell1_constellation):
    return build_snapshot(shell1_constellation, t_s=0.0)


@pytest.fixture
def equator_point() -> GeoPoint:
    return GeoPoint(0.0, 0.0, 0.0)


@pytest.fixture
def small_catalog() -> Catalog:
    """A hand-built catalog with two regions plus global objects."""
    catalog = Catalog()
    for i in range(10):
        catalog.add(
            ContentObject(
                object_id=f"eu-{i}", size_bytes=1000 + i, kind="web", region="europe"
            )
        )
        catalog.add(
            ContentObject(
                object_id=f"af-{i}", size_bytes=2000 + i, kind="news", region="africa"
            )
        )
    for i in range(5):
        catalog.add(
            ContentObject(
                object_id=f"g-{i}", size_bytes=500 + i, kind="image", region="global"
            )
        )
    return catalog
