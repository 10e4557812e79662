"""Constellation topology: ISL wiring, snapshot graphs, routing, ground segment.

A snapshot has one representation, the vectorised CSR core of
:mod:`repro.topology.fastcore`; every routing query calls its kernels
directly.
"""

from repro.topology.isl import (
    IslLink,
    plus_grid_links,
    links_for_satellite,
    nearest_cross_plane_offset,
)
from repro.topology.fastcore import (
    CsrSnapshot,
    CsrTopology,
    build_core,
    csr_topology,
    hop_distances_batch,
    hop_ladder_batch,
    latency_batch,
    nearest_hops,
)
from repro.topology.graph import SnapshotGraph, build_snapshot
from repro.topology.ground import (
    UserTerminal,
    GroundStation,
    PointOfPresence,
    GroundSegment,
)

__all__ = [
    "IslLink",
    "plus_grid_links",
    "links_for_satellite",
    "nearest_cross_plane_offset",
    "CsrSnapshot",
    "CsrTopology",
    "build_core",
    "csr_topology",
    "hop_distances_batch",
    "hop_ladder_batch",
    "latency_batch",
    "nearest_hops",
    "SnapshotGraph",
    "build_snapshot",
    "UserTerminal",
    "GroundStation",
    "PointOfPresence",
    "GroundSegment",
]
