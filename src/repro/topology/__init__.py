"""Constellation topology: ISL wiring, snapshot graphs, routing, ground segment.

A snapshot has one representation, the vectorised CSR core of
:mod:`repro.topology.fastcore`; the routing helpers are dict-returning
wrappers over its kernels.
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
from repro.topology.graph import (
    SnapshotGraph,
    build_snapshot,
    isl_latency_ms,
    access_latency_ms,
)
from repro.topology.routing import (
    hop_distances,
    latency_by_hop_count,
    min_latency_at_hops,
)
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
    "isl_latency_ms",
    "access_latency_ms",
    "hop_distances",
    "latency_by_hop_count",
    "min_latency_at_hops",
    "UserTerminal",
    "GroundStation",
    "PointOfPresence",
    "GroundSegment",
]
