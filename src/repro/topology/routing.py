"""Routing over snapshot graphs.

Two complementary views of "distance" coexist in the experiments:

* *latency* — Dijkstra over one-way edge latencies, used for end-to-end RTTs;
* *ISL hop count* — unweighted BFS over satellite-satellite edges, used by
  the SpaceCDN lookup ("content found within n ISL hops", paper Fig. 7).

``latency_by_hop_count`` joins the two: the cheapest latency at which content
placed exactly n hops from the access satellite can be reached.

These are dict-returning wrappers over the vectorised CSR kernels
(:mod:`repro.topology.fastcore`). Per-query graph-library reference
traversals live with the tests (``tests/topology_reference.py``), which
pin the two against each other.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph


def _require_satellite(snapshot: SnapshotGraph, source: int) -> int:
    source = int(source)
    if not snapshot.has_satellite(source):
        raise RoutingError(f"unknown source satellite {source}")
    return source


def hop_distances(snapshot: SnapshotGraph, source: int) -> dict[int, int]:
    """BFS hop count from ``source`` to every satellite, over ISL edges only.

    A "hop" in the paper's Fig. 7 sense is an ISL traversal.
    """
    source = _require_satellite(snapshot, source)
    hops, _ = fastcore.single_source(snapshot.core, source, snapshot.active_mask)
    return {
        int(node): int(h)
        for node, h in enumerate(hops)
        if h != fastcore.HOP_UNREACHABLE
    }


def satellite_latencies(snapshot: SnapshotGraph, source: int) -> dict[int, float]:
    """Dijkstra one-way latency from ``source`` to every satellite (ISLs only)."""
    source = _require_satellite(snapshot, source)
    _, latencies = fastcore.single_source(snapshot.core, source, snapshot.active_mask)
    return {
        int(node): float(latency)
        for node, latency in enumerate(latencies)
        if np.isfinite(latency)
    }


def latency_by_hop_count(
    snapshot: SnapshotGraph, source: int, max_hops: int
) -> dict[int, float]:
    """For each hop count h <= max_hops, the minimum one-way latency from
    ``source`` to any satellite exactly h ISL hops away.

    Hop 0 maps to 0.0 ms (content on the access satellite itself).
    """
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    source = _require_satellite(snapshot, source)
    ladder = fastcore.hop_ladder_batch(
        snapshot.core, [source], max_hops, snapshot.active_mask
    )[0]
    return {h: float(v) for h, v in enumerate(ladder) if not np.isnan(v)}


def min_latency_at_hops(
    snapshot: SnapshotGraph, source: int, hop_count: int
) -> float:
    """Minimum one-way latency to reach any satellite exactly ``hop_count`` hops away."""
    table = latency_by_hop_count(snapshot, source, hop_count)
    if hop_count not in table:
        raise RoutingError(
            f"no satellite exactly {hop_count} hops from {source} in this snapshot"
        )
    return table[hop_count]

