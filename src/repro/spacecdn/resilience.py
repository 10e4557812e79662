"""Failure resilience: what satellite losses do to SpaceCDN reachability.

LEO satellites fail, deorbit, and duty-cycle out for thermal reasons; a
placement must survive holes in the grid. :func:`fail_satellites` derives a
degraded snapshot (failed nodes and their ISLs masked out of the CSR core);
:func:`placement_under_failures` measures how the worst-case hop distance
to a replica degrades as the failure fraction grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, PlacementError
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph


def fail_satellites(
    snapshot: SnapshotGraph, failed: frozenset[int]
) -> SnapshotGraph:
    """A degraded sibling of a snapshot with the failed satellites removed.

    The original snapshot is untouched and the CSR arrays are shared:
    failures are a node mask, not a rebuild.
    """
    satellites = set(snapshot.satellite_nodes())
    unknown = failed - satellites
    if unknown:
        raise ConfigurationError(f"unknown satellites in failure set: {sorted(unknown)[:5]}")
    return replace(snapshot, failed=snapshot.failed | failed)


def random_failure_set(
    total_satellites: int, fraction: float, rng: np.random.Generator
) -> frozenset[int]:
    """A uniformly random failed-satellite set of the given fraction."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"failure fraction must be in [0, 1), got {fraction}")
    count = round(total_satellites * fraction)
    if count == 0:
        return frozenset()
    chosen = rng.choice(total_satellites, size=count, replace=False)
    return frozenset(int(i) for i in chosen)


@dataclass(frozen=True)
class ResilienceReport:
    """Reachability of a placement under one failure set."""

    failed_fraction: float
    surviving_replicas: int
    reachable_fraction: float
    """Fraction of surviving satellites that can still reach a replica."""
    worst_case_hops: int
    """Max hops to the nearest surviving replica (-1 if some satellite
    cannot reach any replica at all)."""
    mean_hops: float


def placement_under_failures(
    snapshot: SnapshotGraph,
    holders: frozenset[int],
    failed: frozenset[int],
) -> ResilienceReport:
    """Evaluate a replica placement on a degraded constellation."""
    if not holders:
        raise PlacementError("holders set is empty")
    degraded = fail_satellites(snapshot, failed)
    surviving_holders = holders - failed
    survivors = degraded.satellite_nodes()
    if not survivors:
        raise ConfigurationError("every satellite failed")

    if not surviving_holders:
        return ResilienceReport(
            failed_fraction=len(failed) / len(snapshot.satellite_nodes()),
            surviving_replicas=0,
            reachable_fraction=0.0,
            worst_case_hops=-1,
            mean_hops=float("inf"),
        )

    # Multi-source BFS from the surviving replicas over the masked core.
    hops = fastcore.nearest_hops(
        degraded.core, surviving_holders, degraded.active_mask
    )
    survivor_hops = hops[np.asarray(survivors, dtype=np.int64)]
    reachable = survivor_hops != fastcore.HOP_UNREACHABLE
    hop_values = survivor_hops[reachable]
    unreachable = int((~reachable).sum())

    total = len(survivors)
    return ResilienceReport(
        failed_fraction=len(failed) / len(snapshot.satellite_nodes()),
        surviving_replicas=len(surviving_holders),
        reachable_fraction=(total - unreachable) / total,
        worst_case_hops=(-1 if unreachable else int(hop_values.max())),
        mean_hops=float(np.mean(hop_values)) if hop_values.size else float("inf"),
    )
