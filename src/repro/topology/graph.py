"""Time-snapshot network graphs over the constellation.

A :class:`SnapshotGraph` freezes the constellation at one instant: satellite
nodes connected by +Grid ISLs weighted with one-way latency (speed-of-light
propagation over the current link length, plus optical-terminal switching),
with every satellite a node indexed by its constellation index; the link
weights come from :func:`repro.topology.fastcore.link_weights`.

The topology lives in flat CSR arrays (see :mod:`repro.topology.fastcore`)
computed in one vectorised gather per snapshot; every routing query runs on
them. Ground terminals never join the graph: callers price the access link
with :func:`repro.network.access.access_latency_ms` and route from the
access satellite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.orbits.walker import Constellation
from repro.topology.fastcore import CsrSnapshot, csr_topology, link_weights


@dataclass(frozen=True)
class SnapshotGraph:
    """The constellation graph at a single instant.

    ``core`` holds the CSR satellite topology with this instant's link
    weights (one-way latencies in milliseconds); ``failed`` marks satellites
    removed from service (their ISLs carry nothing and they serve nothing).
    Snapshots are immutable — fields cannot be reassigned and the position
    and link-weight arrays are read-only — so a cached snapshot can be
    handed to any number of callers. Degraded variants are new snapshots
    (:func:`repro.spacecdn.resilience.fail_satellites`).
    """

    constellation: Constellation
    t_s: float
    positions: np.ndarray
    core: CsrSnapshot
    failed: frozenset[int] = frozenset()

    @property
    def active_mask(self) -> np.ndarray | None:
        """Boolean per-satellite liveness mask (``None`` when nothing failed)."""
        if not self.failed:
            return None
        mask = np.ones(self.core.num_nodes, dtype=bool)
        mask[list(self.failed)] = False
        return mask

    def satellite_nodes(self) -> list[int]:
        """All live satellite node indices."""
        return [i for i in range(self.core.num_nodes) if i not in self.failed]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_snapshot(constellation: Constellation, t_s: float) -> SnapshotGraph:
    """Build the ISL snapshot of the constellation at time ``t_s``.

    All link distances come from one vectorised gather over the endpoint
    positions; the positions (read-only from
    :meth:`~repro.orbits.walker.Constellation.positions_ecef`) and link
    weights are frozen.
    """
    positions = constellation.positions_ecef(t_s)
    topology = csr_topology(constellation.config)
    distances, latencies = link_weights(topology, positions)
    core = CsrSnapshot(
        topology=topology,
        link_distance_km=_read_only(distances),
        link_latency_ms=_read_only(latencies),
    )
    return SnapshotGraph(
        constellation=constellation, t_s=t_s, positions=positions, core=core
    )
