"""Constellation helpers of the SpaceCDN simulations (Figs. 7-8, chaos, overload).

Caches the Shell-1 and smoke-shell constellations and the Shell-1
snapshots so the simulation modules and the benchmark suite don't rebuild
them repeatedly within one process. The measurement experiments (Table 1,
Figs. 2-5, geo-blocking) never import this module, so they load no
topology or routing kernels. The request-level sweeps' catalog, request
stream and serve walk live in :mod:`repro.experiments.sweep`, so Figs. 7-8
load none of them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.experiments.common import DEFAULT_SEED
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta
from repro.simulation.sampler import EpochSampler
from repro.topology.graph import SnapshotGraph, build_snapshot


@lru_cache(maxsize=2)
def shell1_constellation() -> Constellation:
    """The Starlink Shell 1 constellation (72 x 22 at 550 km)."""
    return build_walker_delta(starlink_shell1())


@lru_cache(maxsize=2)
def small_constellation() -> Constellation:
    """A 6 x 8 shell for smoke-mode experiment runs (CI, examples).

    Same altitude/inclination as Shell 1 so the geometry is representative,
    but 48 satellites instead of 1584 keeps chaos sweeps near-instant.
    """
    return build_walker_delta(
        ShellConfig(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=6,
            sats_per_plane=8,
            phase_offset=3,
            name="smoke-shell",
        )
    )


@lru_cache(maxsize=16)
def shell1_snapshot(t_s: float) -> SnapshotGraph:
    """The ISL snapshot of Shell 1 at time ``t_s``, cached per epoch.

    Every caller shares the one cached instance: snapshots are immutable.
    """
    return build_snapshot(shell1_constellation(), t_s)


def shell1_epochs(num_epochs: int, seed: int = DEFAULT_SEED) -> list[float]:
    """Stratified epochs over one Shell-1 orbital period."""
    sampler = EpochSampler(
        period_s=starlink_shell1().period_s, num_epochs=num_epochs, seed=seed
    )
    return sampler.epochs()
