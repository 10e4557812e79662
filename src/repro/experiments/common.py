"""Shared experiment infrastructure.

Caches the expensive shared artifacts (the synthetic AIM dataset, Shell-1
snapshots) so the per-figure modules and the benchmark suite don't rebuild
them repeatedly within one process.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import DatasetError
from repro.geo.datasets import all_cities
from repro.measurements.aim import AimDataset, AimGenerator
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta
from repro.simulation.sampler import EpochSampler
from repro.topology.graph import SnapshotGraph, build_snapshot

DEFAULT_SEED = 7
DEFAULT_TESTS_PER_CITY = 30


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


@lru_cache(maxsize=4)
def aim_dataset(
    seed: int = DEFAULT_SEED, tests_per_city: int = DEFAULT_TESTS_PER_CITY
) -> AimDataset:
    """The cached synthetic AIM dataset."""
    return AimGenerator(seed=seed).generate(tests_per_city=tests_per_city)


@lru_cache(maxsize=256)
def country_aim_dataset(
    iso2: str,
    seed: int = DEFAULT_SEED,
    tests_per_city: int = DEFAULT_TESTS_PER_CITY,
) -> AimDataset:
    """One country's AIM batch, independent of every other country.

    The sharded runner generates the dataset per-country so each shard is a
    pure function of (seed, country); the noise streams therefore differ
    from the sequential full-gazetteer :func:`aim_dataset` pass, which the
    monolithic experiments keep using unchanged.
    """
    cities = tuple(c for c in all_cities() if c.iso2 == iso2)
    if not cities:
        raise DatasetError(f"no gazetteer city in {iso2}")
    return AimGenerator(seed=seed).generate(
        tests_per_city=tests_per_city, cities=cities
    )


def gazetteer_countries() -> tuple[str, ...]:
    """Every country with at least one gazetteer city, sorted by ISO code."""
    return tuple(sorted({c.iso2 for c in all_cities()}))


def shell1_epochs(num_epochs: int, seed: int = DEFAULT_SEED) -> list[float]:
    """Stratified epochs over one Shell-1 orbital period."""
    sampler = EpochSampler(
        period_s=starlink_shell1().period_s, num_epochs=num_epochs, seed=seed
    )
    return sampler.epochs()
