"""Constellation helpers of the SpaceCDN simulations (Figs. 7-8, chaos, overload).

Caches the Shell-1 constellation and its snapshots so the simulation
modules and the benchmark suite don't rebuild them repeatedly within one
process, and holds the pieces the two request-level sweeps (chaos,
overload) share: the shell choice, catalog, preload and request stream.
The measurement experiments (Table 1, Figs. 2-5, geo-blocking) never
import this module, so they load no topology, routing kernels or
workloads.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cdn.content import Catalog, build_catalog
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED
from repro.geo.datasets.cities import all_cities
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta
from repro.simulation.sampler import EpochSampler, seeded_rng
from repro.spacecdn.placement import KPerPlanePlacement
from repro.topology.graph import SnapshotGraph, build_snapshot
from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
from repro.workloads.requests import Request, RequestGenerator


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


# -- the request-level sweeps (chaos, overload) --------------------------------

SWEEP_CATALOG_REGIONS: tuple[str, ...] = ("africa", "europe")
"""Home regions of the sweeps' catalog and of the cities that request it."""

SWEEP_STREAM_DURATION_S = 300.0
"""Request streams span five snapshot slots, so faults, per-slot capacity
resets and breaker cooldowns interact with the rotating topology, not a
single frozen graph."""


def sweep_constellation(shell: str) -> Constellation:
    """The shell a sweep runs on: ``"shell1"`` or the ``"small"`` smoke shell."""
    if shell == "shell1":
        return shell1_constellation()
    if shell == "small":
        return small_constellation()
    raise ConfigurationError(f"unknown shell {shell!r}; choose 'shell1' or 'small'")


def sweep_catalog(
    seed: int, salt: int, constellation: Constellation
) -> tuple[Catalog, dict[str, frozenset[int]]]:
    """A sweep's 120-object web catalog (drawn from ``seeded_rng(seed,
    salt)``) and its preload: every region's top 10 objects, one copy per
    orbital plane."""
    catalog = build_catalog(
        seeded_rng(seed, salt),
        120,
        regions=SWEEP_CATALOG_REGIONS,
        kind_weights={"web": 1.0},
    )
    placement = KPerPlanePlacement(copies_per_plane=1)
    popular = RegionalPopularity(catalog=catalog, seed=seed)
    preload = {
        object_id: placement.place_object(object_id, constellation.config)
        for region in popular.regions()
        for object_id in popular.top_objects(region, 10)
    }
    return catalog, preload


def sweep_requests(
    catalog: Catalog,
    num_requests: int,
    seed: int,
    mixer_salt: int,
    stream_salt: int,
) -> list[Request]:
    """A time-ordered Poisson stream over the catalog's home regions.

    The object mix draws from ``seeded_rng(seed, mixer_salt)`` and the
    arrivals from ``seeded_rng(seed, stream_salt)``.
    """
    cities = tuple(
        c for c in all_cities() if c.country.region in SWEEP_CATALOG_REGIONS
    )
    if not cities:
        raise ConfigurationError("no cities in the catalog regions")
    mixer = RegionalRequestMixer(
        popularity=RegionalPopularity(catalog=catalog, seed=seed),
        rng=seeded_rng(seed, mixer_salt),
    )
    generator = RequestGenerator(
        cities=cities,
        mixer=mixer,
        requests_per_second_total=num_requests / SWEEP_STREAM_DURATION_S,
        rng=seeded_rng(seed, stream_salt),
    )
    return generator.generate_list(SWEEP_STREAM_DURATION_S)
