"""Shared experiment infrastructure.

Caches the expensive shared artifacts (the synthetic AIM dataset, Shell-1
snapshots) so the per-figure modules and the benchmark suite don't rebuild
them repeatedly within one process, and holds the pieces the two
request-level sweeps (chaos, overload) share: the shell choice, catalog,
preload, request stream and the merge of raw sweep points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.quantiles import sample_quantiles
from repro.cdn.content import Catalog, build_catalog
from repro.errors import ConfigurationError, DatasetError
from repro.geo.datasets import all_cities
from repro.measurements.aim import AimDataset, AimGenerator
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta
from repro.simulation.sampler import EpochSampler, seeded_rng
from repro.spacecdn.placement import KPerPlanePlacement
from repro.topology.graph import SnapshotGraph, build_snapshot
from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
from repro.workloads.requests import Request, RequestGenerator

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


def p50_p99(samples: list[float]) -> tuple[float, float]:
    """The p50 and p99 of RTT samples (NaN for no samples)."""
    p50, p99 = sample_quantiles(samples, (0.5, 0.99))
    return p50, p99


def points_from_raw(raw_points: list[dict], point_cls: type) -> tuple:
    """Fold raw sweep points (in sweep order) into ``point_cls`` instances,
    computing p50/p99 inflation against the first non-NaN baseline."""
    points = []
    baseline_p50 = baseline_p99 = float("nan")
    for raw in raw_points:
        p50, p99 = raw["p50_rtt_ms"], raw["p99_rtt_ms"]
        if np.isnan(baseline_p50):
            baseline_p50, baseline_p99 = p50, p99
        points.append(
            point_cls(
                p50_inflation=p50 / baseline_p50 if baseline_p50 else float("nan"),
                p99_inflation=p99 / baseline_p99 if baseline_p99 else float("nan"),
                **raw,
            )
        )
    return tuple(points)
