"""Shared experiment infrastructure: defaults and AIM datasets.

Caches the synthetic AIM datasets so the per-figure modules and the
benchmark suite don't rebuild them repeatedly within one process.
Constellation helpers live in :mod:`repro.experiments.shells` and the
request-level sweep scaffold in :mod:`repro.experiments.sweep`; this
module imports no topology, so the measurement experiments load none.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import DatasetError
from repro.geo.datasets.cities import all_cities
from repro.measurements.aim import AimDataset, AimGenerator

DEFAULT_SEED = 7
DEFAULT_TESTS_PER_CITY = 30


@lru_cache(maxsize=4)
def aim_dataset(
    seed: int = DEFAULT_SEED, tests_per_city: int = DEFAULT_TESTS_PER_CITY
) -> AimDataset:
    """The cached synthetic AIM dataset: one sequential full-gazetteer pass
    (the Fig. 7/8 ``aim`` baseline shards)."""
    return AimGenerator(seed=seed).generate(tests_per_city=tests_per_city)


@lru_cache(maxsize=256)
def country_aim_dataset(
    iso2: str,
    seed: int = DEFAULT_SEED,
    tests_per_city: int = DEFAULT_TESTS_PER_CITY,
) -> AimDataset:
    """One country's AIM batch, independent of every other country.

    Table 1 and Fig. 2 shard per country, so each shard is a pure function
    of (seed, country); the noise streams therefore differ from the
    sequential full-gazetteer :func:`aim_dataset` pass, which only the
    Fig. 7/8 ``aim`` baseline shards still use.
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
