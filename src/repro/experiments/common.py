"""Shared experiment infrastructure: defaults, AIM datasets, sweep merges.

Caches the synthetic AIM datasets so the per-figure modules and the
benchmark suite don't rebuild them repeatedly within one process, and holds
the merge of raw sweep points that chaos and overload share. Constellation
helpers live in :mod:`repro.experiments.shells`; this module imports no
topology, so the measurement experiments load none.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.quantiles import sample_quantiles
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
