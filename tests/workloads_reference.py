"""A draw-for-draw reference for the request-level sweeps' workload setup.

The library draws every weighted categorical (catalog kinds, request
cities, regional object popularity) through
:class:`repro.simulation.sampler.WeightedIndex`, which builds each CDF once.
This module keeps the plain form those draws had before: one
``Generator.choice(n, p=weights)`` call per draw, the region list re-sorted
on every call. :func:`sweep_catalog` and :func:`sweep_requests` compose
them exactly as :mod:`repro.experiments.shells` does, so the tests can
check that both give equal catalogs, preloads and request streams.
"""

from __future__ import annotations

import numpy as np

from repro.cdn.content import _SIZE_MODELS, Catalog, ContentObject
from repro.experiments.shells import SWEEP_CATALOG_REGIONS, SWEEP_STREAM_DURATION_S
from repro.geo.datasets.cities import City, all_cities
from repro.orbits.walker import Constellation
from repro.simulation.sampler import seeded_rng
from repro.spacecdn.placement import KPerPlanePlacement, _stable_hash
from repro.workloads.requests import Request


def build_catalog(
    rng: np.random.Generator,
    num_objects: int,
    regions: tuple[str, ...] = ("global",),
    global_fraction: float = 0.3,
    kind_weights: dict[str, float] | None = None,
) -> Catalog:
    weights = kind_weights or {"web": 0.5, "image": 0.25, "video-segment": 0.15, "news": 0.1}
    kinds = list(weights)
    probs = np.array([weights[k] for k in kinds], dtype=float)
    probs /= probs.sum()
    catalog = Catalog()
    for i in range(num_objects):
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        median, sigma = _SIZE_MODELS[kind]
        size = max(1, int(rng.lognormal(np.log(median), sigma)))
        if rng.random() < global_fraction:
            region = "global"
        else:
            region = str(regions[int(rng.integers(len(regions)))])
        catalog.add(
            ContentObject(object_id=f"obj-{i:06d}", size_bytes=size, kind=kind, region=region)
        )
    return catalog


class RegionalPopularity:
    def __init__(
        self,
        catalog: Catalog,
        zipf_s: float = 0.9,
        cross_region_fraction: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.catalog = catalog
        self.zipf_s = zipf_s
        self.cross_region_fraction = cross_region_fraction
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._rankings: dict[str, tuple[list[str], np.ndarray]] = {}

    def regions(self) -> list[str]:
        return sorted({o.region for o in self.catalog if o.region != "global"})

    def _ranking_for(self, region: str) -> tuple[list[str], np.ndarray]:
        if region not in self._rankings:
            local = [o.object_id for o in self.catalog.by_region(region)]
            order_rng = np.random.default_rng((_stable_hash(region), self.seed))
            order = order_rng.permutation(len(local))
            ranked = [local[i] for i in order]
            ranks = np.arange(1, len(ranked) + 1, dtype=float)
            weights = ranks**-self.zipf_s
            weights /= weights.sum()
            self._rankings[region] = (ranked, weights)
        return self._rankings[region]

    def top_objects(self, region: str, count: int) -> list[str]:
        return self._ranking_for(region)[0][:count]

    def sample(self, region: str) -> str:
        if self._rng.random() < self.cross_region_fraction:
            others = [r for r in self.regions() if r != region]
            if others:
                region = others[int(self._rng.integers(len(others)))]
        ranked, weights = self._ranking_for(region)
        return ranked[int(self._rng.choice(len(ranked), p=weights))]


def sample_for_city(
    popularity: RegionalPopularity, rng: np.random.Generator, city: City
) -> str:
    region = city.country.region
    if region not in popularity.regions():
        regions = popularity.regions()
        region = regions[int(rng.integers(len(regions)))]
    return popularity.sample(region)


def generate(
    cities: tuple[City, ...],
    popularity: RegionalPopularity,
    mixer_rng: np.random.Generator,
    requests_per_second_total: float,
    rng: np.random.Generator,
    duration_s: float,
) -> list[Request]:
    weights = np.array([c.population_m for c in cities], dtype=float)
    weights /= weights.sum()
    requests = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / requests_per_second_total))
        if t >= duration_s:
            return requests
        city = cities[int(rng.choice(len(cities), p=weights))]
        requests.append(
            Request(t_s=t, city=city, object_id=sample_for_city(popularity, mixer_rng, city))
        )


def sweep_catalog(
    seed: int, salt: int, constellation: Constellation
) -> tuple[Catalog, dict[str, frozenset[int]]]:
    catalog = build_catalog(
        seeded_rng(seed, salt),
        120,
        regions=SWEEP_CATALOG_REGIONS,
        kind_weights={"web": 1.0},
    )
    placement = KPerPlanePlacement(copies_per_plane=1)
    popular = RegionalPopularity(catalog, seed=seed)
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
    cities = tuple(
        c for c in all_cities() if c.country.region in SWEEP_CATALOG_REGIONS
    )
    return generate(
        cities,
        RegionalPopularity(catalog, seed=seed),
        seeded_rng(seed, mixer_salt),
        num_requests / SWEEP_STREAM_DURATION_S,
        seeded_rng(seed, stream_salt),
        SWEEP_STREAM_DURATION_S,
    )
