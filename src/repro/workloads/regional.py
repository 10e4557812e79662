"""Regional popularity and request mixing: what a city's users ask for.

Content interest is strongly local (the paper's Boca Juniors example): a
client mostly requests its own region's catalog, ranked by a per-region
Zipf popularity, with a small spill into global and foreign content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.content import Catalog
from repro.errors import ConfigurationError
from repro.geo.datasets.cities import City
from repro.simulation.sampler import WeightedIndex


@dataclass
class RegionalPopularity:
    """Zipf popularity per region over a shared catalog.

    Each region ranks its *own* region's objects (plus globals) highest;
    cross-region requests are rare. ``sample(region)`` draws one object id.
    Rankings and their draw CDFs are built once per region; the region
    list is rebuilt only when the catalog has grown (``Catalog.add`` is
    the only way it changes).
    """

    catalog: Catalog
    zipf_s: float = 0.9
    cross_region_fraction: float = 0.05
    seed: int = 0
    _rankings: dict[str, tuple[list[str], WeightedIndex]] = field(
        init=False, repr=False
    )
    _regions: list[str] = field(init=False, repr=False)
    _regions_size: int = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_region_fraction < 1.0:
            raise ConfigurationError("cross_region_fraction must be in [0, 1)")
        if self.zipf_s <= 0:
            raise ConfigurationError("zipf_s must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._rankings = {}
        self._regions_size = -1

    def _region_names(self) -> list[str]:
        """The cached sorted region list (shared: callers must not mutate)."""
        if len(self.catalog) != self._regions_size:
            self._regions = sorted(
                {o.region for o in self.catalog if o.region != "global"}
            )
            self._regions_size = len(self.catalog)
        return self._regions

    def regions(self) -> list[str]:
        """Every non-global region present in the catalog."""
        return list(self._region_names())

    def _ranking_for(self, region: str) -> tuple[list[str], WeightedIndex]:
        ranking = self._rankings.get(region)
        if ranking is None:
            if region not in self._region_names():
                raise ConfigurationError(f"no content for region {region!r}")
            local = [o.object_id for o in self.catalog.by_region(region)]
            # Deterministic per-region shuffle assigns ranks. Python's
            # built-in hash() is salted per process, so use a stable hash —
            # otherwise rankings would differ between runs.
            from repro.spacecdn.placement import _stable_hash

            order_rng = np.random.default_rng((_stable_hash(region), self.seed))
            order = order_rng.permutation(len(local))
            ranked = [local[i] for i in order]
            ranks = np.arange(1, len(ranked) + 1, dtype=float)
            weights = ranks**-self.zipf_s
            weights /= weights.sum()
            ranking = self._rankings[region] = (ranked, WeightedIndex(weights))
        return ranking

    def top_objects(self, region: str, count: int) -> list[str]:
        """The ``count`` most popular object ids for a region."""
        ranked, _ = self._ranking_for(region)
        return ranked[:count]

    def sample(self, region: str) -> str:
        """Draw one requested object id from a region's popularity."""
        if self._rng.random() < self.cross_region_fraction:
            others = [r for r in self._region_names() if r != region]
            if others:
                region = others[int(self._rng.integers(len(others)))]
        ranked, index = self._ranking_for(region)
        return ranked[index.draw(self._rng)]


def region_of_city(city: City) -> str:
    """The gazetteer region a city's content interest is affine to."""
    return city.country.region


@dataclass
class RegionalRequestMixer:
    """Draws object ids for clients in specific cities.

    Thin composition over :class:`RegionalPopularity`: the city fixes the
    home region, the popularity model handles rank skew and cross-region
    spill.
    """

    popularity: RegionalPopularity
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def sample_for_city(self, city: City) -> str:
        """One requested object id for a client in ``city``."""
        region = region_of_city(city)
        regions = self.popularity.regions()
        if region not in regions:
            # Fall back to any region with content rather than failing the
            # stream: the catalog may not model every gazetteer region.
            if not regions:
                raise ConfigurationError("catalog has no regional content")
            region = regions[int(self.rng.integers(len(regions)))]
        return self.popularity.sample(region)
