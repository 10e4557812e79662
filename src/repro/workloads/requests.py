"""Timestamped request streams.

A :class:`RequestGenerator` produces Poisson-arrival request streams per
city, suitable for driving cache simulations and the SpaceCDN lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.datasets.cities import City
from repro.simulation.sampler import WeightedIndex
from repro.workloads.regional import RegionalRequestMixer


@dataclass(frozen=True)
class Request:
    """One content request from one city at one simulated instant."""

    t_s: float
    city: City
    object_id: str


@dataclass
class RequestGenerator:
    """Poisson request streams over a set of cities.

    Per-city arrival rates are proportional to population; object choice
    delegates to the regional mixer.
    """

    cities: tuple[City, ...]
    mixer: RegionalRequestMixer
    requests_per_second_total: float = 10.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        if not self.cities:
            raise ConfigurationError("need at least one city")
        if self.requests_per_second_total <= 0:
            raise ConfigurationError("total request rate must be positive")

    def _city_weights(self) -> np.ndarray:
        weights = np.array([c.population_m for c in self.cities], dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ConfigurationError("city population weights sum to zero")
        return weights / total

    def generate(self, duration_s: float) -> Iterator[Request]:
        """Yield requests over ``[0, duration_s)`` in time order."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        city_index = WeightedIndex(self._city_weights())
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / self.requests_per_second_total))
            if t >= duration_s:
                return
            city = self.cities[city_index.draw(self.rng)]
            yield Request(
                t_s=t, city=city, object_id=self.mixer.sample_for_city(city)
            )

    def generate_list(self, duration_s: float) -> list[Request]:
        """Materialised form of :meth:`generate`."""
        return list(self.generate(duration_s))
