"""Sampling helpers for the constellation experiments.

Figures 7 and 8 average over constellation geometry: latencies are sampled
at several *epochs* (constellation rotations) and several user locations.
Everything is derived from one experiment seed for reproducibility.
:class:`WeightedIndex` is the one weighted categorical draw (catalog kinds,
request cities, regional object popularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """A numpy Generator for the (seed, stream...) tuple.

    Distinct streams derived from one experiment seed stay independent, so
    adding a sampling site never perturbs existing ones.
    """
    return np.random.default_rng((seed, *stream))


_PROBABILITY_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
"""How far ``p`` may sum from 1: ``Generator.choice``'s own tolerance."""


class WeightedIndex:
    """Weighted index draws from a CDF built once.

    ``WeightedIndex(p).draw(rng)`` draws the index numpy's
    ``Generator.choice`` draws over ``len(p)`` items with probabilities
    ``p``, and leaves ``rng`` in the same state: it builds the CDF the way
    ``choice`` does (``cdf = p.cumsum(); cdf /= cdf[-1]``) and each draw
    consumes the single ``random()`` double ``choice`` would. Only the
    per-call validation and CDF build are gone, so a caller drawing many
    times holds one of these.
    """

    __slots__ = ("_cdf",)

    def __init__(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ConfigurationError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ConfigurationError("weights must be finite and non-negative")
        if abs(float(p.sum()) - 1.0) > _PROBABILITY_ATOL:
            raise ConfigurationError("weights must sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def draw(self, rng: np.random.Generator) -> int:
        """One index in ``[0, len(p))``, drawn with probability ``p``."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))


@dataclass
class EpochSampler:
    """Draws simulation epochs spread over one orbital period."""

    period_s: float
    num_epochs: int
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError("period must be positive")
        if self.num_epochs < 1:
            raise ConfigurationError("need at least one epoch")
        self._rng = seeded_rng(self.seed, 0xE70C)

    def epochs(self) -> list[float]:
        """Stratified random epochs: one uniform draw per period stratum."""
        stratum = self.period_s / self.num_epochs
        return [
            float(i * stratum + self._rng.uniform(0.0, stratum))
            for i in range(self.num_epochs)
        ]


def user_sample_points(
    rng: np.random.Generator,
    count: int,
    max_abs_latitude_deg: float = 53.0,
) -> list[GeoPoint]:
    """Random user locations, area-uniform within the served latitude band.

    Shell 1's 53 deg inclination bounds where service exists; sampling is
    uniform over the sphere's area within the band (uniform in sin(lat)).
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if not 0 < max_abs_latitude_deg <= 90:
        raise ConfigurationError("max latitude must be in (0, 90]")
    sin_max = np.sin(np.radians(max_abs_latitude_deg))
    sin_lat = rng.uniform(-sin_max, sin_max, size=count)
    lats = np.degrees(np.arcsin(sin_lat))
    lons = rng.uniform(-180.0, 180.0, size=count)
    return [GeoPoint(float(lat), float(lon), 0.0) for lat, lon in zip(lats, lons)]
