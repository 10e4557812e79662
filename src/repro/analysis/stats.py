"""Distribution statistics used by every experiment.

The paper reports medians, CDFs and per-country deltas; these helpers keep
that arithmetic in one tested place. The quantile arithmetic itself lives
in :mod:`repro.analysis.quantiles`; this module adds the sample-validation and reporting shapes around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.quantiles import sample_quantile, sample_quantiles
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary of a latency sample."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float
    mean: float


def summarize(samples: list[float] | np.ndarray) -> DistributionSummary:
    """Summary statistics of a non-empty sample."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    p25, median, p75, p95 = sample_quantiles(data, (0.25, 0.50, 0.75, 0.95))
    return DistributionSummary(
        count=int(data.size),
        minimum=float(data.min()),
        p25=p25,
        median=median,
        p75=p75,
        p95=p95,
        maximum=float(data.max()),
        mean=float(data.mean()),
    )


def median_or_nan(samples: list[float]) -> float:
    """Median of a sample, or NaN when the sample is empty."""
    if not samples:
        return math.nan
    return sample_quantile(samples, 0.5)


@dataclass
class Cdf:
    """Empirical cumulative distribution of a sample."""

    sorted_values: np.ndarray

    @staticmethod
    def from_samples(samples: list[float] | np.ndarray) -> "Cdf":
        data = np.asarray(samples, dtype=float)
        if data.size == 0:
            raise ConfigurationError("cannot build a CDF from an empty sample")
        return Cdf(sorted_values=np.sort(data))

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self.sorted_values, x, side="right")) / len(
            self.sorted_values
        )

    def quantile(self, q: float) -> float:
        """The q-quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        return sample_quantile(self.sorted_values, q)

    def points(self, num: int = 50) -> list[tuple[float, float]]:
        """``num`` evenly spaced (value, cumulative-probability) points."""
        if num < 2:
            raise ConfigurationError("need at least two points")
        qs = np.linspace(0.0, 1.0, num)
        values = sample_quantiles(self.sorted_values, qs)
        return [(value, float(q)) for value, q in zip(values, qs)]

    def __len__(self) -> int:
        return len(self.sorted_values)


def delta_by_group(
    group_a: dict[str, list[float]], group_b: dict[str, list[float]]
) -> dict[str, float]:
    """Median(A) - median(B) per key, over keys present (non-empty) in both.

    This is the paper's Fig. 2 arithmetic with A = Starlink, B = terrestrial.
    """
    deltas: dict[str, float] = {}
    for key in group_a.keys() & group_b.keys():
        a, b = group_a[key], group_b[key]
        if a and b:
            deltas[key] = median_or_nan(a) - median_or_nan(b)
    return deltas
