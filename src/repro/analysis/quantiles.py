"""Shared quantile arithmetic: the one place percentiles are computed.

Two estimators cover every caller in the repo:

* :func:`sample_quantile` / :func:`sample_quantiles` — exact-sample linear
  interpolation (numpy's default "linear" method, a.k.a. Hyndman–Fan
  type 7), used wherever the raw samples are in hand: experiment sweeps,
  :class:`repro.analysis.stats.Cdf`, trace summaries;
* :func:`histogram_quantile` — the bucket-resolved estimate for
  fixed-bucket cumulative histograms (Prometheus semantics: the upper
  bound of the first bucket whose cumulative count reaches the rank),
  used by :class:`repro.obs.metrics.Histogram`, where only bucket counts
  survive aggregation.

Callers validate ``q`` themselves (their error taxonomies differ); these
helpers assume ``0 <= q <= 1`` and answer NaN for empty inputs, so "no
samples" renders as "n/a" instead of raising mid-report.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def sample_quantile(samples: Sequence[float] | np.ndarray, q: float) -> float:
    """Linear-interpolation quantile of a sample; NaN when it is empty."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        return math.nan
    return float(np.quantile(data, q))


def sample_quantiles(
    samples: Sequence[float] | np.ndarray, qs: Sequence[float]
) -> tuple[float, ...]:
    """Several quantiles of one sample in a single numpy pass."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        return tuple(math.nan for _ in qs)
    return tuple(float(v) for v in np.quantile(data, np.asarray(qs, dtype=float)))


def histogram_quantile(
    cumulative: Iterable[tuple[float, int]], count: int, q: float
) -> float:
    """Bucket-resolved quantile of a cumulative histogram.

    ``cumulative`` is ascending ``(upper bound, cumulative count)`` pairs
    ending at ``(+Inf, count)``; the answer is the upper bound of the first
    bucket whose cumulative count reaches rank ``q * count`` — the
    Prometheus-style estimate, biased up by at most one bucket width.
    NaN when the histogram is empty.
    """
    if count == 0:
        return math.nan
    rank = q * count
    for bound, running in cumulative:
        if running >= rank:
            return bound
    return math.inf  # pragma: no cover - cumulative always reaches count
