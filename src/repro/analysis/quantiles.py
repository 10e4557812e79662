"""Shared quantile arithmetic: the one place percentiles are computed.

:func:`sample_quantile` / :func:`sample_quantiles` are exact-sample linear
interpolation (numpy's default "linear" method, a.k.a. Hyndman–Fan type
7), used wherever the raw samples are in hand: experiment sweeps and
:class:`repro.analysis.stats.Cdf`.

Callers validate ``q`` themselves (their error taxonomies differ); these
helpers assume ``0 <= q <= 1`` and answer NaN for empty inputs, so "no
samples" renders as "n/a" instead of raising mid-report.
"""

from __future__ import annotations

import math
from typing import Sequence

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

