"""Analysis helpers: distributions, summaries, table rendering."""

from repro.analysis.stats import (
    Cdf,
    summarize,
    DistributionSummary,
    median_or_nan,
    delta_by_group,
)
from repro.analysis.tables import format_table, format_cdf_points

__all__ = [
    "Cdf",
    "summarize",
    "DistributionSummary",
    "median_or_nan",
    "delta_by_group",
    "format_table",
    "format_cdf_points",
]
