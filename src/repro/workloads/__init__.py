"""Workload generation: popularity distributions and request streams."""

from repro.workloads.regional import (
    RegionalPopularity,
    RegionalRequestMixer,
    region_of_city,
)
from repro.workloads.requests import Request, RequestGenerator

__all__ = [
    "RegionalPopularity",
    "region_of_city",
    "RegionalRequestMixer",
    "Request",
    "RequestGenerator",
]
