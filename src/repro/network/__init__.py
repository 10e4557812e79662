"""Network path-latency models: access links, bent-pipe, terrestrial paths."""

from repro.network.latency import (
    propagation_ms,
    fiber_path_ms,
    circuity_for_tier,
    estimate_router_hops,
    LatencyNoise,
)
from repro.network.access import (
    slant_range_for_elevation_km,
    sample_elevation_deg,
    sample_access_one_way_ms,
)
from repro.network.terrestrial import TerrestrialPathModel
from repro.network.throughput import (
    mathis_throughput_mbps,
    effective_download_mbps,
    ThroughputProfile,
    starlink_profile,
    terrestrial_profile,
)
from repro.network.bentpipe import StarlinkPathModel, StarlinkModelParams, StarlinkPath

__all__ = [
    "propagation_ms",
    "fiber_path_ms",
    "circuity_for_tier",
    "estimate_router_hops",
    "LatencyNoise",
    "slant_range_for_elevation_km",
    "sample_elevation_deg",
    "sample_access_one_way_ms",
    "TerrestrialPathModel",
    "mathis_throughput_mbps",
    "effective_download_mbps",
    "ThroughputProfile",
    "starlink_profile",
    "terrestrial_profile",
    "StarlinkPathModel",
    "StarlinkModelParams",
    "StarlinkPath",
]
