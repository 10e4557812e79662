"""SpaceCDN: CDN caches on LEO satellites (the paper's core proposal).

Content is fetched from the satellite directly overhead when cached there;
otherwise over inter-satellite links from the nearest caching satellite;
otherwise from a ground cache behind the gateway (paper Fig. 6).
"""

from repro.spacecdn.placement import (
    PlacementPlan,
    KPerPlanePlacement,
    RandomPlacement,
    spaced_slots,
    replica_hop_profile,
)
from repro.spacecdn.lookup import (
    SpaceCdnLookup,
    LookupResult,
    LookupSource,
)
from repro.spacecdn.dutycycle import DutyCycleScheduler, DutyCycleLatencyModel
from repro.spacecdn.system import SpaceCdnSystem, ServedRequest, SystemStats
from repro.spacecdn.resilience import (
    fail_satellites,
    random_failure_set,
    placement_under_failures,
    ResilienceReport,
)

__all__ = [
    "PlacementPlan",
    "KPerPlanePlacement",
    "RandomPlacement",
    "spaced_slots",
    "replica_hop_profile",
    "SpaceCdnLookup",
    "LookupResult",
    "LookupSource",
    "DutyCycleScheduler",
    "DutyCycleLatencyModel",
    "SpaceCdnSystem",
    "ServedRequest",
    "SystemStats",
    "fail_satellites",
    "random_failure_set",
    "placement_under_failures",
    "ResilienceReport",
]
