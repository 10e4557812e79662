"""SpaceCDN: content delivery networks in the LEO satellite network era.

A reproduction of *"It's a bird? It's a plane? It's CDN!"* (Bose et al.,
HotNets '24): a Walker-constellation simulator with +Grid inter-satellite
links, calibrated Starlink and terrestrial path-latency models, a synthetic
Cloudflare-AIM measurement pipeline, a NetMet web-browsing model, and the
SpaceCDN system itself — on-satellite caching with hop-bounded ISL lookup,
duty cycling, fault injection and overload protection.

Constellation snapshots are immutable: one set of read-only CSR arrays per
instant, routed by vectorised kernels. The runtime needs only numpy; scipy,
when importable, accelerates the routing kernels.

Quickstart::

    from repro import starlink_shell1, build_walker_delta, build_snapshot
    from repro.spacecdn import SpaceCdnLookup, KPerPlanePlacement

    shell = starlink_shell1()
    constellation = build_walker_delta(shell)
    snapshot = build_snapshot(constellation, t_s=0.0)
    placement = KPerPlanePlacement(copies_per_plane=4)
    holders = placement.place_object("video-123", shell)
    lookup = SpaceCdnLookup(snapshot=snapshot, max_hops=5)

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/`` for
the per-table/figure reproduction harnesses.
"""

from repro.constants import orbital_period_s, orbital_speed_km_s
from repro.errors import (
    ReproError,
    ConfigurationError,
    GeodesyError,
    RoutingError,
    VisibilityError,
    CacheError,
    ContentNotFoundError,
    DatasetError,
    PlacementError,
)
from repro.geo.coordinates import GeoPoint, great_circle_km, slant_range_km
from repro.orbits.elements import ShellConfig, SatelliteId, starlink_shell1
from repro.orbits.walker import Constellation, build_walker_delta
from repro.topology.graph import SnapshotGraph, build_snapshot

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "orbital_period_s",
    "orbital_speed_km_s",
    "ReproError",
    "ConfigurationError",
    "GeodesyError",
    "RoutingError",
    "VisibilityError",
    "CacheError",
    "ContentNotFoundError",
    "DatasetError",
    "PlacementError",
    "GeoPoint",
    "great_circle_km",
    "slant_range_km",
    "ShellConfig",
    "SatelliteId",
    "starlink_shell1",
    "Constellation",
    "build_walker_delta",
    "SnapshotGraph",
    "build_snapshot",
]
