"""Anycast site selection.

Anycast routes a client to the site with the shortest *network* path — which
for terrestrial clients correlates with geography, and for Starlink clients
correlates with the PoP's geography instead. The selector below is a pure
function over a latency oracle so the same code serves both populations.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.geo.datasets.cdn_sites import CdnSite


def best_site_by_latency(
    sites: Sequence[CdnSite],
    latency_fn: Callable[[CdnSite], float],
) -> tuple[CdnSite, float]:
    """The site minimising ``latency_fn`` and the achieved latency.

    ``latency_fn`` is typically the median of several sampled RTTs — the
    paper determines each city's "optimal" CDN the same way.
    """
    if not sites:
        raise ConfigurationError("empty CDN site list")
    best: CdnSite | None = None
    best_latency = float("inf")
    for site in sites:
        latency = latency_fn(site)
        if latency < 0:
            raise ConfigurationError(f"negative latency for site {site.name!r}")
        if latency < best_latency:
            best, best_latency = site, latency
    assert best is not None  # sites is non-empty
    return best, best_latency
