"""CDN substrate: content, the LRU cache, anycast site selection, geo-blocking."""

from repro.cdn.content import ContentObject, Catalog, build_catalog
from repro.cdn.cache import Cache, CacheStats
from repro.cdn.anycast import nearest_site, best_site_by_latency
from repro.cdn.geoblock import GeoBlockPolicy, BlockDecision

__all__ = [
    "ContentObject",
    "Catalog",
    "build_catalog",
    "CacheStats",
    "Cache",
    "nearest_site",
    "best_site_by_latency",
    "GeoBlockPolicy",
    "BlockDecision",
]
