"""CDN substrate: content, cache policies, anycast site selection, geo-blocking."""

from repro.cdn.content import ContentObject, Catalog, build_catalog
from repro.cdn.cache import (
    CacheStats,
    Cache,
    LruCache,
    LfuCache,
    FifoCache,
    TtlCache,
)
from repro.cdn.anycast import nearest_site, best_site_by_latency
from repro.cdn.geoblock import GeoBlockPolicy, BlockDecision

__all__ = [
    "ContentObject",
    "Catalog",
    "build_catalog",
    "CacheStats",
    "Cache",
    "LruCache",
    "LfuCache",
    "FifoCache",
    "TtlCache",
    "nearest_site",
    "best_site_by_latency",
    "GeoBlockPolicy",
    "BlockDecision",
]
