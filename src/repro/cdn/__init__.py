"""CDN substrate: content, the LRU cache, anycast site selection, geo-blocking."""
