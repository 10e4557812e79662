"""SpaceCDN: CDN caches on LEO satellites (the paper's core proposal).

Content is fetched from the satellite directly overhead when cached there;
otherwise over inter-satellite links from the nearest caching satellite;
otherwise from a ground cache behind the gateway (paper Fig. 6).
"""
