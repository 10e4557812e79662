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

No package re-exports its modules' names, so a run loads only the modules
it uses. Import each name from the module that defines it::

    from repro.orbits.elements import starlink_shell1
    from repro.orbits.walker import build_walker_delta
    from repro.spacecdn.lookup import SpaceCdnLookup
    from repro.spacecdn.placement import KPerPlanePlacement
    from repro.topology.graph import build_snapshot

    shell = starlink_shell1()
    constellation = build_walker_delta(shell)
    snapshot = build_snapshot(constellation, t_s=0.0)
    placement = KPerPlanePlacement(copies_per_plane=4)
    holders = placement.place_object("video-123", shell)
    lookup = SpaceCdnLookup(snapshot=snapshot, max_hops=5)

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/`` for
the per-table/figure reproduction harnesses.
"""

__version__ = "1.0.0"
