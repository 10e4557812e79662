#!/usr/bin/env python3
"""Quickstart: from constellation to SpaceCDN lookup in ~40 lines.

Builds Starlink Shell 1, places a content object with 4 replicas per orbital
plane, and compares the RTT of fetching it from the SpaceCDN against the RTT
the same user pays today (Starlink bent-pipe/ISL path to a ground CDN).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.geo.datasets.cdn_sites import cdn_site_by_name
from repro.geo.datasets.cities import city_by_name
from repro.network.bentpipe import StarlinkPathModel
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.lookup import SpaceCdnLookup
from repro.spacecdn.placement import KPerPlanePlacement
from repro.topology.graph import build_snapshot


def main() -> None:
    # 1. The space segment: Shell 1 (72 planes x 22 satellites, 550 km).
    shell = starlink_shell1()
    constellation = build_walker_delta(shell)
    snapshot = build_snapshot(constellation, t_s=0.0)
    print(f"constellation: {len(constellation)} satellites, "
          f"period {shell.period_s / 60:.1f} min")

    # 2. Place one object: 4 replicas per plane (the paper's §4 sizing).
    placement = KPerPlanePlacement(copies_per_plane=4)
    holders = placement.place_object("breaking-news-video", shell)
    print(f"placement: {len(holders)} replicas across {shell.num_planes} planes")

    # 3. A user in Maputo fetches it from space.
    maputo = city_by_name("Maputo")
    lookup = SpaceCdnLookup(snapshot=snapshot, max_hops=5)
    result = lookup.lookup_from_point(maputo.location, holders)
    space_rtt = 2 * result.one_way_ms + CDN_SERVER_THINK_TIME_MS
    print(f"SpaceCDN: served from satellite {result.serving_satellite} "
          f"({result.isl_hops} ISL hops), RTT {space_rtt:.1f} ms")

    # 4. The same user today: Starlink routes to Frankfurt first.
    model = StarlinkPathModel(rng=np.random.default_rng(0))
    path = model.resolve_path(maputo)
    frankfurt = cdn_site_by_name("Frankfurt")
    today_rtt = model.min_rtt_floor_ms(maputo, frankfurt.location, frankfurt.iso2)
    print(f"today:    exits at PoP {path.pop.name} over {path.isl_hops} ISL hops "
          f"({path.gateway_distance_km:.0f} km to gateway), "
          f"best-case RTT {today_rtt:.1f} ms")

    print(f"\nSpaceCDN cuts the RTT by "
          f"{(1.0 - space_rtt / today_rtt) * 100.0:.0f}% for this user.")


if __name__ == "__main__":
    main()
