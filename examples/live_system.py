#!/usr/bin/env python3
"""Run the full SpaceCDN system under live traffic.

Ten simulated minutes of Zipf-distributed, regionally skewed requests from
five cities in underserved regions hit a Shell-1 fleet whose satellites
each carry a real byte-bounded cache. The operator preloads each region's
head content; everything else arrives by pull-through as misses return
from the ground.

Run:  python examples/live_system.py
"""

import numpy as np

from repro.analysis.stats import summarize
from repro.cdn.content import build_catalog
from repro.geo.datasets.cities import city_by_name
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.system import SpaceCdnSystem
from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
from repro.workloads.requests import RequestGenerator

CITIES = ("Maputo", "Nairobi", "Lagos", "Sao Paulo", "Jakarta")


def main() -> None:
    shell = starlink_shell1()
    catalog = build_catalog(
        np.random.default_rng(0),
        300,
        regions=("africa", "south-america", "asia"),
        global_fraction=0.2,
        kind_weights={"web": 0.6, "news": 0.4},
    )
    system = SpaceCdnSystem(
        constellation=build_walker_delta(shell),
        catalog=catalog,
        cache_bytes_per_satellite=8_000_000,
        max_hops=5,
    )

    popularity = RegionalPopularity(catalog=catalog, seed=1)
    placement = KPerPlanePlacement(copies_per_plane=2)
    preload = {
        object_id: placement.place_object(object_id, shell)
        for region in popularity.regions()
        for object_id in popularity.top_objects(region, 10)
    }
    stored = system.preload(preload)
    print(f"preloaded {len(preload)} head objects ({stored} replica stores)")

    mixer = RegionalRequestMixer(popularity=popularity, rng=np.random.default_rng(2))
    generator = RequestGenerator(
        cities=tuple(city_by_name(c) for c in CITIES),
        mixer=mixer,
        requests_per_second_total=1.5,
        rng=np.random.default_rng(3),
    )
    requests = generator.generate_list(600.0)
    system.run(requests)

    stats = system.stats
    summary = summarize(stats.rtt_samples_ms)
    print(f"\nserved {stats.requests} requests over 10 simulated minutes:")
    print(f"  access-satellite hits: {stats.access_hits}")
    print(f"  direct-visible hits:   {stats.direct_hits}")
    print(f"  ISL-neighbour hits:    {stats.isl_hits}")
    print(f"  ground fetches:        {stats.ground_fetches}")
    print(f"  space hit ratio:       {stats.space_hit_ratio:.2f}")
    print(f"  RTT p25/median/p95:    {summary.p25:.1f} / {summary.median:.1f} / "
          f"{summary.p95:.1f} ms (ground fallback would be 140 ms flat)")


if __name__ == "__main__":
    main()
