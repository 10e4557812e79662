#!/usr/bin/env python3
"""The Maputo case study (paper §3.2, Fig. 3) as a runnable walkthrough.

Shows, for a client in Maputo, Mozambique:
  1. which CDN site each ISP class maps them to and at what median RTT;
  2. why — the resolved Starlink path exits at the Frankfurt PoP;
  3. the geo-blocking side effect: locally licensed content 403s over
     Starlink because the IP geolocates to Germany.

Run:  python examples/maputo_case_study.py
"""

from repro.cdn.geoblock import GeoBlockPolicy
from repro.experiments import figure3
from repro.geo.datasets.cities import city_by_name
from repro.measurements.aim import STARLINK, TERRESTRIAL, AimGenerator


def main() -> None:
    maputo = city_by_name("Maputo")

    # 1. Per-site median RTTs over both ISP classes (Fig. 3 data).
    result = figure3.run(seed=7, samples_per_site=25)
    print(figure3.format_result(result))

    # 2. Why: resolve the structural Starlink path.
    generator = AimGenerator(seed=7)
    path = generator.starlink.resolve_path(maputo)
    print(f"\nStarlink path: assigned PoP = {path.pop.name} "
          f"({path.pop.site.iso2}); nearest gateway = {path.gateway.name}, "
          f"{path.gateway_distance_km:.0f} km away over {path.isl_hops} ISL hops")
    terr_site, _ = generator.optimal_site(maputo, TERRESTRIAL)
    star_site, _ = generator.optimal_site(maputo, STARLINK)
    print(f"anycast maps the terrestrial client to {terr_site.name}, "
          f"the Starlink client to {star_site.name}")

    # 3. Geo-blocking: Mozambican-licensed sports stream.
    policy = GeoBlockPolicy()
    policy.license_object("mozambique-league-stream", {"MZ", "ZA"})
    terrestrial = policy.check_terrestrial("mozambique-league-stream", maputo)
    starlink = policy.check_starlink("mozambique-league-stream", maputo)
    print(f"\ngeo-block check (licensed for MZ, ZA):")
    print(f"  terrestrial client: allowed={terrestrial.allowed} "
          f"(appears in {terrestrial.apparent_iso2})")
    print(f"  Starlink client:    allowed={starlink.allowed} "
          f"(appears in {starlink.apparent_iso2}; misblocked={starlink.misblocked})")


if __name__ == "__main__":
    main()
