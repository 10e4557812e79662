"""Geo-blocking prevalence for Starlink users (quantifying §2's claim).

The paper cites "unwarranted geo-blocking from CDNs when connections are
routed to PoPs deployed in countries where the requested content is
geo-blocked". This experiment licenses, for every covered country, a
synthetic catalog of home-market content (licensed to the country and its
region's neighbours) and measures which Starlink subscriber populations get
misblocked — blocked despite being physically inside the licence area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.cdn.geoblock import GeoBlockPolicy
from repro.geo.datasets import (
    City,
    all_cities,
    assigned_pop,
    country_by_iso2,
    starlink_covered_countries,
)
from repro.runner.shards import ExperimentPlan, in_memory


@dataclass(frozen=True)
class GeoblockResult:
    """Per-country misblock verdicts for home-market content."""

    misblocked: dict[str, bool]
    """Whether the country's Starlink users lose their own home content."""
    exit_countries: dict[str, str]
    """Where each country's traffic appears to come from."""

    def misblock_rate(self) -> float:
        """Fraction of covered countries whose users lose home content."""
        if not self.misblocked:
            return 0.0
        return sum(self.misblocked.values()) / len(self.misblocked)

    def affected_countries(self) -> list[str]:
        return sorted(iso2 for iso2, bad in self.misblocked.items() if bad)


def _license_countries(iso2: str) -> set[str]:
    """A home-market licence: the country plus same-region covered countries."""
    region = country_by_iso2(iso2).region
    peers = {
        c.iso2
        for c in starlink_covered_countries()
        if country_by_iso2(c.iso2).region == region
    }
    peers.add(iso2)
    return peers


def build_plan() -> ExperimentPlan:
    """Check every covered country's home content for its own Starlink
    users: a single shard (the experiment is one cheap deterministic pass),
    still checkpointed like every other run."""

    def run_shard(shard_id: str) -> dict:
        policy = GeoBlockPolicy()
        cities_by_country: dict[str, City] = {}
        for city in all_cities():
            cities_by_country.setdefault(city.iso2, city)
        misblocked: dict[str, bool] = {}
        exits: dict[str, str] = {}
        for country in starlink_covered_countries():
            city = cities_by_country.get(country.iso2)
            if city is None:
                continue
            object_id = f"home-content-{country.iso2}"
            policy.license_object(object_id, _license_countries(country.iso2))
            decision = policy.check_starlink(object_id, city)
            misblocked[country.iso2] = decision.misblocked
            exits[country.iso2] = assigned_pop(
                country.iso2, city.lat_deg, city.lon_deg
            ).iso2
        return {"misblocked": misblocked, "exit_countries": exits}

    def merge(payloads: dict) -> GeoblockResult:
        payload = payloads["all"]
        return GeoblockResult(
            misblocked={k: bool(v) for k, v in payload["misblocked"].items()},
            exit_countries=dict(payload["exit_countries"]),
        )

    return ExperimentPlan(
        experiment="geoblocking",
        config={"experiment": "geoblocking"},
        shard_ids=("all",),
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: GeoblockResult) -> str:
    rows = [
        (
            country_by_iso2(iso2).name,
            iso2,
            result.exit_countries[iso2],
            "MISBLOCKED" if result.misblocked[iso2] else "ok",
        )
        for iso2 in sorted(result.misblocked)
        if result.misblocked[iso2]
    ]
    table = format_table(("Country", "ISO", "exits in", "home content"), rows)
    return table + (
        f"\n{result.misblock_rate():.0%} of covered countries lose access to "
        "their own region-licensed content over Starlink"
    )
