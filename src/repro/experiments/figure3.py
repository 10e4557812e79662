"""Figure 3: the Maputo case study.

Median RTT from Maputo, Mozambique to each reachable Cloudflare site over
(a) Starlink — optimal is Frankfurt at ~160 ms, African sites exceed 250 ms
— and (b) a terrestrial ISP — optimal is Maputo itself at ~20 ms, with
Johannesburg at ~70 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED
from repro.geo.datasets import cdn_site_by_name, city_by_name
from repro.measurements.aim import STARLINK, TERRESTRIAL, AimGenerator
from repro.runner.shards import ExperimentPlan, in_memory

# The CDN sites visible in the paper's Fig. 3 maps.
CASE_STUDY_SITES: tuple[str, ...] = (
    "Frankfurt",
    "Lisbon",
    "Madrid",
    "Marseille",
    "Maputo",
    "Johannesburg",
    "Cape Town",
    "Durban",
    "Nairobi",
)

# Paper's headline medians (ms) for comparison in EXPERIMENTS.md.
PAPER_HEADLINES = {
    (STARLINK, "Frankfurt"): 160.0,
    (STARLINK, "Cape Town"): 250.0,
    (TERRESTRIAL, "Maputo"): 20.0,
    (TERRESTRIAL, "Johannesburg"): 70.0,
}


@dataclass(frozen=True)
class Figure3Result:
    """Median RTT (ms) per CDN site for each ISP class from Maputo."""

    starlink_ms: dict[str, float]
    terrestrial_ms: dict[str, float]

    def optimal_site(self, isp: str) -> tuple[str, float]:
        """The lowest-median-RTT site for one ISP class."""
        table = self.starlink_ms if isp == STARLINK else self.terrestrial_ms
        name = min(table, key=table.__getitem__)
        return name, table[name]


def _site_medians(
    generator: AimGenerator, isp: str, samples_per_site: int
) -> dict[str, float]:
    """Median RTT from Maputo to every case-study site for one ISP class."""
    maputo = city_by_name("Maputo")
    result: dict[str, float] = {}
    for site_name in CASE_STUDY_SITES:
        site = cdn_site_by_name(site_name)
        samples = [
            generator.sample_rtt_ms(maputo, site, isp)
            for _ in range(samples_per_site)
        ]
        result[site_name] = float(median(samples))
    return result


def build_plan(
    seed: int = DEFAULT_SEED, samples_per_site: int = 25
) -> ExperimentPlan:
    """Fig. 3: one shard (``"all"``) probing every case-study site from
    Maputo over both ISP classes, Starlink first, from one generator."""
    if samples_per_site < 1:
        raise ConfigurationError("samples_per_site must be >= 1")

    def run_shard(shard_id: str) -> dict:
        generator = AimGenerator(seed=seed)
        return {
            isp: _site_medians(generator, isp, samples_per_site)
            for isp in (STARLINK, TERRESTRIAL)
        }

    def merge(payloads: dict) -> Figure3Result:
        medians = payloads["all"]
        return Figure3Result(
            starlink_ms=medians[STARLINK], terrestrial_ms=medians[TERRESTRIAL]
        )

    return ExperimentPlan(
        experiment="figure3",
        config={
            "experiment": "figure3",
            "seed": seed,
            "samples_per_site": samples_per_site,
        },
        shard_ids=("all",),
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Figure3Result) -> str:
    rows = [
        (site, result.starlink_ms[site], result.terrestrial_ms[site])
        for site in CASE_STUDY_SITES
    ]
    table = format_table(
        ("CDN site", "Starlink median RTT (ms)", "Terrestrial median RTT (ms)"), rows
    )
    star_best = result.optimal_site(STARLINK)
    terr_best = result.optimal_site(TERRESTRIAL)
    return (
        table
        + f"\noptimal over Starlink: {star_best[0]} at {star_best[1]:.1f} ms"
        + f"\noptimal over terrestrial: {terr_best[0]} at {terr_best[1]:.1f} ms"
    )
