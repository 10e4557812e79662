"""Figure 5: first-contentful-paint distributions in Germany and the UK.

Both countries host local Starlink PoPs — the best case — yet the paper
still finds Starlink median FCP ~200 ms higher than terrestrial, because
every round trip of the render-critical path pays the access-latency gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import DistributionSummary, summarize
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED
from repro.geo.datasets.cities import cities_in_country
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.measurements.netmet import NetMetProbe
from repro.runner.shards import ExperimentPlan, in_memory

FIGURE5_COUNTRIES: tuple[str, ...] = ("DE", "GB")


@dataclass(frozen=True)
class Figure5Result:
    """FCP distributions per (country, ISP class)."""

    fcp_summaries: dict[tuple[str, str], DistributionSummary]

    def median_gap_ms(self, iso2: str) -> float:
        """Starlink median FCP minus terrestrial median FCP for a country."""
        return (
            self.fcp_summaries[(iso2, STARLINK)].median
            - self.fcp_summaries[(iso2, TERRESTRIAL)].median
        )


def _country_fcp_samples(
    probe: NetMetProbe, iso2: str, rounds: int
) -> dict[str, list[float]]:
    """FCP samples per ISP class for one country's gazetteer cities."""
    cities = cities_in_country(iso2)
    if not cities:
        raise ConfigurationError(f"no gazetteer city in {iso2}")
    samples: dict[str, list[float]] = {}
    for isp in (STARLINK, TERRESTRIAL):
        per_isp: list[float] = []
        for city in cities:
            per_isp.extend(r.fcp_ms for r in probe.browse(city, isp, rounds))
        samples[isp] = per_isp
    return samples


def build_plan(
    seed: int = DEFAULT_SEED,
    rounds: int = 3,
    countries: tuple[str, ...] = FIGURE5_COUNTRIES,
) -> ExperimentPlan:
    """Fig. 5: FCP samples for both ISP classes, one shard per country,
    each with a fresh probe."""
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    shard_ids = tuple(f"country-{iso2}" for iso2 in countries)

    def run_shard(shard_id: str) -> dict:
        iso2 = countries[shard_ids.index(shard_id)]
        probe = NetMetProbe(seed=seed)
        return {"samples": _country_fcp_samples(probe, iso2, rounds)}

    def merge(payloads: dict) -> Figure5Result:
        summaries: dict[tuple[str, str], DistributionSummary] = {}
        for iso2, shard_id in zip(countries, shard_ids):
            for isp, samples in payloads[shard_id]["samples"].items():
                summaries[(iso2, isp)] = summarize(samples)
        return Figure5Result(fcp_summaries=summaries)

    return ExperimentPlan(
        experiment="figure5",
        config={
            "experiment": "figure5",
            "seed": seed,
            "rounds": rounds,
            "countries": list(countries),
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Figure5Result) -> str:
    rows = []
    for (iso2, isp), summary in sorted(result.fcp_summaries.items()):
        rows.append(
            (iso2, isp, summary.p25, summary.median, summary.p75, summary.p95)
        )
    table = format_table(
        ("Country", "ISP", "p25 FCP (ms)", "median", "p75", "p95"), rows
    )
    gaps = "\n".join(
        f"{iso2}: Starlink median FCP higher by {result.median_gap_ms(iso2):.0f} ms"
        for iso2 in sorted({k[0] for k in result.fcp_summaries})
    )
    return table + "\n" + gaps
