"""Figure 4: HTTP response time difference, Starlink minus terrestrial.

The paper plots per-country CDFs of the HRT difference for clients measured
on both networks: terrestrial typically wins by 20-50 ms (up to ~100 ms),
with Nigeria the lone country where Starlink is faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import Cdf
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED
from repro.geo.datasets.cities import cities_in_country
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.measurements.netmet import NetMetProbe
from repro.runner.shards import ExperimentPlan, in_memory
from repro.simulation.sampler import seeded_rng

# Countries highlighted in the paper's Fig. 4 legend.
FIGURE4_COUNTRIES: tuple[str, ...] = ("US", "CA", "GB", "DE", "NG")


@dataclass(frozen=True)
class Figure4Result:
    """Per-country HRT-difference distributions."""

    differences_ms: dict[str, list[float]]

    def cdf(self, iso2: str) -> Cdf:
        return Cdf.from_samples(self.differences_ms[iso2])

    def median_difference_ms(self, iso2: str) -> float:
        return float(np.median(self.differences_ms[iso2]))

    def countries_where_starlink_faster(self) -> list[str]:
        """Countries whose median HRT difference favours Starlink."""
        return sorted(
            iso2
            for iso2 in self.differences_ms
            if self.median_difference_ms(iso2) < 0
        )


def _country_differences(
    probe: NetMetProbe, pair_rng, iso2: str, rounds: int
) -> list[float]:
    """One country's randomly paired HRT differences."""
    cities = cities_in_country(iso2)
    if not cities:
        raise ConfigurationError(f"no gazetteer city in {iso2}")
    starlink_hrts: list[float] = []
    terrestrial_hrts: list[float] = []
    for city in cities:
        starlink_hrts.extend(
            r.http_response_ms for r in probe.browse(city, STARLINK, rounds)
        )
        terrestrial_hrts.extend(
            r.http_response_ms for r in probe.browse(city, TERRESTRIAL, rounds)
        )
    paired = min(len(starlink_hrts), len(terrestrial_hrts))
    star = pair_rng.permutation(np.asarray(starlink_hrts))[:paired]
    terr = pair_rng.permutation(np.asarray(terrestrial_hrts))[:paired]
    return [float(d) for d in star - terr]


def build_plan(
    seed: int = DEFAULT_SEED,
    rounds: int = 3,
    countries: tuple[str, ...] = FIGURE4_COUNTRIES,
) -> ExperimentPlan:
    """Fig. 4: browse the top pages per country on both ISPs and
    difference the HRTs, one shard per highlighted country.

    Each shard browses with its own probe and pairs from its own stream,
    ``seeded_rng(seed, 0xF16, country_index)``. Starlink and terrestrial
    records are paired at random (the paper's crowdsourced measurements
    are likewise not synchronised pairs).
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    shard_ids = tuple(f"country-{iso2}" for iso2 in countries)

    def run_shard(shard_id: str) -> dict:
        index = shard_ids.index(shard_id)
        iso2 = countries[index]
        probe = NetMetProbe(seed=seed)
        pair_rng = seeded_rng(seed, 0xF16, index)
        return {"differences_ms": _country_differences(probe, pair_rng, iso2, rounds)}

    def merge(payloads: dict) -> Figure4Result:
        return Figure4Result(
            differences_ms={
                iso2: payloads[shard_id]["differences_ms"]
                for iso2, shard_id in zip(countries, shard_ids)
            }
        )

    return ExperimentPlan(
        experiment="figure4",
        config={
            "experiment": "figure4",
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


def format_result(result: Figure4Result) -> str:
    rows = []
    for iso2, samples in sorted(result.differences_ms.items()):
        cdf = Cdf.from_samples(samples)
        rows.append(
            (
                iso2,
                cdf.quantile(0.25),
                cdf.quantile(0.5),
                cdf.quantile(0.75),
                cdf.at(0.0),
            )
        )
    table = format_table(
        ("Country", "p25 diff (ms)", "median diff (ms)", "p75 diff (ms)", "P(starlink faster)"),
        rows,
        float_fmt="{:.2f}",
    )
    faster = result.countries_where_starlink_faster()
    return table + f"\nStarlink faster (median) in: {faster or 'none'}"
