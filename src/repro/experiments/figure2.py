"""Figure 2: per-country delta in median RTT to the optimal CDN.

The paper's world map shows (Starlink - terrestrial) median RTT per country:
positive almost everywhere (terrestrial faster, typically ~50 ms), and
120-150 ms in African countries served through Frankfurt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import delta_by_group
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import (
    DEFAULT_SEED,
    DEFAULT_TESTS_PER_CITY,
    country_aim_dataset,
    gazetteer_countries,
)
from repro.geo.datasets import country_by_iso2
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.runner.shards import ExperimentPlan, in_memory


@dataclass(frozen=True)
class Figure2Result:
    """Per-country median RTT delta (Starlink minus terrestrial), ms."""

    deltas_ms: dict[str, float]

    def countries_where_starlink_faster(self) -> list[str]:
        return sorted(iso2 for iso2, d in self.deltas_ms.items() if d < 0)

    def worst_countries(self, count: int = 5) -> list[tuple[str, float]]:
        """The countries with the largest Starlink penalty."""
        ranked = sorted(self.deltas_ms.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]

    def median_delta_ms(self) -> float:
        """Median penalty across countries measured on both ISPs."""
        from statistics import median

        return float(median(self.deltas_ms.values()))


def country_delta(
    iso2: str,
    seed: int = DEFAULT_SEED,
    tests_per_city: int = DEFAULT_TESTS_PER_CITY,
) -> dict[str, float]:
    """One country's median-RTT delta from its per-country AIM batch.

    Empty for countries without Starlink coverage (no delta is defined),
    mirroring :func:`~repro.analysis.stats.delta_by_group`.
    """
    dataset = country_aim_dataset(iso2, seed, tests_per_city)
    return delta_by_group(
        dataset.rtts_by_country(STARLINK), dataset.rtts_by_country(TERRESTRIAL)
    )


def build_plan(
    seed: int = DEFAULT_SEED, tests_per_city: int = DEFAULT_TESTS_PER_CITY
) -> ExperimentPlan:
    """Fig. 2: one shard per gazetteer country, each from its own
    seed-addressed AIM batch."""
    if tests_per_city < 1:
        raise ConfigurationError("tests_per_city must be >= 1")
    countries = gazetteer_countries()
    shard_ids = tuple(f"country-{iso2}" for iso2 in countries)

    def run_shard(shard_id: str) -> dict:
        iso2 = countries[shard_ids.index(shard_id)]
        return {"deltas_ms": country_delta(iso2, seed, tests_per_city)}

    def merge(payloads: dict) -> Figure2Result:
        deltas: dict[str, float] = {}
        for shard_id in shard_ids:
            deltas.update(payloads[shard_id]["deltas_ms"])
        return Figure2Result(deltas_ms=deltas)

    return ExperimentPlan(
        experiment="figure2",
        config={
            "experiment": "figure2",
            "seed": seed,
            "tests_per_city": tests_per_city,
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Figure2Result) -> str:
    rows = [
        (country_by_iso2(iso2).name, iso2, delta)
        for iso2, delta in sorted(
            result.deltas_ms.items(), key=lambda kv: kv[1], reverse=True
        )
    ]
    table = format_table(("Country", "ISO", "delta median RTT (ms)"), rows)
    summary = (
        f"\nmedian delta across countries: {result.median_delta_ms():.1f} ms"
        f"\nStarlink faster in: {result.countries_where_starlink_faster() or 'none'}"
    )
    return table + summary
