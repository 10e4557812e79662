"""Table 1: distance to the best CDN and minRTT, Starlink vs terrestrial.

Paper values (for shape comparison): terrestrial clients sit kilometres from
their best CDN at single-digit-to-low-tens-ms minRTT, while Starlink clients
in Africa/Caribbean are mapped thousands of kilometres away at 40-145 ms;
only countries with a local PoP (ES, JP) reach parity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import (
    DEFAULT_SEED,
    DEFAULT_TESTS_PER_CITY,
    country_aim_dataset,
)
from repro.geo.datasets import country_by_iso2
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.runner.shards import ExperimentPlan, in_memory

# The 11 countries of the paper's Table 1, in its row order.
TABLE1_COUNTRIES: tuple[str, ...] = (
    "GT",
    "MZ",
    "CY",
    "SZ",
    "HT",
    "KE",
    "ZM",
    "RW",
    "LT",
    "ES",
    "JP",
)

# Paper's reported values for EXPERIMENTS.md comparison:
# (terrestrial km, terrestrial minRTT, starlink km, starlink minRTT)
PAPER_VALUES: dict[str, tuple[float, float, float, float]] = {
    "GT": (6.9, 7.0, 1220.9, 44.2),
    "MZ": (5.0, 7.2, 8776.5, 138.7),
    "CY": (34.7, 7.45, 2595.3, 55.35),
    "SZ": (301.8, 12.8, 4731.6, 122.7),
    "HT": (6.1, 1.5, 2063.2, 50.0),
    "KE": (197.5, 16.0, 6310.8, 110.9),
    "ZM": (1202.64, 44.0, 7545.9, 143.5),
    "RW": (9.25, 5.0, 3762.8, 87.5),
    "LT": (168.6, 12.4, 1243.2, 40.0),
    "ES": (375.3, 14.3, 13.4, 33.0),
    "JP": (253.0, 9.0, 57.0, 34.0),
}


@dataclass(frozen=True)
class Table1Row:
    """One country's measured values."""

    iso2: str
    country: str
    terrestrial_distance_km: float
    terrestrial_min_rtt_ms: float
    starlink_distance_km: float
    starlink_min_rtt_ms: float


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]


def run_country(
    iso2: str,
    seed: int = DEFAULT_SEED,
    tests_per_city: int = DEFAULT_TESTS_PER_CITY,
) -> Table1Row:
    """One country's row from its seed-addressed per-country AIM batch."""
    dataset = country_aim_dataset(iso2, seed, tests_per_city)
    country = country_by_iso2(iso2)
    row = Table1Row(
        iso2=iso2,
        country=country.name,
        terrestrial_distance_km=dataset.mean_distance_km(iso2, TERRESTRIAL),
        terrestrial_min_rtt_ms=dataset.min_rtt_ms(iso2, TERRESTRIAL),
        starlink_distance_km=dataset.mean_distance_km(iso2, STARLINK),
        starlink_min_rtt_ms=dataset.min_rtt_ms(iso2, STARLINK),
    )
    if row.terrestrial_distance_km != row.terrestrial_distance_km:  # NaN guard
        raise ConfigurationError(f"no terrestrial tests generated for {iso2}")
    return row


def build_plan(
    seed: int = DEFAULT_SEED, tests_per_city: int = DEFAULT_TESTS_PER_CITY
) -> ExperimentPlan:
    """Table 1: one shard per country of the paper's table, each from its
    own seed-addressed AIM batch."""
    if tests_per_city < 1:
        raise ConfigurationError("tests_per_city must be >= 1")
    shard_ids = tuple(f"country-{iso2}" for iso2 in TABLE1_COUNTRIES)

    def run_shard(shard_id: str) -> dict:
        iso2 = TABLE1_COUNTRIES[shard_ids.index(shard_id)]
        return asdict(run_country(iso2, seed, tests_per_city))

    def merge(payloads: dict) -> Table1Result:
        return Table1Result(
            rows=tuple(Table1Row(**payloads[shard_id]) for shard_id in shard_ids)
        )

    return ExperimentPlan(
        experiment="table1",
        config={
            "experiment": "table1",
            "seed": seed,
            "tests_per_city": tests_per_city,
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Table1Result) -> str:
    """Render measured rows side by side with the paper's values."""
    headers = (
        "Country",
        "terr km",
        "terr minRTT",
        "star km",
        "star minRTT",
        "paper terr km/RTT",
        "paper star km/RTT",
    )
    table_rows = []
    for row in result.rows:
        paper = PAPER_VALUES[row.iso2]
        table_rows.append(
            (
                row.country,
                row.terrestrial_distance_km,
                row.terrestrial_min_rtt_ms,
                row.starlink_distance_km,
                row.starlink_min_rtt_ms,
                f"{paper[0]:.0f} / {paper[1]:.1f}",
                f"{paper[2]:.0f} / {paper[3]:.1f}",
            )
        )
    return format_table(headers, table_rows)
