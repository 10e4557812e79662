"""Figure 8: SpaceCDN latency under duty-cycled caches.

With only x% of satellites caching at a time (the rest relaying), the paper
finds SpaceCDN stays competitive with the terrestrial-ISP median once
x >= 50%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import DistributionSummary, median_or_nan, summarize
from repro.analysis.tables import format_table
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import ConfigurationError
from repro.experiments.common import DEFAULT_SEED, aim_dataset
from repro.experiments.shells import (
    shell1_constellation,
    shell1_epochs,
    shell1_snapshot,
)
from repro.geo.coordinates import GeoPoint
from repro.measurements.aim import TERRESTRIAL
from repro.obs.recorder import get_recorder
from repro.runner.shards import ExperimentPlan, in_memory
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.dutycycle import DutyCycleLatencyModel, DutyCycleScheduler

CACHE_FRACTIONS: tuple[float, ...] = (0.3, 0.5, 0.8)


@dataclass(frozen=True)
class Figure8Result:
    """RTT distributions per cache fraction, plus the terrestrial reference."""

    rtt_summaries: dict[float, DistributionSummary]
    rtt_samples_ms: dict[float, list[float]]
    terrestrial_median_ms: float

    COMPETITIVE_TOLERANCE = 1.15
    """A fraction is "competitive" when its median RTT is within 15% of the
    terrestrial median (the paper's Fig. 8 judges this visually: the
    terrestrial line passes through the 50% box)."""

    def competitive_fractions(self) -> list[float]:
        """Cache fractions whose median RTT is competitive with terrestrial."""
        threshold = self.terrestrial_median_ms * self.COMPETITIVE_TOLERANCE
        return sorted(
            f for f, s in self.rtt_summaries.items() if s.median <= threshold
        )


def epoch_fraction_samples(
    epoch: float,
    users: list[GeoPoint],
    fractions: tuple[float, ...],
    seed: int,
) -> dict[float, list[float]]:
    """One epoch's RTT samples per cache fraction (the sharding unit)."""
    constellation = shell1_constellation()
    snapshot = shell1_snapshot(epoch)
    rec = get_recorder()
    samples: dict[float, list[float]] = {}
    for fraction in fractions:
        model = DutyCycleLatencyModel(
            snapshot=snapshot,
            scheduler=DutyCycleScheduler(
                total_satellites=len(constellation),
                cache_fraction=fraction,
                seed=seed,
            ),
        )
        one_way = model.one_way_ms_batch(users)
        samples[fraction] = [
            float(v) for v in 2.0 * one_way + CDN_SERVER_THINK_TIME_MS
        ]
        if rec.enabled:
            # Windowed by the epoch's simulated instant, so the per-epoch
            # shards of a --jobs run merge into the same timeline an
            # in-memory run records.
            labels = (("fraction", f"{fraction:g}"),)
            for rtt_ms in samples[fraction]:
                rec.window_observe(
                    epoch, "repro_figure8_rtt_ms", rtt_ms, labels
                )
    return samples


def build_plan(
    seed: int = DEFAULT_SEED,
    users_per_epoch: int = 20,
    num_epochs: int = 5,
    fractions: tuple[float, ...] = CACHE_FRACTIONS,
) -> ExperimentPlan:
    """Fig. 8: latency vs duty-cycle cache fraction, one shard per epoch
    plus the terrestrial reference.

    Epoch shards draw users from ``seeded_rng(seed, 0xF18, epoch_index)``
    so each is recomputable in isolation after a crash or preemption.
    """
    if users_per_epoch < 1 or num_epochs < 1:
        raise ConfigurationError("users_per_epoch and num_epochs must be >= 1")
    epoch_ids = tuple(f"epoch-{i:04d}" for i in range(num_epochs))

    def run_shard(shard_id: str) -> dict:
        if shard_id == "aim":
            dataset = aim_dataset(seed)
            return {
                "terrestrial_median": median_or_nan(dataset.all_rtts(TERRESTRIAL))
            }
        index = epoch_ids.index(shard_id)
        epoch = shell1_epochs(num_epochs, seed)[index]
        users = user_sample_points(seeded_rng(seed, 0xF18, index), users_per_epoch)
        per_epoch = epoch_fraction_samples(epoch, users, fractions, seed)
        return {"samples": [[f, per_epoch[f]] for f in fractions]}

    def merge(payloads: dict) -> Figure8Result:
        samples: dict[float, list[float]] = {f: [] for f in fractions}
        for shard_id in epoch_ids:
            for fraction, values in payloads[shard_id]["samples"]:
                samples[float(fraction)].extend(values)
        return Figure8Result(
            rtt_summaries={f: summarize(s) for f, s in samples.items()},
            rtt_samples_ms=samples,
            terrestrial_median_ms=payloads["aim"]["terrestrial_median"],
        )

    return ExperimentPlan(
        experiment="figure8",
        config={
            "experiment": "figure8",
            "seed": seed,
            "users_per_epoch": users_per_epoch,
            "num_epochs": num_epochs,
            "fractions": list(fractions),
        },
        shard_ids=("aim",) + epoch_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Figure8Result) -> str:
    rows = []
    for fraction in sorted(result.rtt_summaries):
        s = result.rtt_summaries[fraction]
        rows.append((f"{fraction:.0%}", s.p25, s.median, s.p75, s.p95))
    table = format_table(
        ("caching sats", "p25 RTT (ms)", "median", "p75", "p95"), rows
    )
    return table + (
        f"\nterrestrial median reference: {result.terrestrial_median_ms:.1f} ms"
        f"\ncompetitive fractions: {[f'{f:.0%}' for f in result.competitive_fractions()]}"
    )
