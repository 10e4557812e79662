"""Figure 7: SpaceCDN latency CDFs vs measured Starlink/terrestrial baselines.

For content cached on the access satellite ("1st/Sat") or reachable within
3, 5 or 10 ISL hops, the paper's xeoverse simulation shows: <= 5 hops is
competitive with terrestrial-ISP CDN access (and beats it in the tail), and
even 10 hops roughly halves today's Starlink-to-ground-CDN latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import Cdf
from repro.analysis.tables import format_table
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import ConfigurationError
from repro.experiments.common import (
    DEFAULT_SEED,
    aim_dataset,
    shell1_constellation,
    shell1_epochs,
    shell1_snapshot,
)
from repro.geo.coordinates import GeoPoint
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.network.access import access_latency_ms
from repro.orbits.visibility import nearest_visible_satellites
from repro.runner.shards import ExperimentPlan, in_memory
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.topology import fastcore

HOP_COUNTS: tuple[int, ...] = (0, 3, 5, 10)
"""0 = content on the access satellite itself (the paper's "1st/Sat")."""


@dataclass(frozen=True)
class Figure7Result:
    """RTT samples per curve of the figure."""

    spacecdn_rtts_ms: dict[int, list[float]]
    starlink_rtts_ms: list[float]
    terrestrial_rtts_ms: list[float]

    def cdf(self, curve: int | str) -> Cdf:
        """CDF for a hop-count curve or the 'starlink'/'terrestrial' baselines."""
        if curve == STARLINK:
            return Cdf.from_samples(self.starlink_rtts_ms)
        if curve == TERRESTRIAL:
            return Cdf.from_samples(self.terrestrial_rtts_ms)
        return Cdf.from_samples(self.spacecdn_rtts_ms[int(curve)])


def epoch_rtt_samples(
    epoch: float,
    users: list[GeoPoint],
    hop_counts: tuple[int, ...] = HOP_COUNTS,
) -> dict[int, list[float]]:
    """One epoch's SpaceCDN RTT samples per hop count (an epoch shard).

    For each user: access the nearest visible satellite, then for every
    requested hop count n take the cheapest satellite exactly n ISL hops
    away; RTT doubles the one-way path and adds the cache think time.

    All users resolve in one vectorised pass: a batched visibility query
    picks every access satellite at once, and one
    :func:`~repro.topology.fastcore.hop_ladder_batch` call over the unique
    access satellites replaces the per-user graph traversals.
    """
    constellation = shell1_constellation()
    snapshot = shell1_snapshot(epoch)
    max_hops = max(hop_counts)
    hop_array = np.asarray(hop_counts)
    access_idx, slant_km = nearest_visible_satellites(constellation, users, epoch)
    access_ms = access_latency_ms(slant_km)
    unique_access, inverse = np.unique(access_idx, return_inverse=True)
    ladders = fastcore.hop_ladder_batch(snapshot.core, unique_access, max_hops)
    # (user, hop-count) RTT matrix; NaN where no satellite sits at
    # exactly n hops (never for a connected +Grid).
    rtts = (
        2.0 * (access_ms[:, None] + ladders[inverse][:, hop_array])
        + CDN_SERVER_THINK_TIME_MS
    )
    return {
        n: [float(v) for v in rtts[:, j] if not np.isnan(v)]
        for j, n in enumerate(hop_counts)
    }


def build_plan(
    seed: int = DEFAULT_SEED,
    users_per_epoch: int = 20,
    num_epochs: int = 5,
) -> ExperimentPlan:
    """Fig. 7: one shard per epoch plus one for the AIM baselines.

    Each epoch shard draws its users from a seed-addressed substream
    (``seeded_rng(seed, 0x717, epoch_index)``) so it is a pure function of
    (config, shard id) — recomputable in any order after a crash.
    """
    if users_per_epoch < 1 or num_epochs < 1:
        raise ConfigurationError("users_per_epoch and num_epochs must be >= 1")
    epoch_ids = tuple(f"epoch-{i:04d}" for i in range(num_epochs))

    def run_shard(shard_id: str) -> dict:
        if shard_id == "aim":
            dataset = aim_dataset(seed)
            return {
                "starlink": dataset.all_rtts_pooled(STARLINK),
                "terrestrial": dataset.all_rtts_pooled(TERRESTRIAL),
            }
        index = epoch_ids.index(shard_id)
        epoch = shell1_epochs(num_epochs, seed)[index]
        users = user_sample_points(seeded_rng(seed, 0x717, index), users_per_epoch)
        per_epoch = epoch_rtt_samples(epoch, users)
        return {"samples": [[n, per_epoch[n]] for n in HOP_COUNTS]}

    def merge(payloads: dict) -> Figure7Result:
        samples: dict[int, list[float]] = {n: [] for n in HOP_COUNTS}
        for shard_id in epoch_ids:
            for n, values in payloads[shard_id]["samples"]:
                samples[int(n)].extend(values)
        return Figure7Result(
            spacecdn_rtts_ms=samples,
            starlink_rtts_ms=payloads["aim"]["starlink"],
            terrestrial_rtts_ms=payloads["aim"]["terrestrial"],
        )

    return ExperimentPlan(
        experiment="figure7",
        config={
            "experiment": "figure7",
            "seed": seed,
            "users_per_epoch": users_per_epoch,
            "num_epochs": num_epochs,
        },
        shard_ids=("aim",) + epoch_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def format_result(result: Figure7Result) -> str:
    rows = []
    curves: list[tuple[str, Cdf]] = [
        (f"{n} ISL hops" if n else "1st/Sat", result.cdf(n)) for n in HOP_COUNTS
    ]
    curves.append(("Starlink (AIM)", result.cdf(STARLINK)))
    curves.append(("Terrestrial (AIM)", result.cdf(TERRESTRIAL)))
    for name, cdf in curves:
        rows.append(
            (
                name,
                cdf.quantile(0.25),
                cdf.quantile(0.5),
                cdf.quantile(0.75),
                cdf.quantile(0.95),
            )
        )
    table = format_table(("curve", "p25 RTT (ms)", "median", "p75", "p95"), rows)

    five_hop_median = result.cdf(5).quantile(0.5)
    terrestrial_median = result.cdf(TERRESTRIAL).quantile(0.5)
    ten_hop_median = result.cdf(10).quantile(0.5)
    starlink_median = result.cdf(STARLINK).quantile(0.5)
    return table + (
        f"\n5-hop SpaceCDN median {five_hop_median:.1f} ms vs terrestrial median "
        f"{terrestrial_median:.1f} ms"
        f"\n10-hop SpaceCDN median {ten_hop_median:.1f} ms vs Starlink median "
        f"{starlink_median:.1f} ms"
    )
