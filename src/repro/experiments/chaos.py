"""Chaos sweep: SpaceCDN availability and latency under injected failures.

The paper's Fig. 7/8 pipelines assume a healthy fleet. This experiment
reruns the request-level system under a sweep of satellite-outage
fractions (via :mod:`repro.faults`) and reports, per fraction:
availability, p50/p99 RTT and their inflation over the healthy baseline,
space-tier hit-ratio degradation, and the Fig. 8 duty-cycle median when
the failed satellites also drop out of the cache rotation.

Every sweep point — including 0.0 — runs the same degraded serving path
so the comparison isolates the *faults*, not the code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.quantiles import sample_quantiles
from repro.analysis.tables import format_table
from repro.cdn.content import Catalog, build_catalog
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import ConfigurationError, UnavailableError, VisibilityError
from repro.experiments.common import (
    DEFAULT_SEED,
    shell1_constellation,
    small_constellation,
)
from repro.faults import FaultSchedule, OutageWindow, RetryPolicy
from repro.geo.datasets import all_cities
from repro.obs.recorder import get_recorder
from repro.orbits.walker import Constellation
from repro.runner.shards import ExperimentPlan
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.bubbles import RegionalPopularity
from repro.spacecdn.dutycycle import DutyCycleLatencyModel, DutyCycleScheduler
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.resilience import random_failure_set
from repro.spacecdn.system import SpaceCdnSystem
from repro.topology.graph import build_snapshot
from repro.workloads.regional import RegionalRequestMixer
from repro.workloads.requests import RequestGenerator

FAILURE_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.3)

CATALOG_REGIONS: tuple[str, ...] = ("africa", "europe")

_STREAM_DURATION_S = 300.0
"""Request streams span five snapshot slots so faults interact with the
rotating topology, not a single frozen graph."""


@dataclass(frozen=True)
class ChaosPoint:
    """The system's health at one failure fraction."""

    fraction: float
    requests: int
    availability: float | None
    """Served share of all requests; ``None`` when the point saw zero
    requests (no denominator, not a perfect score)."""
    space_hit_ratio: float
    p50_rtt_ms: float
    p99_rtt_ms: float
    p50_inflation: float
    """p50 RTT over the healthy (fraction 0.0) baseline's p50."""
    p99_inflation: float
    timeouts: int
    retries: int
    unavailable: int
    dutycycle_median_ms: float
    """Fig. 8 median RTT when the failed satellites also leave the
    duty-cycle cache rotation (NaN when every sampled user lost coverage)."""


@dataclass(frozen=True)
class ChaosResult:
    """One full failure-fraction sweep."""

    shell: str
    points: tuple[ChaosPoint, ...]

    @property
    def baseline(self) -> ChaosPoint:
        """The healthy sweep point (smallest fraction, normally 0.0)."""
        return min(self.points, key=lambda p: p.fraction)


def _constellation_for(shell: str) -> Constellation:
    if shell == "shell1":
        return shell1_constellation()
    if shell == "small":
        return small_constellation()
    raise ConfigurationError(f"unknown shell {shell!r}; choose 'shell1' or 'small'")


def _build_requests(catalog: Catalog, num_requests: int, seed: int):
    """A time-ordered Poisson stream over the catalog's home regions."""
    cities = tuple(
        c for c in all_cities() if c.country.region in CATALOG_REGIONS
    )
    if not cities:
        raise ConfigurationError("no cities in the catalog regions")
    mixer = RegionalRequestMixer(
        popularity=RegionalPopularity(catalog=catalog, seed=seed),
        rng=seeded_rng(seed, 0xC4A05),
    )
    generator = RequestGenerator(
        cities=cities,
        mixer=mixer,
        requests_per_second_total=num_requests / _STREAM_DURATION_S,
        rng=seeded_rng(seed, 0xC4A06),
    )
    return generator.generate_list(_STREAM_DURATION_S)


def _quantiles(samples: list[float]) -> tuple[float, float]:
    p50, p99 = sample_quantiles(samples, (0.5, 0.99))
    return p50, p99


def _dutycycle_median(
    constellation: Constellation,
    failed: frozenset[int],
    users,
    cache_fraction: float,
    seed: int,
) -> float:
    """Fig. 8's duty-cycle pipeline rerun with ``failed`` satellites gone.

    Users whose sky went dark under the outage are skipped (they are an
    availability loss, not a latency sample); NaN when nobody is covered.
    """
    model = DutyCycleLatencyModel(
        snapshot=build_snapshot(constellation, 0.0),
        scheduler=DutyCycleScheduler(
            total_satellites=len(constellation),
            cache_fraction=cache_fraction,
            seed=seed,
        ),
        failed=failed,
    )
    rtts = []
    for user in users:
        try:
            rtts.append(2.0 * model.one_way_ms(user) + CDN_SERVER_THINK_TIME_MS)
        except (UnavailableError, VisibilityError):
            # Small shells leave gaps even when healthy; a user with no
            # sky coverage is not a latency sample either way.
            continue
    return float(np.median(rtts)) if rtts else float("nan")


@dataclass(eq=False)
class _SweepContext:
    """Shared, fraction-independent artifacts of one chaos sweep."""

    constellation: Constellation
    catalog: Catalog
    requests: list
    preload: dict
    duty_user_points: list


@lru_cache(maxsize=2)
def _sweep_context(
    seed: int, num_requests: int, shell: str, duty_users: int
) -> _SweepContext:
    """Build (once per configuration) everything the sweep points share.

    Cached so the sharded runner, which executes each fraction as its own
    shard, pays the catalog/request/preload construction once per process
    like the monolithic sweep does.
    """
    constellation = _constellation_for(shell)
    catalog = build_catalog(
        seeded_rng(seed, 0xC4A07),
        120,
        regions=CATALOG_REGIONS,
        kind_weights={"web": 1.0},
    )
    placement = KPerPlanePlacement(copies_per_plane=1)
    popular = RegionalPopularity(catalog=catalog, seed=seed)
    return _SweepContext(
        constellation=constellation,
        catalog=catalog,
        requests=_build_requests(catalog, num_requests, seed),
        preload={
            object_id: placement.place_object(object_id, constellation.config)
            for region in popular.regions()
            for object_id in popular.top_objects(region, 10)
        },
        duty_user_points=user_sample_points(seeded_rng(seed, 0xC4A08), duty_users),
    )


def _sweep_point(
    ctx: _SweepContext,
    fraction: float,
    seed: int,
    max_attempts: int,
    duty_cache_fraction: float,
) -> dict:
    """One failure fraction's raw measurements (inflations are merge-time:
    they compare against the sweep's baseline point)."""
    rec = get_recorder()
    with rec.timer("chaos.sweep_point"):
        constellation = ctx.constellation
        failed = random_failure_set(
            len(constellation), fraction, seeded_rng(seed, 0xFA11)
        )
        system = SpaceCdnSystem(
            constellation=constellation,
            catalog=ctx.catalog,
            cache_bytes_per_satellite=10**9,
            fault_schedule=FaultSchedule().add(OutageWindow(satellites=failed)),
            retry_policy=RetryPolicy(max_attempts=max_attempts),
        )
        system.preload(ctx.preload)
        if rec.enabled:
            # Offered load per simulated-time window: the demand side of the
            # timeline dashboard, recorded before serving so shed/unavailable
            # windows still show what arrived.
            labels = (("fraction", f"{fraction:g}"),)
            for request in ctx.requests:
                rec.window_inc(request.t_s, "repro_offered_total", labels)
        system.run(ctx.requests, continue_on_unavailable=True)
    stats = system.stats
    if rec.enabled and stats.availability is not None:
        rec.set_gauge(
            "repro_chaos_availability",
            stats.availability,
            (("fraction", f"{fraction:g}"),),
        )
    p50, p99 = _quantiles(stats.rtt_samples_ms)
    return {
        "fraction": fraction,
        "requests": stats.requests,
        "availability": stats.availability,
        "space_hit_ratio": stats.space_hit_ratio,
        "p50_rtt_ms": p50,
        "p99_rtt_ms": p99,
        "timeouts": stats.timeouts,
        "retries": stats.retries,
        "unavailable": stats.unavailable,
        "dutycycle_median_ms": _dutycycle_median(
            constellation, failed, ctx.duty_user_points,
            duty_cache_fraction, seed,
        ),
    }


def _points_from_raw(raw_points: list[dict]) -> tuple[ChaosPoint, ...]:
    """Fold raw sweep points (in sorted-fraction order) into ChaosPoints,
    computing p50/p99 inflation against the first non-NaN baseline."""
    points: list[ChaosPoint] = []
    baseline_p50 = baseline_p99 = float("nan")
    for raw in raw_points:
        p50, p99 = raw["p50_rtt_ms"], raw["p99_rtt_ms"]
        if np.isnan(baseline_p50):
            baseline_p50, baseline_p99 = p50, p99
        points.append(
            ChaosPoint(
                p50_inflation=p50 / baseline_p50 if baseline_p50 else float("nan"),
                p99_inflation=p99 / baseline_p99 if baseline_p99 else float("nan"),
                **raw,
            )
        )
    return tuple(points)


def run(
    seed: int = DEFAULT_SEED,
    num_requests: int = 150,
    fractions: tuple[float, ...] = FAILURE_FRACTIONS,
    shell: str = "shell1",
    max_attempts: int = 3,
    duty_cache_fraction: float = 0.5,
    duty_users: int = 12,
) -> ChaosResult:
    """Sweep satellite-outage fractions over the request-level system."""
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not fractions:
        raise ConfigurationError("need at least one failure fraction")
    ctx = _sweep_context(seed, num_requests, shell, duty_users)
    raw_points = [
        _sweep_point(ctx, fraction, seed, max_attempts, duty_cache_fraction)
        for fraction in sorted(fractions)
    ]
    return ChaosResult(shell=shell, points=_points_from_raw(raw_points))


def build_plan(
    seed: int = DEFAULT_SEED,
    num_requests: int = 150,
    fractions: tuple[float, ...] = FAILURE_FRACTIONS,
    shell: str = "shell1",
    max_attempts: int = 3,
    duty_cache_fraction: float = 0.5,
    duty_users: int = 12,
) -> ExperimentPlan:
    """Sharded chaos sweep: one shard per failure fraction.

    A killed sweep loses at most one fraction's system run; the inflation
    columns are recomputed at merge time from the checkpointed baselines,
    so resumed output matches an uninterrupted sweep byte for byte.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not fractions:
        raise ConfigurationError("need at least one failure fraction")
    # Retry-policy misconfiguration should surface at plan time, before
    # any shard burns its budget discovering it.
    RetryPolicy(max_attempts=max_attempts)
    ordered = tuple(sorted(fractions))
    shard_ids = tuple(f"fraction-{i:02d}" for i in range(len(ordered)))

    def run_shard(shard_id: str) -> dict:
        fraction = ordered[shard_ids.index(shard_id)]
        ctx = _sweep_context(seed, num_requests, shell, duty_users)
        return _sweep_point(
            ctx, fraction, seed, max_attempts, duty_cache_fraction
        )

    def merge(payloads: dict) -> ChaosResult:
        raw_points = [payloads[shard_id] for shard_id in shard_ids]
        return ChaosResult(shell=shell, points=_points_from_raw(raw_points))

    return ExperimentPlan(
        experiment="chaos",
        config={
            "experiment": "chaos",
            "seed": seed,
            "num_requests": num_requests,
            "fractions": list(ordered),
            "shell": shell,
            "max_attempts": max_attempts,
            "duty_cache_fraction": duty_cache_fraction,
            "duty_users": duty_users,
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


def _fmt_availability(availability: float | None) -> str:
    return "n/a" if availability is None else f"{availability:.3f}"


def format_result(result: ChaosResult) -> str:
    rows = []
    for p in result.points:
        rows.append(
            (
                f"{p.fraction:.0%}",
                _fmt_availability(p.availability),
                p.p50_rtt_ms,
                p.p99_rtt_ms,
                f"{p.p50_inflation:.2f}x",
                f"{p.p99_inflation:.2f}x",
                f"{p.space_hit_ratio:.2f}",
                p.dutycycle_median_ms,
            )
        )
    table = format_table(
        (
            "failed sats",
            "availability",
            "p50 RTT (ms)",
            "p99",
            "p50 infl",
            "p99 infl",
            "space hits",
            "duty p50 (ms)",
        ),
        rows,
    )
    worst = max(result.points, key=lambda p: p.fraction)
    return table + (
        f"\nshell: {result.shell}; {worst.requests} requests per sweep point"
        f"\nat {worst.fraction:.0%} failed: availability "
        f"{_fmt_availability(worst.availability)}, "
        f"p99 inflation {worst.p99_inflation:.2f}x, "
        f"{worst.retries} retries / {worst.timeouts} timeouts / "
        f"{worst.unavailable} unavailable"
    )
