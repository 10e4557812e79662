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

from repro.analysis.tables import format_table
from repro.cdn.content import Catalog
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import (
    ConfigurationError,
    FaultConfigError,
    UnavailableError,
    VisibilityError,
)
from repro.experiments.common import DEFAULT_SEED, p50_p99, points_from_raw
from repro.experiments.shells import sweep_catalog, sweep_constellation, sweep_requests
from repro.faults.processes import OutageWindow
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs.recorder import get_recorder
from repro.orbits.walker import Constellation
from repro.runner.shards import ExperimentPlan, in_memory
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.dutycycle import DutyCycleLatencyModel, DutyCycleScheduler
from repro.spacecdn.resilience import random_failure_set
from repro.spacecdn.system import SpaceCdnSystem
from repro.topology.graph import build_snapshot

FAILURE_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.3)

DUTY_CACHE_FRACTION = 0.5
"""Cache-carrying share of the fleet in the duty-cycle column (Fig. 8)."""

DUTY_USERS = 12
"""Sampled users behind the duty-cycle column's median."""


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


def _dutycycle_median(
    constellation: Constellation,
    failed: frozenset[int],
    users,
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
            cache_fraction=DUTY_CACHE_FRACTION,
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
def _sweep_context(seed: int, num_requests: int, shell: str) -> _SweepContext:
    """Build (once per configuration) everything the sweep points share.

    Cached so a sweep, which executes each fraction as its own shard, pays
    the catalog/request/preload construction once per process.
    """
    constellation = sweep_constellation(shell)
    catalog, preload = sweep_catalog(seed, 0xC4A07, constellation)
    return _SweepContext(
        constellation=constellation,
        catalog=catalog,
        requests=sweep_requests(catalog, num_requests, seed, 0xC4A05, 0xC4A06),
        preload=preload,
        duty_user_points=user_sample_points(seeded_rng(seed, 0xC4A08), DUTY_USERS),
    )


def _sweep_point(
    ctx: _SweepContext,
    fraction: float,
    seed: int,
    max_attempts: int,
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
            # time series, recorded before serving so shed/unavailable
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
    p50, p99 = p50_p99(stats.rtt_samples_ms)
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
            constellation, failed, ctx.duty_user_points, seed
        ),
    }


def build_plan(
    seed: int = DEFAULT_SEED,
    num_requests: int = 150,
    fractions: tuple[float, ...] = FAILURE_FRACTIONS,
    shell: str = "shell1",
    max_attempts: int = 3,
) -> ExperimentPlan:
    """Sweep satellite-outage fractions over the request-level system, one
    shard per failure fraction.

    A killed sweep loses at most one fraction's system run; the inflation
    columns are recomputed at merge time from the checkpointed baselines,
    so resumed output matches an uninterrupted sweep byte for byte.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not fractions:
        raise ConfigurationError("need at least one failure fraction")
    for fraction in fractions:
        # 1.0 would fail every satellite: no sweep point could serve.
        if not 0.0 <= fraction < 1.0:
            raise FaultConfigError(
                f"failure fractions must be within [0, 1), got {fraction:g}"
            )
    # Retry-policy misconfiguration should surface at plan time, before
    # any shard burns its budget discovering it.
    RetryPolicy(max_attempts=max_attempts)
    ordered = tuple(sorted(fractions))
    shard_ids = tuple(f"fraction-{i:02d}" for i in range(len(ordered)))

    def run_shard(shard_id: str) -> dict:
        fraction = ordered[shard_ids.index(shard_id)]
        ctx = _sweep_context(seed, num_requests, shell)
        return _sweep_point(ctx, fraction, seed, max_attempts)

    def merge(payloads: dict) -> ChaosResult:
        raw_points = [payloads[shard_id] for shard_id in shard_ids]
        return ChaosResult(shell=shell, points=points_from_raw(raw_points, ChaosPoint))

    return ExperimentPlan(
        experiment="chaos",
        config={
            "experiment": "chaos",
            "seed": seed,
            "num_requests": num_requests,
            "fractions": list(ordered),
            "shell": shell,
            "max_attempts": max_attempts,
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


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
