"""Chaos sweep: SpaceCDN availability and latency under injected failures.

The paper's Fig. 7/8 pipelines assume a healthy fleet. This experiment
reruns the request-level system under a sweep of satellite-outage
fractions (via :mod:`repro.faults`) and reports, per fraction:
availability, p50/p99 RTT and their inflation over the sweep's baseline,
space-tier hit-ratio degradation, and the Fig. 8 duty-cycle median when
the failed satellites also drop out of the cache rotation.

Every sweep point — including 0.0 — runs the same degraded serving path
so the comparison isolates the *faults*, not the code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.errors import UnavailableError, VisibilityError
from repro.experiments import sweep
from repro.experiments.common import DEFAULT_SEED
from repro.faults.processes import OutageWindow
from repro.faults.schedule import FaultSchedule
from repro.orbits.walker import Constellation
from repro.runner.shards import ExperimentPlan, in_memory
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.dutycycle import DutyCycleLatencyModel, DutyCycleScheduler
from repro.spacecdn.resilience import random_failure_set
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
    """p50 RTT over the p50 of the lowest fraction with RTT samples."""
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
    constellation: Constellation, failed: frozenset[int], seed: int
) -> float:
    """Fig. 8's duty-cycle pipeline rerun with ``failed`` satellites gone,
    over ``DUTY_USERS`` sampled users.

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
    for user in user_sample_points(seeded_rng(seed, 0xC4A08), DUTY_USERS):
        try:
            rtts.append(2.0 * model.one_way_ms(user) + CDN_SERVER_THINK_TIME_MS)
        except (UnavailableError, VisibilityError):
            # Small shells leave gaps even when healthy; a user with no
            # sky coverage is not a latency sample either way.
            continue
    return float(np.median(rtts)) if rtts else float("nan")


def _sweep_point(point: sweep.SweepPoint) -> dict:
    """One failure fraction's raw measurements."""
    constellation = point.context.constellation
    failed = random_failure_set(
        len(constellation), point.value, seeded_rng(point.seed, 0xFA11)
    )
    stats = point.serve(
        fault_schedule=FaultSchedule().add(OutageWindow(satellites=failed))
    )
    return point.payload(
        stats,
        space_hit_ratio=stats.space_hit_ratio,
        dutycycle_median_ms=_dutycycle_median(constellation, failed, point.seed),
    )


def build_plan(
    seed: int = DEFAULT_SEED,
    num_requests: int = 150,
    fractions: tuple[float, ...] = FAILURE_FRACTIONS,
    shell: str = "shell1",
    max_attempts: int = 3,
) -> ExperimentPlan:
    """Sweep satellite-outage fractions over the request-level system, one
    shard per failure fraction; every fraction serves the same stream."""
    return sweep.build_plan(
        SWEEP, fractions, _sweep_point, seed=seed, num_requests=num_requests,
        shell=shell, max_attempts=max_attempts,
    )


run = in_memory(build_plan)


def format_result(result: ChaosResult) -> str:
    rows = [
        (
            f"{p.fraction:.0%}",
            sweep.fmt_ratio(p.availability),
            p.p50_rtt_ms,
            p.p99_rtt_ms,
            f"{p.p50_inflation:.2f}x",
            f"{p.p99_inflation:.2f}x",
            f"{p.space_hit_ratio:.2f}",
            p.dutycycle_median_ms,
        )
        for p in result.points
    ]
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
        f"{sweep.fmt_ratio(worst.availability)}, "
        f"p99 inflation {worst.p99_inflation:.2f}x, "
        f"{worst.retries} retries / {worst.timeouts} timeouts / "
        f"{worst.unavailable} unavailable"
    )


SWEEP = sweep.Sweep(
    experiment="chaos",
    axis="fraction",
    noun="failure fraction",
    # 1.0 would fail every satellite: no sweep point could serve.
    rule="within [0, 1)",
    in_range=lambda fraction: 0.0 <= fraction < 1.0,
    catalog_salt=0xC4A07,
    stream_salts=(0xC4A05, 0xC4A06),
    scaled_stream=False,
    point_cls=ChaosPoint,
    result_cls=ChaosResult,
    format=format_result,
)
