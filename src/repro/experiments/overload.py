"""Overload sweep: offered load vs availability, shedding, and goodput.

The chaos sweep removes capacity; this one outruns it. The request-level
system runs under an :class:`~repro.overload.model.OverloadModel` while the
offered load is swept as a multiplier over a baseline stream, optionally
with a :class:`~repro.faults.processes.FlashCrowdProcess` consuming background
capacity mid-run. Per load point: availability, shed fraction (split out
from fault unavailability), goodput, p50/p99 RTT and their inflation over
the lightest-load baseline — the curve that shows graceful degradation
past the knee instead of a cliff.

Every sweep point — including the lightest — runs the same overloaded
serving path so the comparison isolates the *load*, not the code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.analysis.tables import format_table
from repro.cdn.content import Catalog
from repro.errors import ConfigurationError, FaultConfigError
from repro.experiments.common import DEFAULT_SEED, p50_p99, points_from_raw
from repro.experiments.shells import (
    SWEEP_STREAM_DURATION_S,
    sweep_catalog,
    sweep_constellation,
    sweep_requests,
)
from repro.faults.processes import FlashCrowdProcess
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs.recorder import get_recorder
from repro.orbits.walker import Constellation
from repro.overload.model import OverloadModel
from repro.runner.shards import ExperimentPlan, in_memory
from repro.spacecdn.system import SpaceCdnSystem

LOAD_MULTIPLIERS: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class OverloadPoint:
    """The system's behaviour at one offered-load multiplier."""

    load: float
    requests: int
    offered_rps: float
    availability: float | None
    """Served share of all requests (shed and unavailable both count
    against it); ``None`` when the point saw zero requests."""
    shed_fraction: float | None
    """Share of requests refused by overload protection specifically."""
    goodput_rps: float
    """Served requests per second of stream time — the paper-facing
    "useful work" axis of the degradation curve."""
    p50_rtt_ms: float
    p99_rtt_ms: float
    p50_inflation: float
    """p50 RTT over the lightest-load baseline's p50 (queueing delay and
    retry backoff both inflate it as the knee approaches)."""
    p99_inflation: float
    timeouts: int
    retries: int
    unavailable: int
    shed: int
    deadline_exhausted: int


@dataclass(frozen=True)
class OverloadResult:
    """One full offered-load sweep."""

    shell: str
    points: tuple[OverloadPoint, ...]

    @property
    def baseline(self) -> OverloadPoint:
        """The lightest-load sweep point."""
        return min(self.points, key=lambda p: p.load)


def parse_flash_crowd(spec: str) -> tuple[float, float, float]:
    """``START:END:EXTRA`` → a validated flash-crowd window.

    The CLI's eager parse: raises :class:`~repro.errors.FaultConfigError`
    (exit code 4) on malformed input, and constructs the process once so
    window/extra validation fires at parse time, not mid-run.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise FaultConfigError(
            f"flash crowd must be START:END:EXTRA, got {spec!r}"
        )
    try:
        start_s, end_s, extra = (float(part) for part in parts)
    except ValueError as exc:
        raise FaultConfigError(f"non-numeric flash crowd field in {spec!r}") from exc
    FlashCrowdProcess(
        extra_requests_per_slot=extra, start_s=start_s, end_s=end_s
    )
    return start_s, end_s, extra


@dataclass(eq=False)
class _SweepContext:
    """Shared, load-independent artifacts of one overload sweep."""

    constellation: Constellation
    catalog: Catalog
    preload: dict


@lru_cache(maxsize=2)
def _sweep_context(seed: int, shell: str) -> _SweepContext:
    """Build (once per configuration) everything the sweep points share."""
    constellation = sweep_constellation(shell)
    catalog, preload = sweep_catalog(seed, 0x0BAD2, constellation)
    return _SweepContext(
        constellation=constellation, catalog=catalog, preload=preload
    )


def _sweep_point(
    ctx: _SweepContext,
    load: float,
    seed: int,
    num_requests: int,
    capacity: float,
    ground_capacity: float,
    deadline_ms: float | None,
    flash_crowd: tuple[float, float, float] | None,
    max_attempts: int,
) -> dict:
    """One load multiplier's raw measurements (inflations are merge-time:
    they compare against the sweep's lightest-load point)."""
    rec = get_recorder()
    with rec.timer("overload.sweep_point"):
        requests = sweep_requests(
            ctx.catalog,
            max(1, int(round(num_requests * load))),
            seed,
            0x0BAD0,
            0x0BAD1,
        )
        schedule = None
        if flash_crowd is not None:
            start_s, end_s, extra = flash_crowd
            schedule = FaultSchedule().add(
                FlashCrowdProcess(
                    extra_requests_per_slot=extra, start_s=start_s, end_s=end_s
                )
            )
        system = SpaceCdnSystem(
            constellation=ctx.constellation,
            catalog=ctx.catalog,
            cache_bytes_per_satellite=10**9,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=max_attempts),
            overload=OverloadModel(
                capacity_per_slot=capacity,
                ground_capacity_per_slot=ground_capacity,
                deadline_ms=deadline_ms,
                seed=seed,
            ),
        )
        system.preload(ctx.preload)
        if rec.enabled:
            # Offered load per simulated-time window: shows the overload
            # knee (and any flash-crowd burst) in the time series.
            offered_labels = (("load", f"{load:g}"),)
            for request in requests:
                rec.window_inc(request.t_s, "repro_offered_total", offered_labels)
        system.run(requests, continue_on_unavailable=True)
    stats = system.stats
    if rec.enabled:
        labels = (("load", f"{load:g}"),)
        if stats.availability is not None:
            rec.set_gauge(
                "repro_overload_availability", stats.availability, labels
            )
        if stats.shed_fraction is not None:
            rec.set_gauge(
                "repro_overload_shed_fraction", stats.shed_fraction, labels
            )
        rec.set_gauge(
            "repro_overload_goodput_rps",
            stats.served / SWEEP_STREAM_DURATION_S,
            labels,
        )
    p50, p99 = p50_p99(stats.rtt_samples_ms)
    return {
        "load": load,
        "requests": stats.requests,
        "offered_rps": stats.requests / SWEEP_STREAM_DURATION_S,
        "availability": stats.availability,
        "shed_fraction": stats.shed_fraction,
        "goodput_rps": stats.served / SWEEP_STREAM_DURATION_S,
        "p50_rtt_ms": p50,
        "p99_rtt_ms": p99,
        "timeouts": stats.timeouts,
        "retries": stats.retries,
        "unavailable": stats.unavailable,
        "shed": stats.shed,
        "deadline_exhausted": stats.deadline_exhausted,
    }


def _validated_config(
    seed, num_requests, loads, shell, capacity, ground_capacity,
    deadline_ms, flash_crowd, max_attempts,
) -> dict:
    """Validate sweep parameters eagerly and shape the plan config.

    Everything that can be misconfigured fails here — at plan/parse time —
    not after a shard has burned its budget: the retry policy, the
    overload model, and the flash-crowd window are all constructed once.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not loads:
        raise ConfigurationError("need at least one load multiplier")
    if not all(math.isfinite(load) and load > 0 for load in loads):
        raise ConfigurationError(
            f"load multipliers must be positive and finite: {loads}"
        )
    sweep_constellation(shell)
    RetryPolicy(max_attempts=max_attempts)
    OverloadModel(
        capacity_per_slot=capacity,
        ground_capacity_per_slot=ground_capacity,
        deadline_ms=deadline_ms,
        seed=seed,
    )
    if flash_crowd is not None:
        if len(flash_crowd) != 3:
            raise FaultConfigError(
                f"flash crowd must be (start, end, extra), got {flash_crowd!r}"
            )
        start_s, end_s, extra = (float(x) for x in flash_crowd)
        FlashCrowdProcess(
            extra_requests_per_slot=extra, start_s=start_s, end_s=end_s
        )
    return {
        "experiment": "overload",
        "seed": seed,
        "num_requests": num_requests,
        "loads": sorted(float(load) for load in loads),
        "shell": shell,
        "capacity": capacity,
        "ground_capacity": ground_capacity,
        "deadline_ms": deadline_ms,
        "flash_crowd": (
            None if flash_crowd is None else [float(x) for x in flash_crowd]
        ),
        "max_attempts": max_attempts,
    }


def build_plan(
    seed: int = DEFAULT_SEED,
    num_requests: int = 150,
    loads: tuple[float, ...] = LOAD_MULTIPLIERS,
    shell: str = "shell1",
    capacity: float = 6.0,
    ground_capacity: float = 40.0,
    deadline_ms: float | None = 1500.0,
    flash_crowd: tuple[float, float, float] | None = None,
    max_attempts: int = 3,
) -> ExperimentPlan:
    """Sweep offered-load multipliers over the overload-protected system,
    one shard per load multiplier.

    ``capacity``/``ground_capacity`` are requests per snapshot slot;
    ``num_requests`` is the load-1.0 stream size, scaled by each
    multiplier.

    A killed sweep loses at most one load point's system run; inflation
    columns are recomputed at merge time from the checkpointed baseline,
    so resumed output matches an uninterrupted sweep byte for byte.
    """
    config = _validated_config(
        seed, num_requests, loads, shell, capacity, ground_capacity,
        deadline_ms, flash_crowd, max_attempts,
    )
    ordered = tuple(config["loads"])
    shard_ids = tuple(f"load-{i:02d}" for i in range(len(ordered)))
    crowd = None if flash_crowd is None else tuple(float(x) for x in flash_crowd)

    def run_shard(shard_id: str) -> dict:
        load = ordered[shard_ids.index(shard_id)]
        ctx = _sweep_context(seed, shell)
        return _sweep_point(
            ctx, load, seed, num_requests, capacity, ground_capacity,
            deadline_ms, crowd, max_attempts,
        )

    def merge(payloads: dict) -> OverloadResult:
        raw_points = [payloads[shard_id] for shard_id in shard_ids]
        points = points_from_raw(raw_points, OverloadPoint)
        return OverloadResult(shell=shell, points=points)

    return ExperimentPlan(
        experiment="overload",
        config=config,
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=format_result,
    )


run = in_memory(build_plan)


def _fmt_ratio(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def format_result(result: OverloadResult) -> str:
    rows = []
    for p in result.points:
        rows.append(
            (
                f"{p.load:g}x",
                f"{p.offered_rps:.2f}",
                _fmt_ratio(p.availability),
                _fmt_ratio(p.shed_fraction),
                f"{p.goodput_rps:.2f}",
                p.p50_rtt_ms,
                p.p99_rtt_ms,
                f"{p.p50_inflation:.2f}x",
                f"{p.p99_inflation:.2f}x",
            )
        )
    table = format_table(
        (
            "load",
            "offered rps",
            "availability",
            "shed frac",
            "goodput rps",
            "p50 RTT (ms)",
            "p99",
            "p50 infl",
            "p99 infl",
        ),
        rows,
    )
    worst = max(result.points, key=lambda p: p.load)
    return table + (
        f"\nshell: {result.shell}; load {result.baseline.load:g}x = "
        f"{result.baseline.requests} requests over {SWEEP_STREAM_DURATION_S:g} s"
        f"\nat {worst.load:g}x offered: availability "
        f"{_fmt_ratio(worst.availability)}, shed "
        f"{_fmt_ratio(worst.shed_fraction)} "
        f"({worst.deadline_exhausted} to deadlines), goodput "
        f"{worst.goodput_rps:.2f} rps, {worst.retries} retries / "
        f"{worst.timeouts} timeouts / {worst.unavailable} unavailable"
    )
