"""Overload sweep: offered load vs availability, shedding, and goodput.

The chaos sweep removes capacity; this one outruns it. The request-level
system runs under an :class:`~repro.overload.model.OverloadModel` while the
offered load is swept as a multiplier over a baseline stream, optionally
with a :class:`~repro.faults.processes.FlashCrowdProcess` consuming background
capacity mid-run. Per load point: availability, shed fraction (split out
from fault unavailability), goodput, p50/p99 RTT and their inflation over
the sweep's baseline — the curve that shows graceful degradation
past the knee instead of a cliff.

Every sweep point — including the lightest — runs the same overloaded
serving path so the comparison isolates the *load*, not the code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.errors import FaultConfigError
from repro.experiments import sweep
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.sweep import SWEEP_STREAM_DURATION_S
from repro.faults.processes import FlashCrowdProcess
from repro.faults.schedule import FaultSchedule
from repro.obs.recorder import get_recorder
from repro.overload.model import OverloadModel
from repro.runner.shards import ExperimentPlan, in_memory

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
    """p50 RTT over the p50 of the lightest load with RTT samples (queueing
    delay and retry backoff both inflate it as the knee approaches)."""
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
        window = tuple(float(part) for part in parts)
    except ValueError as exc:
        raise FaultConfigError(f"non-numeric flash crowd field in {spec!r}") from exc
    _flash_crowd(window)
    return window


def _flash_crowd(window: tuple[float, float, float]) -> FlashCrowdProcess:
    start_s, end_s, extra = window
    return FlashCrowdProcess(
        extra_requests_per_slot=extra, start_s=start_s, end_s=end_s
    )


def _sweep_point(
    point: sweep.SweepPoint,
    model_kwargs: dict,
    flash_crowd: tuple[float, float, float] | None,
) -> dict:
    """One load multiplier's raw measurements."""
    schedule = None
    if flash_crowd is not None:
        schedule = FaultSchedule().add(_flash_crowd(flash_crowd))
    stats = point.serve(
        fault_schedule=schedule, overload=OverloadModel(**model_kwargs, seed=point.seed)
    )
    goodput_rps = stats.served / SWEEP_STREAM_DURATION_S
    rec = get_recorder()
    if rec.enabled:
        if stats.shed_fraction is not None:
            rec.set_gauge(
                "repro_overload_shed_fraction", stats.shed_fraction, point.labels
            )
        rec.set_gauge("repro_overload_goodput_rps", goodput_rps, point.labels)
    return point.payload(
        stats,
        offered_rps=stats.requests / SWEEP_STREAM_DURATION_S,
        shed_fraction=stats.shed_fraction,
        goodput_rps=goodput_rps,
        shed=stats.shed,
        deadline_exhausted=stats.deadline_exhausted,
    )


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
    multiplier. The overload model and the flash-crowd window are
    constructed once here, so their misconfiguration fails at plan time.
    """
    model_kwargs = dict(
        capacity_per_slot=capacity,
        ground_capacity_per_slot=ground_capacity,
        deadline_ms=deadline_ms,
    )
    OverloadModel(**model_kwargs, seed=seed)
    crowd = None
    if flash_crowd is not None:
        if len(flash_crowd) != 3:
            raise FaultConfigError(
                f"flash crowd must be (start, end, extra), got {flash_crowd!r}"
            )
        crowd = tuple(float(x) for x in flash_crowd)
        _flash_crowd(crowd)
    return sweep.build_plan(
        SWEEP,
        tuple(float(load) for load in loads),
        lambda point: _sweep_point(point, model_kwargs, crowd),
        seed=seed, num_requests=num_requests, shell=shell, max_attempts=max_attempts,
        config={
            "capacity": capacity,
            "ground_capacity": ground_capacity,
            "deadline_ms": deadline_ms,
            "flash_crowd": None if crowd is None else list(crowd),
        },
    )


run = in_memory(build_plan)


def format_result(result: OverloadResult) -> str:
    rows = [
        (
            f"{p.load:g}x",
            f"{p.offered_rps:.2f}",
            sweep.fmt_ratio(p.availability),
            sweep.fmt_ratio(p.shed_fraction),
            f"{p.goodput_rps:.2f}",
            p.p50_rtt_ms,
            p.p99_rtt_ms,
            f"{p.p50_inflation:.2f}x",
            f"{p.p99_inflation:.2f}x",
        )
        for p in result.points
    ]
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
        f"{sweep.fmt_ratio(worst.availability)}, shed "
        f"{sweep.fmt_ratio(worst.shed_fraction)} "
        f"({worst.deadline_exhausted} to deadlines), goodput "
        f"{worst.goodput_rps:.2f} rps, {worst.retries} retries / "
        f"{worst.timeouts} timeouts / {worst.unavailable} unavailable"
    )


SWEEP = sweep.Sweep(
    experiment="overload",
    axis="load",
    noun="load multiplier",
    rule="positive and finite",
    in_range=lambda load: math.isfinite(load) and load > 0.0,
    catalog_salt=0x0BAD2,
    stream_salts=(0x0BAD0, 0x0BAD1),
    scaled_stream=True,
    point_cls=OverloadPoint,
    result_cls=OverloadResult,
    format=format_result,
)
