"""The one scaffold behind the request-level sweeps (chaos, overload).

Both sweeps serve the SpaceCDN ladder request by request, one shard per
value of their axis (the failed share of the fleet, or an offered-load
multiplier). This module holds all they share: the catalog, preload and
request stream, plan-time validation, shard ids, the one
:class:`SpaceCdnSystem` a point serves through, the payload fields both
report and the inflation merge. Figs. 7-8 never import it, so they load
no serve walk, catalog or workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro.analysis.quantiles import sample_quantiles
from repro.cdn.content import Catalog, build_catalog
from repro.errors import ConfigurationError, FaultConfigError
from repro.experiments.shells import shell1_constellation, small_constellation
from repro.faults.retry import RetryPolicy
from repro.geo.datasets.cities import all_cities
from repro.obs.recorder import get_recorder
from repro.orbits.walker import Constellation
from repro.runner.shards import ExperimentPlan
from repro.simulation.sampler import seeded_rng
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.system import SpaceCdnSystem, SystemStats
from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
from repro.workloads.requests import Request, RequestGenerator

SWEEP_CATALOG_REGIONS: tuple[str, ...] = ("africa", "europe")
"""Home regions of the sweeps' catalog and of the cities that request it."""

SWEEP_STREAM_DURATION_S = 300.0
"""Request streams span five snapshot slots, so faults, per-slot capacity
resets and breaker cooldowns interact with the rotating topology, not a
single frozen graph."""


def sweep_constellation(shell: str) -> Constellation:
    """The shell a sweep runs on: ``"shell1"`` or the ``"small"`` smoke shell."""
    if shell == "shell1":
        return shell1_constellation()
    if shell == "small":
        return small_constellation()
    raise ConfigurationError(f"unknown shell {shell!r}; choose 'shell1' or 'small'")


def sweep_catalog(
    seed: int, salt: int, constellation: Constellation
) -> tuple[Catalog, dict[str, frozenset[int]]]:
    """A sweep's 120-object web catalog (drawn from ``seeded_rng(seed,
    salt)``) and its preload: every region's top 10 objects, one copy per
    orbital plane."""
    catalog = build_catalog(
        seeded_rng(seed, salt),
        120,
        regions=SWEEP_CATALOG_REGIONS,
        kind_weights={"web": 1.0},
    )
    placement = KPerPlanePlacement(copies_per_plane=1)
    popular = RegionalPopularity(catalog=catalog, seed=seed)
    preload = {
        object_id: placement.place_object(object_id, constellation.config)
        for region in popular.regions()
        for object_id in popular.top_objects(region, 10)
    }
    return catalog, preload


def sweep_requests(
    catalog: Catalog,
    num_requests: int,
    seed: int,
    mixer_salt: int,
    stream_salt: int,
) -> list[Request]:
    """A time-ordered Poisson stream over the catalog's home regions.

    The object mix draws from ``seeded_rng(seed, mixer_salt)`` and the
    arrivals from ``seeded_rng(seed, stream_salt)``.
    """
    cities = tuple(
        c for c in all_cities() if c.country.region in SWEEP_CATALOG_REGIONS
    )
    mixer = RegionalRequestMixer(
        popularity=RegionalPopularity(catalog=catalog, seed=seed),
        rng=seeded_rng(seed, mixer_salt),
    )
    generator = RequestGenerator(
        cities=cities,
        mixer=mixer,
        requests_per_second_total=num_requests / SWEEP_STREAM_DURATION_S,
        rng=seeded_rng(seed, stream_salt),
    )
    return generator.generate_list(SWEEP_STREAM_DURATION_S)


def points_from_raw(raw_points: list[dict], point_cls: type) -> tuple:
    """Fold raw sweep points (in axis order) into ``point_cls`` instances.

    The inflation baseline is the first point with RTT samples (a non-NaN
    p50), not necessarily the axis's first value.
    """
    points = []
    baseline_p50 = baseline_p99 = float("nan")
    for raw in raw_points:
        p50, p99 = raw["p50_rtt_ms"], raw["p99_rtt_ms"]
        if np.isnan(baseline_p50):
            baseline_p50, baseline_p99 = p50, p99
        points.append(
            point_cls(
                p50_inflation=p50 / baseline_p50 if baseline_p50 else float("nan"),
                p99_inflation=p99 / baseline_p99 if baseline_p99 else float("nan"),
                **raw,
            )
        )
    return tuple(points)


def fmt_ratio(value: float | None) -> str:
    """A share as the result tables print it (``n/a``: no requests)."""
    return "n/a" if value is None else f"{value:.3f}"


@dataclass(frozen=True)
class Sweep:
    """What one request-level experiment plugs into the scaffold.

    ``experiment`` names the plan, the ``<experiment>.sweep_point`` timer
    and the ``repro_<experiment>_availability`` gauge. ``axis`` (say
    ``"fraction"``) is the shard-id prefix, payload key and obs label of a
    point; its plural is the config key. Errors call it ``noun``, and every
    value must pass ``in_range``, which ``rule`` says in words. A
    ``scaled_stream`` sweep draws a stream of ``num_requests`` times the
    axis value per point; otherwise every point serves one shared stream.
    ``stream_salts`` are the stream's object-mix and arrival salts.
    ``result_cls`` takes ``shell`` and the merged ``points``.
    """

    experiment: str
    axis: str
    noun: str
    rule: str
    in_range: Callable[[float], bool]
    catalog_salt: int
    stream_salts: tuple[int, int]
    scaled_stream: bool
    point_cls: type
    result_cls: Callable[..., Any]
    format: Callable[[Any], str]


@dataclass(eq=False)
class SweepContext:
    """The axis-independent artifacts every point of a sweep shares."""

    constellation: Constellation
    catalog: Catalog
    preload: dict[str, frozenset[int]]


@lru_cache(maxsize=2)
def sweep_context(seed: int, shell: str, catalog_salt: int) -> SweepContext:
    """What the points share, built once per configuration and process."""
    constellation = sweep_constellation(shell)
    catalog, preload = sweep_catalog(seed, catalog_salt, constellation)
    return SweepContext(constellation=constellation, catalog=catalog, preload=preload)


@lru_cache(maxsize=2)
def _shared_stream(
    seed: int, shell: str, sweep: Sweep, num_requests: int
) -> list[Request]:
    """The one request stream that every point of an unscaled sweep serves."""
    catalog = sweep_context(seed, shell, sweep.catalog_salt).catalog
    return sweep_requests(catalog, num_requests, seed, *sweep.stream_salts)


@dataclass(frozen=True)
class SweepPoint:
    """One axis value of a sweep plan, as a point function gets it."""

    sweep: Sweep
    value: float
    seed: int
    shell: str
    num_requests: int
    max_attempts: int

    @property
    def context(self) -> SweepContext:
        return sweep_context(self.seed, self.shell, self.sweep.catalog_salt)

    @property
    def labels(self) -> tuple[tuple[str, str], ...]:
        """The obs labels of this point's windows and gauges."""
        return ((self.sweep.axis, f"{self.value:g}"),)

    def serve(self, **system_kwargs: Any) -> SystemStats:
        """Serve this point's stream through one fresh, preloaded system;
        ``system_kwargs`` are the experiment's own (fault schedule,
        overload model)."""
        rec = get_recorder()
        ctx, sweep = self.context, self.sweep
        with rec.timer(f"{sweep.experiment}.sweep_point"):
            if sweep.scaled_stream:
                count = max(1, int(round(self.num_requests * self.value)))
                requests = sweep_requests(
                    ctx.catalog, count, self.seed, *sweep.stream_salts
                )
            else:
                requests = _shared_stream(self.seed, self.shell, sweep, self.num_requests)
            system = SpaceCdnSystem(
                constellation=ctx.constellation,
                catalog=ctx.catalog,
                cache_bytes_per_satellite=10**9,
                retry_policy=RetryPolicy(max_attempts=self.max_attempts),
                **system_kwargs,
            )
            system.preload(ctx.preload)
            if rec.enabled:
                # Offered load per simulated-time window: the demand side of
                # the time series, recorded before serving so shed and
                # unavailable windows still show what arrived.
                labels = self.labels
                for request in requests:
                    rec.window_inc(request.t_s, "repro_offered_total", labels)
            system.run(requests, continue_on_unavailable=True)
        stats = system.stats
        if rec.enabled and stats.availability is not None:
            rec.set_gauge(
                f"repro_{sweep.experiment}_availability", stats.availability, self.labels
            )
        return stats

    def payload(self, stats: SystemStats, **fields: Any) -> dict:
        """The raw fields both sweeps report, then the experiment's own
        ``fields`` (inflations are merge-time: they need the baseline)."""
        p50, p99 = sample_quantiles(stats.rtt_samples_ms, (0.5, 0.99))
        return {
            self.sweep.axis: self.value,
            "requests": stats.requests,
            "availability": stats.availability,
            "p50_rtt_ms": p50,
            "p99_rtt_ms": p99,
            "timeouts": stats.timeouts,
            "retries": stats.retries,
            "unavailable": stats.unavailable,
            **fields,
        }


def build_plan(
    sweep: Sweep,
    values: tuple[float, ...],
    point: Callable[[SweepPoint], dict],
    *,
    seed: int,
    num_requests: int,
    shell: str,
    max_attempts: int,
    config: dict | None = None,
) -> ExperimentPlan:
    """A plan with one shard per axis value, in ascending order.

    Misconfiguration fails here, before any shard burns its budget on it;
    ``config`` holds the experiment's own config fields, which it checks
    itself. A killed sweep loses at most one point's run: inflations are
    recomputed at merge time, so a resumed sweep prints the same bytes.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not values:
        raise ConfigurationError(f"need at least one {sweep.noun}")
    for value in values:
        if not sweep.in_range(value):
            raise FaultConfigError(f"{sweep.noun}s must be {sweep.rule}, got {value:g}")
    sweep_constellation(shell)
    RetryPolicy(max_attempts=max_attempts)
    ordered = tuple(sorted(values))
    shard_ids = tuple(f"{sweep.axis}-{i:02d}" for i in range(len(ordered)))

    def run_shard(shard_id: str) -> dict:
        value = ordered[shard_ids.index(shard_id)]
        return point(SweepPoint(sweep, value, seed, shell, num_requests, max_attempts))

    def merge(payloads: dict):
        raw_points = [payloads[shard_id] for shard_id in shard_ids]
        return sweep.result_cls(
            shell=shell, points=points_from_raw(raw_points, sweep.point_cls)
        )

    return ExperimentPlan(
        experiment=sweep.experiment,
        config={
            "experiment": sweep.experiment,
            "seed": seed,
            "num_requests": num_requests,
            f"{sweep.axis}s": list(ordered),
            "shell": shell,
            **(config or {}),
            "max_attempts": max_attempts,
        },
        shard_ids=shard_ids,
        run_shard=run_shard,
        merge=merge,
        format=sweep.format,
    )
