"""Benchmarks and guards for the overload-protected serve path.

Two jobs:

* ``pytest benchmarks/bench_overload.py`` — guard that a saturating cohort
  through the overloaded walk stays well ahead of calling ``serve`` once
  per request (each call a cohort of one), that the bench workload
  actually exercises the protections (some shedding, never total
  collapse), and that both ways of calling agree element-wise on this
  exact workload.
* ``python benchmarks/bench_overload.py --emit BENCH_overload.json`` —
  measure and dump the throughput/speedup/shedding summary as JSON (CI
  gates it against the committed baseline via ``repro obs diff``).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.cdn.content import build_catalog
from repro.errors import UnavailableError
from repro.faults.processes import FlashCrowdProcess
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.overload.model import OverloadModel
from repro.spacecdn.system import SpaceCdnSystem

CONSTELLATION = build_walker_delta(starlink_shell1())
CATALOG = build_catalog(
    np.random.default_rng(1),
    60,
    regions=("africa", "europe"),
    kind_weights={"web": 1.0},
)
OBJECTS = sorted(o.object_id for o in CATALOG)

OVERLOAD_COHORT = 2_400
TARGET_OVERLOAD_SPEEDUP = 3.0


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


def _model() -> OverloadModel:
    """Tight enough that the cohort saturates its popular targets."""
    return OverloadModel(
        capacity_per_slot=20.0,
        ground_capacity_per_slot=800.0,
        deadline_ms=1500.0,
        seed=11,
    )


def _schedule() -> FaultSchedule:
    return FaultSchedule().add(
        FlashCrowdProcess(extra_requests_per_slot=1.0, start_s=0.0)
    )


def _make_system() -> SpaceCdnSystem:
    system = SpaceCdnSystem(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=_schedule(),
        overload=_model(),
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


def _time_batch(cohort) -> tuple[float, SpaceCdnSystem]:
    system = _make_system()
    users, oids, t = cohort
    start = time.perf_counter()
    system.serve_batch(users, oids, t, continue_on_unavailable=True)
    return time.perf_counter() - start, system


def _time_scalar(cohort, limit: int | None = None) -> float:
    system = _make_system()
    users, oids, t = cohort
    if limit is not None:
        users, oids = users[:limit], oids[:limit]
    start = time.perf_counter()
    for user, oid in zip(users, oids):
        try:
            system.serve(user, oid, t)
        except UnavailableError:  # covers OverloadedError sheds
            pass
    return time.perf_counter() - start


def measure() -> dict:
    """Overloaded cohort, both modes; one core, wall-clock."""
    cohort = _workload(OVERLOAD_COHORT, num_users=48, seed=3)
    batch_s, system = _time_batch(cohort)
    scalar_s = _time_scalar(cohort)
    stats = system.stats
    return {
        "shell": "shell1",
        "overloaded": {
            "requests": OVERLOAD_COHORT,
            "batch_seconds": batch_s,
            "scalar_seconds": scalar_s,
            "speedup": scalar_s / batch_s,
            "requests_per_min": OVERLOAD_COHORT / batch_s * 60.0,
            "shed": stats.shed,
            "deadline_exhausted": stats.deadline_exhausted,
            "unavailable": stats.unavailable,
        },
    }


def test_overloaded_batch_beats_scalar():
    """Even with the per-request admission/breaker walk, cohort serving
    must keep a clear lead over the scalar loop on a saturating workload."""
    cohort = _workload(OVERLOAD_COHORT, num_users=48, seed=3)
    batch_s = min(_time_batch(cohort)[0] for _ in range(3))
    scalar_s = _time_scalar(cohort)
    speedup = scalar_s / batch_s
    assert speedup >= TARGET_OVERLOAD_SPEEDUP, (
        f"overloaded batch only {speedup:.1f}x scalar "
        f"({scalar_s:.3f}s vs {batch_s:.3f}s for {OVERLOAD_COHORT} requests)"
    )


def test_bench_workload_actually_sheds():
    """The guard is meaningless if the workload never trips the
    protections — or if they collapse the whole cohort."""
    cohort = _workload(OVERLOAD_COHORT, num_users=48, seed=3)
    _, system = _time_batch(cohort)
    shed_fraction = system.stats.shed_fraction
    assert shed_fraction is not None and 0.0 < shed_fraction < 1.0
    assert system.stats.served > 0


def test_batch_results_match_scalar_on_bench_workload():
    """The bench workload itself double-checks equivalence end to end."""
    users, oids, t = _workload(300, num_users=24, seed=4)
    scalar_system = _make_system()
    expected = []
    for user, oid in zip(users, oids):
        try:
            expected.append(scalar_system.serve(user, oid, t))
        except UnavailableError:
            expected.append(None)
    batch_system = _make_system()
    actual = batch_system.serve_batch(users, oids, t, continue_on_unavailable=True)
    assert actual == expected
    assert batch_system.stats == scalar_system.stats


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        summary = measure()
        with open(argv[1], "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        overloaded = summary["overloaded"]
        print(
            f"wrote {argv[1]}: overloaded {overloaded['requests_per_min']:,.0f} "
            f"requests/min, speedup {overloaded['speedup']:.1f}x, "
            f"{overloaded['shed']} shed"
        )
        return 0
    print("usage: python benchmarks/bench_overload.py --emit BENCH_overload.json")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
