#!/usr/bin/env python3
"""Fault injection and degraded-mode serving: what failures cost SpaceCDN.

Sweeps satellite-outage fractions over the request-level system (via
``repro.faults``) and reports availability, latency inflation and
hit-ratio degradation; then walks one request through the fallback ladder
by hand to show the retry machinery.

Run:  python examples/chaos_sweep.py
"""

import numpy as np

from repro.cdn.content import build_catalog
from repro.errors import UnavailableError
from repro.experiments import chaos
from repro.experiments.shells import small_constellation
from repro.faults.processes import OutageWindow, TransientAttemptLoss
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.spacecdn.system import SpaceCdnSystem


def main() -> None:
    print("chaos sweep (small 6x8 shell, smoke scale):")
    result = chaos.run(shell="small", num_requests=60, fractions=(0.0, 0.1, 0.3))
    print(chaos.format_result(result))

    # One request through the degraded path, by hand.
    constellation = small_constellation()
    catalog = build_catalog(
        np.random.default_rng(0), 50, regions=("africa",), kind_weights={"web": 1.0}
    )
    user = GeoPoint(0.0, 0.0, 0.0)
    schedule = (
        FaultSchedule()
        .add(OutageWindow(satellites=frozenset({20})))
        .add(TransientAttemptLoss(probability=0.6, seed=1))
    )
    system = SpaceCdnSystem(
        constellation=constellation,
        catalog=catalog,
        cache_bytes_per_satellite=10**9,
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_attempts=5),
    )
    system.preload({"obj-000002": frozenset({20})})
    served = system.serve(user, "obj-000002", 0.0)
    print(
        f"\ndegraded serve: replica holder failed (cache wiped), 60% transient "
        f"loss ->\n  source={served.source.value} attempts={served.attempts} "
        f"fallback_reason={served.fallback_reason} rtt={served.rtt_ms:.1f} ms"
    )

    # With every attempt lost, the ladder (ground rung included) runs dry.
    dark = FaultSchedule().add(TransientAttemptLoss(probability=1.0))
    dark_system = SpaceCdnSystem(
        constellation=constellation, catalog=catalog, fault_schedule=dark
    )
    try:
        dark_system.serve(user, "obj-000002", 0.0)
    except UnavailableError as exc:
        print(f"\ntotal transient loss -> UnavailableError: {exc}")
    print(
        f"availability after the failed request: "
        f"{dark_system.stats.availability:.1f} "
        f"({dark_system.stats.unavailable} unavailable)"
    )


if __name__ == "__main__":
    main()
