"""Ablation: copies-per-plane vs worst-case hop distance (paper §4 claim).

"With around 4 copies distributed within each plane, an object can be
reachable within 5 hops, even within a single orbital plane; fewer copies
would be needed if east-west ISLs across orbital planes are also used."
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.shells import shell1_snapshot
from repro.orbits.elements import starlink_shell1
from repro.spacecdn.placement import KPerPlanePlacement, RandomPlacement, replica_hop_profile


def _sweep():
    shell = starlink_shell1()
    snapshot = shell1_snapshot(0.0)
    rows = []
    for copies in (1, 2, 4, 8):
        holders = KPerPlanePlacement(copies_per_plane=copies).place_object(
            "ablation-object", shell
        )
        profile = replica_hop_profile(snapshot, holders)
        hops = np.array(list(profile.values()))
        rows.append(
            (
                f"{copies}/plane ({len(holders)} total)",
                int(hops.max()),
                float(hops.mean()),
            )
        )
    # Random placement with the same total copy count as 4/plane.
    total = 4 * shell.num_planes
    holders = RandomPlacement(
        total_copies=total, rng=np.random.default_rng(0)
    ).place_object("ablation-object", shell)
    profile = replica_hop_profile(snapshot, holders)
    hops = np.array(list(profile.values()))
    rows.append((f"random ({total} total)", int(hops.max()), float(hops.mean())))
    return rows


def test_placement_sweep(benchmark, emit):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "Ablation: replica placement vs hop distance",
        format_table(("placement", "max hops", "mean hops"), rows, float_fmt="{:.2f}"),
    )

    by_name = {name: (worst, mean) for name, worst, mean in rows}
    # The paper's claim: 4 copies per plane -> reachable within 5 hops.
    assert by_name["4/plane (288 total)"][0] <= 5
    # More copies never makes the worst case worse.
    worsts = [worst for _, worst, _ in rows[:4]]
    assert worsts == sorted(worsts, reverse=True)
