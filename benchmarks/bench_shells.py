"""Ablation: SpaceCDN hop-ladder latency across constellation shells.

The paper simulates Shell 1 only; this ablation re-runs the Fig. 7 hop
ladder on the other public Starlink shells and a Gen2-style VLEO shell.
Lower altitude shortens access links; denser planes shorten ISL hops —
both push the SpaceCDN curves left.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.network.access import access_latency_ms
from repro.orbits.elements import (
    oneweb_phase1,
    starlink_shell1,
    starlink_shell3,
    starlink_vleo,
)
from repro.orbits.visibility import nearest_visible_satellite
from repro.orbits.walker import build_walker_delta
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.topology import fastcore
from repro.topology.graph import build_snapshot


def _median_rtts(shell, users):
    constellation = build_walker_delta(shell)
    snapshot = build_snapshot(constellation, 0.0)
    per_hop: dict[int, list[float]] = {0: [], 3: [], 5: []}
    served = 0
    for user in users:
        try:
            access = nearest_visible_satellite(constellation, user, 0.0)
        except Exception:
            continue  # VLEO/70-deg shells have different coverage bands
        served += 1
        access_ms = access_latency_ms(access.slant_range_km)
        ladder = fastcore.hop_ladder_batch(snapshot.core, [access.index], 5)[0]
        for hops in per_hop:
            if not np.isnan(ladder[hops]):
                per_hop[hops].append(
                    2.0 * (access_ms + ladder[hops]) + CDN_SERVER_THINK_TIME_MS
                )
    return served, {h: float(np.median(v)) for h, v in per_hop.items() if v}


def _sweep():
    rng = seeded_rng(7, 0x5E11)
    users = user_sample_points(rng, 25, max_abs_latitude_deg=50.0)
    rows = []
    shells = (starlink_shell1(), starlink_shell3(), starlink_vleo(), oneweb_phase1())
    for shell in shells:
        served, medians = _median_rtts(shell, users)
        rows.append(
            (
                shell.name,
                shell.total_satellites,
                medians.get(0, float("nan")),
                # OneWeb has no ISLs: hop curves are structurally absent.
                medians.get(3, float("nan")),
                medians.get(5, float("nan")),
            )
        )
    return rows


def test_shell_sweep(benchmark, emit):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "Ablation: SpaceCDN hop-ladder RTT medians by shell (ms)",
        format_table(
            ("shell", "satellites", "1st/Sat", "3 ISLs", "5 ISLs"), rows
        ),
    )

    import math

    by_shell = {name: rest for name, *rest in rows}
    # VLEO's shorter slant ranges beat Shell 1 at the access hop.
    assert by_shell["starlink-vleo"][1] < by_shell["starlink-shell1"][1]
    # OneWeb's 1200 km altitude costs it at the access hop, and it has no
    # ISL curves at all (bent pipe only).
    assert by_shell["oneweb-phase1"][1] > by_shell["starlink-shell1"][1]
    assert math.isnan(by_shell["oneweb-phase1"][2])
    # Every ISL shell keeps the 5-hop RTT under typical Starlink RTTs.
    assert all(
        row[4] < 80.0 for row in rows if not math.isnan(row[4])
    )
