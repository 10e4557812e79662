"""Ablation: placement resilience under satellite failures.

Sweeps the failed-satellite fraction and reports how the paper's 4-per-plane
placement degrades — reachability, worst-case and mean hop distance — and
contrasts it with a sparser 1-per-plane placement.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.shells import shell1_snapshot
from repro.orbits.elements import starlink_shell1
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.resilience import placement_under_failures, random_failure_set

FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.3)


def _sweep():
    shell = starlink_shell1()
    snapshot = shell1_snapshot(0.0)
    rng = np.random.default_rng(7)
    rows = []
    for copies in (1, 4):
        holders = KPerPlanePlacement(copies_per_plane=copies).place_object(
            "resilience-object", shell
        )
        for fraction in FRACTIONS:
            failed = random_failure_set(shell.total_satellites, fraction, rng)
            report = placement_under_failures(snapshot, holders, failed)
            rows.append(
                (
                    f"{copies}/plane @ {fraction:.0%} failed",
                    report.surviving_replicas,
                    report.reachable_fraction,
                    report.worst_case_hops,
                    report.mean_hops,
                )
            )
    return rows


def test_resilience_sweep(benchmark, emit):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "Ablation: placement resilience vs failure fraction",
        format_table(
            ("scenario", "replicas left", "reachable", "worst hops", "mean hops"),
            rows,
            float_fmt="{:.2f}",
        ),
    )

    by_name = {name: rest for name, *rest in rows}
    # Moderate failures: the 4/plane placement keeps everyone reachable
    # with bounded hop inflation.
    assert by_name["4/plane @ 10% failed"][1] == 1.0
    assert by_name["4/plane @ 10% failed"][2] <= 9
    # Heavy failures isolate a few grid islands (all four ISL neighbours
    # dead) — reachability stays near-total but not perfect.
    assert by_name["4/plane @ 30% failed"][1] >= 0.97
    # Dense placement dominates sparse on mean hop distance throughout.
    for fraction in FRACTIONS:
        dense = by_name[f"4/plane @ {fraction:.0%} failed"][3]
        sparse = by_name[f"1/plane @ {fraction:.0%} failed"][3]
        assert dense < sparse
