"""Test oracle for fleet obs: compare two metrics registries' aggregates.

The runner and obs-merge suites assert that an N-wide run's merged
counters and histograms equal the serial run's. :func:`registry_diff`
is that comparison; it reads each registry through its own
``snapshot_delta(drain=False)``, the form a worker ships.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry

FLEET_SERIES_PREFIXES = ("repro_runner_", "repro_obs_", "repro_profile_")
"""Metric-name prefixes the executor itself emits about the fleet; these
legitimately differ between serial and parallel runs of the same plan and
are excluded from :func:`registry_diff` by default."""


def _series(registry: MetricsRegistry, kind: str, keep) -> dict:
    return {
        (name, tuple(tuple(pair) for pair in labels)): value
        for name, labels, value in registry.snapshot_delta()[kind]
        if keep(name)
    }


def registry_diff(
    left: MetricsRegistry,
    right: MetricsRegistry,
    ignore_prefixes: tuple[str, ...] = FLEET_SERIES_PREFIXES,
    rel_tol: float = 1e-9,
) -> list[str]:
    """Human-readable differences between two registries' aggregates.

    Compares counters and histograms (the width-independent kinds); gauges
    are point-in-time per-process samples and are skipped. Float sums are
    compared with ``rel_tol`` because a parallel merge associates additions
    differently than a serial run. An empty list means the registries agree
    — the assertion behind "``--jobs 8`` equals ``--jobs 1``".
    """

    def keep(name: str) -> bool:
        return not any(name.startswith(prefix) for prefix in ignore_prefixes)

    problems: list[str] = []
    left_counters = _series(left, "counters", keep)
    right_counters = _series(right, "counters", keep)
    for key in sorted(set(left_counters) | set(right_counters)):
        a = left_counters.get(key)
        b = right_counters.get(key)
        if a is None or b is None:
            problems.append(f"counter {key}: {a} vs {b}")
        elif not math.isclose(a, b, rel_tol=rel_tol):
            problems.append(f"counter {key}: {a} != {b}")

    left_histograms = _series(left, "histograms", keep)
    right_histograms = _series(right, "histograms", keep)
    for key in sorted(set(left_histograms) | set(right_histograms)):
        a = left_histograms.get(key)
        b = right_histograms.get(key)
        if a is None or b is None:
            problems.append(f"histogram {key}: present only on one side")
            continue
        if a["bounds"] != b["bounds"]:
            problems.append(f"histogram {key}: bounds {a['bounds']} != {b['bounds']}")
        if a["bucket_counts"] != b["bucket_counts"] or a["count"] != b["count"]:
            problems.append(
                f"histogram {key}: buckets {a['bucket_counts']}/{a['count']} != "
                f"{b['bucket_counts']}/{b['count']}"
            )
        if not math.isclose(a["total"], b["total"], rel_tol=rel_tol):
            problems.append(f"histogram {key}: total {a['total']} != {b['total']}")
    return problems
