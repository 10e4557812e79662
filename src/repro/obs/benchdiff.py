"""``repro obs diff`` — the bench-regression gate over ``BENCH_*.json``.

The repo's performance claims (≈3.1M req/min batched serving, parallel
shard throughput, kernel timings) live in committed ``BENCH_*.json``
files. This module turns them from folklore into a gate: flatten two
benchmark documents into dotted-path → number maps, compare every metric
whose name declares a direction (``*_seconds`` must not grow, ``*_per_min``
must not shrink), and fail — non-zero exit in the CLI — when any metric
regresses past its threshold.

Only *performance* leaves are compared. Configuration echoes (seeds, shard
counts, request counts) and environment records (``machine_info``) carry
no direction and are ignored, so a diff between two runs of the same
benchmark script never trips over its parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.tables import format_table
from repro.atomicio import read_artifact_text
from repro.errors import ObsError

DEFAULT_THRESHOLD_PCT = 20.0

_IGNORED_KEYS = frozenset(
    {"machine_info", "commit_info", "datetime", "version", "benchmarks_version"}
)

_LOWER_EXACT = frozenset({"min", "max", "mean", "median", "min_s", "mean_s", "max_s", "total_s"})
_LOWER_SUBSTRINGS = ("seconds", "latency", "_ms", "rtt")
_HIGHER_EXACT = frozenset({"ops"})
_HIGHER_SUBSTRINGS = ("per_min", "per_second", "per_sec", "speedup", "throughput")


def metric_direction(leaf_key: str) -> str | None:
    """``"lower"``/``"higher"`` = which way is better; ``None`` = not a
    performance metric (configuration echo, count, environment record)."""
    key = leaf_key.lower()
    if key in _LOWER_EXACT:
        return "lower"
    if key in _HIGHER_EXACT:
        return "higher"
    if any(token in key for token in _HIGHER_SUBSTRINGS):
        return "higher"
    if any(token in key for token in _LOWER_SUBSTRINGS):
        return "lower"
    return None


def flatten_benchmark(doc: object, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a benchmark document as ``dotted.path -> value``.

    Lists of named objects (pytest-benchmark's ``"benchmarks"`` array) are
    keyed by their ``name`` field; anonymous lists are environment noise
    and are skipped.
    """
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in _IGNORED_KEYS:
                continue
            out.update(flatten_benchmark(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        if doc and all(isinstance(item, dict) and "name" in item for item in doc):
            for item in doc:
                out.update(flatten_benchmark(item, f"{prefix}{item['name']}."))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)) and math.isfinite(doc):
        out[prefix.rstrip(".")] = float(doc)
    return out


@dataclass(frozen=True)
class MetricDiff:
    """One compared metric: values, budget, and the verdict."""

    metric: str
    direction: str
    old: float | None
    new: float | None
    change_pct: float | None
    threshold_pct: float
    status: str  # "ok" | "improved" | "regression" | "missing" | "new"

    @property
    def is_regression(self) -> bool:
        return self.status in ("regression", "missing")


def diff_benchmarks(
    old_doc: object,
    new_doc: object,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    per_metric: dict[str, float] | None = None,
) -> list[MetricDiff]:
    """Compare every directional metric of two benchmark documents.

    ``threshold_pct`` is the default allowed adverse change; ``per_metric``
    overrides it for specific dotted paths. A metric present in the old
    document but absent from the new one is a regression (the number being
    guarded disappeared); a metric new in the new document is reported as
    informational. Budgets must be finite and non-negative: a NaN budget
    would pass every comparison, a negative one would fail every metric.
    """
    per_metric = per_metric or {}
    budgets = {"--threshold": threshold_pct}
    budgets.update((f"--metric {path}", pct) for path, pct in per_metric.items())
    for flag, budget in budgets.items():
        if not (math.isfinite(budget) and budget >= 0.0):
            raise ObsError(
                f"{flag} budget must be a finite, non-negative percent, "
                f"got {budget:g}"
            )
    old = {
        path: value
        for path, value in flatten_benchmark(old_doc).items()
        if metric_direction(path.rsplit(".", 1)[-1]) is not None
    }
    new = {
        path: value
        for path, value in flatten_benchmark(new_doc).items()
        if metric_direction(path.rsplit(".", 1)[-1]) is not None
    }
    unknown = sorted(set(per_metric) - set(old) - set(new))
    if unknown:
        raise ObsError(
            f"--metric override(s) {unknown} match no metric in either "
            f"document; known metrics: {sorted(old)}"
        )

    diffs: list[MetricDiff] = []
    for path in sorted(set(old) | set(new)):
        direction = metric_direction(path.rsplit(".", 1)[-1])
        budget = per_metric.get(path, threshold_pct)
        if path not in new:
            diffs.append(
                MetricDiff(path, direction, old[path], None, None, budget, "missing")
            )
            continue
        if path not in old:
            diffs.append(
                MetricDiff(path, direction, None, new[path], None, budget, "new")
            )
            continue
        old_value, new_value = old[path], new[path]
        if old_value == 0.0:
            change_pct = 0.0 if new_value == 0.0 else math.inf
        else:
            change_pct = (new_value - old_value) / abs(old_value) * 100.0
        adverse = change_pct if direction == "lower" else -change_pct
        if adverse > budget:
            status = "regression"
        elif adverse < 0.0:
            status = "improved"
        else:
            status = "ok"
        diffs.append(
            MetricDiff(path, direction, old_value, new_value, change_pct, budget, status)
        )
    return diffs


def has_regressions(diffs: list[MetricDiff]) -> bool:
    return any(diff.is_regression for diff in diffs)


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == 0.0 or 0.001 <= abs(value) < 1e7:
        return f"{value:.4g}"
    return f"{value:.3e}"


def format_diff(diffs: list[MetricDiff]) -> str:
    """Render the comparison as an aligned table plus a one-line verdict."""
    if not diffs:
        return "no comparable performance metrics found in either document"
    rows = [
        (
            diff.metric,
            diff.direction,
            _fmt(diff.old),
            _fmt(diff.new),
            "-" if diff.change_pct is None else f"{diff.change_pct:+.1f}%",
            f"{diff.threshold_pct:g}%",
            diff.status.upper() if diff.is_regression else diff.status,
        )
        for diff in diffs
    ]
    table = format_table(
        ("metric", "better", "old", "new", "change", "budget", "status"), rows
    )
    regressions = [diff for diff in diffs if diff.is_regression]
    if regressions:
        verdict = (
            f"REGRESSION: {len(regressions)} of {len(diffs)} metric(s) "
            f"exceeded their budget"
        )
    else:
        verdict = f"ok: {len(diffs)} metric(s) within budget"
    return f"{table}\n\n{verdict}"


def load_benchmark(path: str | Path) -> object:
    """Parse one ``BENCH_*.json`` document."""
    text = read_artifact_text(path, "benchmark file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path} is not valid JSON: {exc}") from exc


def diff_benchmark_files(
    old_path: str | Path,
    new_path: str | Path,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    per_metric: dict[str, float] | None = None,
) -> list[MetricDiff]:
    """File-level convenience wrapper (the ``repro obs diff`` body)."""
    return diff_benchmarks(
        load_benchmark(old_path),
        load_benchmark(new_path),
        threshold_pct=threshold_pct,
        per_metric=per_metric,
    )
