"""The request-level sweep scaffold that chaos and overload share."""

import math
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments import chaos, overload
from repro.experiments.sweep import points_from_raw
from repro.runner.engine import ExperimentRunner


@dataclass(frozen=True)
class _Point:
    value: float
    p50_rtt_ms: float
    p99_rtt_ms: float
    p50_inflation: float
    p99_inflation: float


@pytest.mark.parametrize("module", [chaos, overload], ids=["chaos", "overload"])
def test_unknown_shell_fails_at_plan_time(module, tmp_path):
    """``build_plan`` refuses an unknown shell, so the runner never makes a
    run directory or burns a shard's attempts on it."""
    run_dir = tmp_path / "run"
    with pytest.raises(ConfigurationError, match="unknown shell 'nope'"):
        ExperimentRunner(plan=module.build_plan(shell="nope"), run_dir=run_dir)
    assert not run_dir.exists()


def test_baseline_is_the_first_point_with_rtt_samples():
    """A first point with no RTT samples (NaN p50) is not the inflation
    baseline; the next point is."""
    nan = float("nan")
    raw = [
        {"value": 0.0, "p50_rtt_ms": nan, "p99_rtt_ms": nan},
        {"value": 0.1, "p50_rtt_ms": 10.0, "p99_rtt_ms": 20.0},
        {"value": 0.3, "p50_rtt_ms": 15.0, "p99_rtt_ms": 50.0},
    ]
    first, second, third = points_from_raw(raw, _Point)
    assert math.isnan(first.p50_inflation) and math.isnan(first.p99_inflation)
    assert (second.p50_inflation, second.p99_inflation) == (1.0, 1.0)
    assert (third.p50_inflation, third.p99_inflation) == (1.5, 2.5)
