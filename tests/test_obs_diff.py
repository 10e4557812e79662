"""Unit and CLI tests for the bench-regression gate (``repro obs diff``)."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import EXIT_ERROR, EXIT_REGRESSION, main
from repro.errors import ObsError
from repro.obs.benchdiff import (
    diff_benchmark_files,
    diff_benchmarks,
    flatten_benchmark,
    format_diff,
    has_regressions,
    metric_direction,
)

OLD = {
    "healthy": {"requests_per_min": 3.0e6, "batch_seconds": 0.40, "speedup": 11.0},
    "chaos": {"scalar_seconds": 1.6},
    "seed": 5,
    "requests": 4000,
}


def status_by_metric(diffs):
    return {diff.metric: diff.status for diff in diffs}


class TestFlatten:
    def test_numeric_leaves_to_dotted_paths(self):
        flat = flatten_benchmark(OLD)
        assert flat["healthy.requests_per_min"] == 3.0e6
        assert flat["chaos.scalar_seconds"] == 1.6
        assert flat["seed"] == 5.0

    def test_pytest_benchmark_arrays_keyed_by_name(self):
        doc = {
            "machine_info": {"cpu": {"count": 8}},
            "benchmarks": [
                {"name": "test_routing", "stats": {"mean": 0.002, "rounds": 30}},
            ],
        }
        flat = flatten_benchmark(doc)
        assert flat["benchmarks.test_routing.stats.mean"] == 0.002
        assert not any(path.startswith("machine_info") for path in flat)

    def test_anonymous_lists_and_bools_skipped(self):
        flat = flatten_benchmark({"xs": [1, 2, 3], "flag": True, "mean": 2.0})
        assert flat == {"mean": 2.0}


class TestDirection:
    @pytest.mark.parametrize(
        "key", ["mean", "min_s", "batch_seconds", "scalar_seconds", "p99_latency"]
    )
    def test_lower_is_better(self, key):
        assert metric_direction(key) == "lower"

    @pytest.mark.parametrize(
        "key", ["requests_per_min", "shards_per_second", "speedup", "ops"]
    )
    def test_higher_is_better(self, key):
        assert metric_direction(key) == "higher"

    @pytest.mark.parametrize("key", ["seed", "requests", "rounds", "cpu_count"])
    def test_undirected_keys_not_compared(self, key):
        assert metric_direction(key) is None


class TestDiffBenchmarks:
    def test_identical_documents_all_ok(self):
        diffs = diff_benchmarks(OLD, OLD)
        assert not has_regressions(diffs)
        assert set(status_by_metric(diffs).values()) == {"ok"}
        # Configuration echoes never enter the comparison.
        assert "seed" not in status_by_metric(diffs)

    def test_adverse_change_past_threshold_is_a_regression(self):
        new = json.loads(json.dumps(OLD))
        new["healthy"]["requests_per_min"] *= 0.7  # -30% throughput
        new["chaos"]["scalar_seconds"] *= 1.3  # +30% runtime
        diffs = diff_benchmarks(OLD, new, threshold_pct=20.0)
        statuses = status_by_metric(diffs)
        assert statuses["healthy.requests_per_min"] == "regression"
        assert statuses["chaos.scalar_seconds"] == "regression"
        assert has_regressions(diffs)

    def test_adverse_change_within_threshold_is_ok(self):
        new = json.loads(json.dumps(OLD))
        new["healthy"]["requests_per_min"] *= 0.9
        assert not has_regressions(diff_benchmarks(OLD, new, threshold_pct=20.0))

    def test_improvement_is_never_a_regression(self):
        new = json.loads(json.dumps(OLD))
        new["healthy"]["requests_per_min"] *= 2.0
        new["chaos"]["scalar_seconds"] *= 0.5
        diffs = diff_benchmarks(OLD, new, threshold_pct=1.0)
        assert not has_regressions(diffs)
        assert status_by_metric(diffs)["healthy.requests_per_min"] == "improved"

    def test_per_metric_override_tightens_one_budget(self):
        new = json.loads(json.dumps(OLD))
        new["healthy"]["requests_per_min"] *= 0.9  # -10%
        diffs = diff_benchmarks(
            OLD, new, threshold_pct=20.0,
            per_metric={"healthy.requests_per_min": 5.0},
        )
        assert status_by_metric(diffs)["healthy.requests_per_min"] == "regression"

    def test_unknown_override_is_refused(self):
        with pytest.raises(ObsError, match="match no metric"):
            diff_benchmarks(OLD, OLD, per_metric={"no.such.metric": 5.0})

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -5.0])
    def test_non_finite_or_negative_threshold_is_refused(self, budget):
        # NaN would pass every comparison; a negative budget fails every one.
        with pytest.raises(ObsError, match="--threshold budget"):
            diff_benchmarks(OLD, OLD, threshold_pct=budget)

    @pytest.mark.parametrize("budget", [math.nan, -5.0])
    def test_non_finite_or_negative_override_is_refused(self, budget):
        with pytest.raises(ObsError, match="--metric healthy.speedup budget"):
            diff_benchmarks(OLD, OLD, per_metric={"healthy.speedup": budget})

    def test_zero_budget_is_allowed(self):
        assert not has_regressions(diff_benchmarks(OLD, OLD, threshold_pct=0.0))

    def test_vanished_metric_is_a_regression_new_metric_is_not(self):
        new = json.loads(json.dumps(OLD))
        del new["healthy"]["speedup"]
        new["healthy"]["shards_per_second"] = 40.0
        diffs = diff_benchmarks(OLD, new)
        statuses = status_by_metric(diffs)
        assert statuses["healthy.speedup"] == "missing"
        assert statuses["healthy.shards_per_second"] == "new"
        assert has_regressions(diffs)

    def test_format_diff_renders_table_and_verdict(self):
        new = json.loads(json.dumps(OLD))
        new["healthy"]["requests_per_min"] *= 0.5
        text = format_diff(diff_benchmarks(OLD, new))
        assert "healthy.requests_per_min" in text
        assert "-50.0%" in text
        assert "REGRESSION: 1 of" in text
        clean = format_diff(diff_benchmarks(OLD, OLD))
        assert "within budget" in clean

    def test_no_comparable_metrics_is_not_a_regression(self):
        diffs = diff_benchmarks({"seed": 1}, {"seed": 2})
        assert diffs == []
        assert not has_regressions(diffs)
        assert "no comparable" in format_diff(diffs)


class TestDiffFiles:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_file_round_trip(self, tmp_path):
        old = self.write(tmp_path, "old.json", OLD)
        new = self.write(tmp_path, "new.json", OLD)
        assert not has_regressions(diff_benchmark_files(old, new))

    def test_unreadable_and_malformed_files_are_obs_errors(self, tmp_path):
        good = self.write(tmp_path, "good.json", OLD)
        with pytest.raises(ObsError, match="cannot read"):
            diff_benchmark_files(tmp_path / "absent.json", good)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ObsError, match="not valid JSON"):
            diff_benchmark_files(good, bad)


class TestCli:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", OLD)
        assert main(["obs", "diff", old, old]) == 0
        assert "within budget" in capsys.readouterr().out

    def test_regression_exits_nine(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", OLD)
        regressed = json.loads(json.dumps(OLD))
        regressed["healthy"]["requests_per_min"] *= 0.5
        new = self.write(tmp_path, "new.json", regressed)
        assert main(["obs", "diff", old, new]) == EXIT_REGRESSION == 9
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_loosens_the_gate(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", OLD)
        regressed = json.loads(json.dumps(OLD))
        regressed["healthy"]["requests_per_min"] *= 0.7
        new = self.write(tmp_path, "new.json", regressed)
        assert main(["obs", "diff", old, new, "--threshold", "50"]) == 0
        capsys.readouterr()

    def test_metric_override_flag(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", OLD)
        regressed = json.loads(json.dumps(OLD))
        regressed["healthy"]["requests_per_min"] *= 0.9
        new = self.write(tmp_path, "new.json", regressed)
        assert (
            main(
                [
                    "obs", "diff", old, new,
                    "--metric", "healthy.requests_per_min=5",
                ]
            )
            == EXIT_REGRESSION
        )
        capsys.readouterr()

    def test_bad_metric_override_is_a_usage_error(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", OLD)
        assert main(["obs", "diff", old, old, "--metric", "nonsense"]) == EXIT_ERROR
        assert "dotted.path=percent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "budget_args",
        [
            ["--threshold", "nan"],
            ["--threshold", "-5"],
            ["--metric", "healthy.speedup=nan"],
        ],
    )
    def test_gate_disabling_budget_is_a_usage_error(
        self, tmp_path, capsys, budget_args
    ):
        old = self.write(tmp_path, "old.json", OLD)
        assert main(["obs", "diff", old, old, *budget_args]) == EXIT_ERROR
        assert "finite, non-negative percent" in capsys.readouterr().err

    def test_missing_file_is_a_plain_error_not_a_regression(
        self, tmp_path, capsys
    ):
        old = self.write(tmp_path, "old.json", OLD)
        code = main(["obs", "diff", old, str(tmp_path / "absent.json")])
        assert code == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err
