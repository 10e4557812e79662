"""Self-test of the end-to-end benchmark at tiny sizes.

Run with ``pytest benchmarks/e2e`` from the repository root. The workloads
run in-process at their ``tiny`` sizes for one cycle or plan each; two
tests drive the command line as the benchmark's users do.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import bench_e2e  # noqa: E402

bench_trace = bench_e2e.bench_trace
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload traced, then untraced, for one cycle or plan.

    The traced run goes first so that it, not the untraced one, meets the
    cold seed-keyed caches (a warm chaos sweep context skips request
    generation, for one).
    """
    for workload in bench_e2e.WORKLOADS.values():
        for module in workload.imports:
            __import__(module)
    runs = {}
    for name, workload in bench_e2e.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        tracer = bench_trace.Tracer()
        with tracer.installed():
            traced = bench_e2e.run_workload(name, 7, 0.0, work, tracer, workload.tiny)
        untraced = bench_e2e.run_workload(name, 7, 0.0, work, None, workload.tiny)
        runs[name] = {"traced": traced, "summary": tracer.summary(), "untraced": untraced}
    return runs


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_e2e.WORKLOADS)


def _size_defaults(ops) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(ops).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def test_workload_sizes_are_the_cli_defaults():
    from repro.cli import build_parser

    def cli(experiment):
        return build_parser().parse_args(["run", experiment])

    # paper-measure calls m.run(seed=s), so m.run's own defaults must be
    # the ones `repro run m` passes.
    for module, parameter, option in (
        ("table1", "tests_per_city", "tests_per_city"),
        ("figure2", "tests_per_city", "tests_per_city"),
        ("figure3", "samples_per_site", "samples"),
        ("figure4", "rounds", "rounds"),
        ("figure5", "rounds", "rounds"),
    ):
        run = importlib.import_module(f"repro.experiments.{module}").run
        assert _size_defaults(run)[parameter] == getattr(cli(module), option), module

    figure7, figure8 = cli("figure7"), cli("figure8")
    assert (figure7.users, figure7.epochs) == (figure8.users, figure8.epochs)
    assert _size_defaults(bench_e2e.spacecdn_sim_ops) == {
        "users": figure7.users,
        "epochs": figure7.epochs,
    }
    chaos = cli("chaos")
    assert chaos.shell == "shell1" and chaos.max_attempts == 3
    assert _size_defaults(bench_e2e.chaos_serve_ops) == {
        "requests": chaos.requests,
        "fractions": _floats(chaos.fractions),
    }
    overload = cli("overload")
    assert overload.shell == "shell1" and overload.flash_crowd is None
    assert _size_defaults(bench_e2e.overload_obs_ops) == {
        "requests": overload.requests,
        "loads": _floats(overload.loads),
        "capacity": overload.capacity,
        "ground_capacity": overload.ground_capacity,
        "deadline_ms": overload.deadline_ms,
    }


def test_tiny_runs_are_correct(tiny_runs):
    for name, run in tiny_runs.items():
        for mode in ("traced", "untraced"):
            assert run[mode]["failed"] == 0, (name, mode, run[mode]["failures"])
            assert run[mode]["attempted"] >= 2


def test_every_declared_metric_is_emitted_with_its_unit(tiny_runs):
    for name, run in tiny_runs.items():
        workload = bench_e2e.WORKLOADS[name]
        end_to_end = bench_e2e.end_to_end_metrics(
            run["untraced"], bench_e2e.setup_samples(workload, starts=1)
        )
        layers = bench_trace.layer_metrics(
            run["summary"], bench_e2e.import_times(workload)
        )
        for computed, declared in (
            (end_to_end, SPEC["end_to_end"]),
            (layers, SPEC["per_layer"]),
        ):
            emitted = bench_e2e.declared_metrics(computed, declared)
            assert list(emitted) == [m["name"] for m in declared]
            for value in emitted.values():
                assert isinstance(value["value"], float)
        for metric in SPEC["end_to_end"]:
            assert end_to_end[metric["name"]]["value"] > 0, (name, metric["name"])


def test_span_sites_fire_where_the_table_says(tiny_runs):
    for site in bench_trace.SITES:
        fired = {
            name
            for name, run in tiny_runs.items()
            if run["summary"]["site_calls"][site.target]
        }
        assert fired == set(site.workloads), site.target


def test_each_epoch_op_builds_its_own_two_snapshots(tiny_runs):
    # figure7 and figure8 run at different epoch instants, so neither
    # shard reuses the other's cached snapshot or routing rows.
    run = tiny_runs["spacecdn-sim"]
    builds = run["summary"]["site_calls"]["repro.topology.graph:build_snapshot"]
    assert builds == 2 * run["traced"]["attempted"]


def test_layer_self_times_cover_the_traced_op_wall(tiny_runs):
    for name, run in tiny_runs.items():
        summary = run["summary"]
        layer_sum = sum(summary["self_s"].values())
        assert layer_sum == pytest.approx(summary["op_wall_s"], rel=1e-9)
        assert layer_sum == pytest.approx(run["traced"]["busy_s"], rel=0.05), name


def test_traced_output_digests_equal_untraced_ones(tiny_runs):
    for name, run in tiny_runs.items():
        assert run["traced"]["op_digests"] == run["untraced"]["op_digests"], name
        assert run["traced"]["output_sha256"] == run["untraced"]["output_sha256"]


def test_an_op_still_replays_after_later_plans(tmp_path):
    # The replay check calls a first op again after the loop: by then the
    # op stream has moved on to later plans, which the op must not see.
    for name, workload in bench_e2e.WORKLOADS.items():
        ops = workload.ops(7, tmp_path, **workload.tiny)
        first = next(ops)
        text = first.inspect(first.call())[0]
        blocks = int(first.closes_block)
        while blocks < 2:
            op = next(ops)
            op.inspect(op.call())
            blocks += op.closes_block
        assert first.inspect(first.call())[0] == text, name


def test_a_raising_op_counts_in_error_rate(monkeypatch, tmp_path):
    from repro.experiments import figure3

    def broken(**kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(figure3, "run", broken)
    tiny = bench_e2e.WORKLOADS["paper-measure"].tiny
    result = bench_e2e.run_workload("paper-measure", 7, 0.0, tmp_path, None, tiny)
    assert result["attempted"] == len(bench_e2e.PAPER_MODULES)
    assert result["failed"] == 1
    assert "injected" in result["failures"][0]
    setup = {"elapsed_s": [1.0], "probe_s": [1.0, 1.0]}
    error_rate = bench_e2e.end_to_end_metrics(result, setup)["error_rate"]["value"]
    assert error_rate == pytest.approx(1 / len(bench_e2e.PAPER_MODULES))


def test_times_are_rescaled_by_the_probes_around_them():
    ref = bench_e2e.REFERENCE_PROBE_S
    # A span measured while the probe ran twice as slow took half as long
    # at the reference speed; one between a slow and a normal probe, 2/3.
    assert bench_e2e.at_reference_speed([1.0, 1.0], [2 * ref, 2 * ref, ref]) == [
        pytest.approx(0.5),
        pytest.approx(2 / 3),
    ]
    assert bench_e2e.SpeedProbe().sample() > 0


@pytest.mark.parametrize("n", [10, 45, 500])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_harrell_davis_matches_the_beta_cdf_weights(n, p):
    import numpy as np

    beta = pytest.importorskip("scipy.stats").beta
    values = np.random.default_rng(n).lognormal(size=n)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1)))
    expected = float(np.dot(weights, np.sort(values)))
    assert bench_e2e.harrell_davis(list(values), p) == pytest.approx(expected, rel=1e-4)
    assert bench_e2e.harrell_davis([3.0] * n, p) == pytest.approx(3.0)


def _document(run: dict, slowdown: float = 1.0) -> dict:
    # The program slows down while the machine, and so the probe, does not.
    child = dict(run, latencies_s=[s * slowdown for s in run["latencies_s"]])
    setup = {"elapsed_s": [0.5 * slowdown], "probe_s": run["probe_s"][:2]}
    metrics = bench_e2e.end_to_end_metrics(child, setup)
    return {"workloads": {run["workload"]: {"metrics": metrics}}}


def test_agree_flags_a_2x_slowdown(tiny_runs, tmp_path):
    base = _document(tiny_runs["chaos-serve"]["untraced"])
    slow = _document(tiny_runs["chaos-serve"]["untraced"], slowdown=2.0)
    assert all(row["agree"] for row in bench_e2e.agree([base], [base], SPEC))
    rows = bench_e2e.agree([base], [slow], SPEC)
    flagged = {row["metric"] for row in rows if not row["agree"]}
    assert flagged == {"setup_s", "units_per_s", "op_p50_ms", "op_p90_ms"}

    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "1.json").write_text(json.dumps(slow))
    assert bench_e2e.main(["agree", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert bench_e2e.main(["agree", str(tmp_path / "a.json"), str(tmp_path / "b")]) == 1


def _cli(args: list[str], cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    proc = _cli(["run", "--workload", "chaos-serve", "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "benchmarks" / "e2e")
    proc = _cli(["run", "--workload", "chaos-serve", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
