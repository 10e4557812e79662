"""Every public function in ``src/repro`` is reached by a real command.

One fresh interpreter runs what the repository exists to run, at small
sizes: every registered experiment (no flag, in-memory ``--obs`` with all
three ``*-out`` files, and ``--out-dir --obs``), a ``--resume``, a
``--jobs 2`` and an overload flash-crowd run, ``repro aim`` in both
formats, ``repro list``, ``repro obs summarize``/``events`` on the
artifacts just written, and the four examples. It records every code
object called under :func:`sys.setprofile` and
:func:`threading.setprofile`. A fresh interpreter keeps the memo caches
that earlier tests warmed from hiding a call.

A public function or method (module level, or on a public class) that
none of that calls fails the test, unless :data:`ALLOWLIST` names it with
one of the reasons in :data:`REASONS`. An allowlist entry that names a
function that is gone, or one that is now reached, fails too, so the list
cannot rot.

Run the driver by hand with ``python tests/test_reach.py OUT_JSON``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

_TRACE = "trace-site"
_BENCH = "bench-only (item 8)"
_LEDGER = "ledger-row (item 1)"
_WORKER = "pool-worker side"
_ERROR = "error path"
_TWIN = "protocol twin"
_ACCESSOR = "test accessor"
REASONS = frozenset({_TRACE, _BENCH, _LEDGER, _WORKER, _ERROR, _TWIN, _ACCESSOR})
"""Why a public function may stay although no command reaches it."""

ALLOWLIST: dict[str, str] = {
    # benchmarks/e2e/trace.py resolves each SITES target by name.
    "repro.spacecdn.lookup:nearest_cached_batch": _TRACE,
    "repro.topology.fastcore:degrade_core": _TRACE,
    "repro.topology.fastcore:nearest_hops": _TRACE,
    # Called by the per-experiment bench scripts that ROADMAP item 8 decides.
    "repro.analysis.stats:Cdf.points": _BENCH,
    "repro.analysis.tables:format_cdf_points": _BENCH,
    "repro.experiments.figure4:Figure4Result.cdf": _BENCH,
    "repro.experiments.geoblocking:GeoblockResult.affected_countries": _BENCH,
    "repro.orbits.elements:oneweb_phase1": _BENCH,
    "repro.orbits.elements:starlink_shell3": _BENCH,
    "repro.orbits.elements:starlink_vleo": _BENCH,
    "repro.spacecdn.resilience:placement_under_failures": _BENCH,
    # The visibility-window row of ROADMAP item 1 reads these.
    "repro.orbits.passes:PassWindow.duration_s": _LEDGER,
    "repro.orbits.passes:predict_passes": _LEDGER,
    "repro.orbits.visibility:elevations_deg": _LEDGER,
    # Run inside the runner's worker processes, which the profiler does not
    # follow.
    "repro.obs.metrics:MetricsRegistry.snapshot_delta": _WORKER,
    "repro.obs.profiling:ProfileAccumulator.snapshot_delta": _WORKER,
    "repro.obs.recorder:ObsRecorder.snapshot_delta": _WORKER,
    "repro.obs.recorder:reset_recorder": _WORKER,
    "repro.obs.timeseries:TimeSeriesBuffer.snapshot_delta": _WORKER,
    "repro.obs.tracing:TraceBuffer.snapshot_delta": _WORKER,
    "repro.runner.registry:plan_from_config": _WORKER,
    "repro.runner.shards:current_attempt": _WORKER,
    "repro.runner.shards:set_current_attempt": _WORKER,
    # A signal mid-run, a quarantined shard, and the crash/hang injection
    # plan that drives the pool's recovery (tests and CI's self-chaos job).
    "repro.runner.interrupt:InterruptGuard.check": _ERROR,
    "repro.runner.selfchaos:build_plan": _ERROR,
    "repro.runner.store:CheckpointStore.write_quarantine_record": _ERROR,
    # The no-op recorder's twins of ObsRecorder methods that every caller
    # guards with ``rec.enabled``.
    "repro.obs.recorder:NoopRecorder.flush": _TWIN,
    "repro.obs.recorder:NoopRecorder.inc": _TWIN,
    "repro.obs.recorder:NoopRecorder.observe": _TWIN,
    "repro.obs.recorder:NoopRecorder.open_span": _TWIN,
    "repro.obs.recorder:NoopRecorder.record_span": _TWIN,
    "repro.obs.recorder:NoopRecorder.set_gauge": _TWIN,
    "repro.obs.recorder:NoopRecorder.window_inc": _TWIN,
    "repro.obs.recorder:NoopRecorder.window_observe": _TWIN,
    # Two-line reads of the obs buffers that the obs suites assert through.
    "repro.obs.metrics:MetricsRegistry.counter_value": _ACCESSOR,
    "repro.obs.metrics:MetricsRegistry.gauge_value": _ACCESSOR,
    "repro.obs.metrics:MetricsRegistry.histogram": _ACCESSOR,
    "repro.obs.metrics:MetricsRegistry.is_empty": _ACCESSOR,
    "repro.obs.profiling:ProfileAccumulator.is_empty": _ACCESSOR,
    "repro.obs.timeseries:TimeSeriesBuffer.counter_value": _ACCESSOR,
    "repro.obs.timeseries:TimeSeriesBuffer.histogram_cell": _ACCESSOR,
    "repro.obs.timeseries:TimeSeriesBuffer.is_empty": _ACCESSOR,
    "repro.obs.tracing:TraceBuffer.spans": _ACCESSOR,
}
"""``module:Qualname`` of each public function no command reaches, with
the reason it stays."""

_SMALL_SHELL = "--shell small --requests 12"
_SIZES = {
    "chaos": f"{_SMALL_SHELL} --fractions 0.0,0.3",
    "figure2": "--tests-per-city 2",
    "figure3": "--samples 2",
    "figure4": "--rounds 1",
    "figure5": "--rounds 1",
    "figure7": "--users 2 --epochs 1",
    "figure8": "--users 2 --epochs 2",
    "geoblocking": "",
    "overload": f"{_SMALL_SHELL} --loads 0.5,2.0",
    "table1": "--tests-per-city 2",
}
"""Small-size flags of each registered experiment."""


def _commands() -> list[tuple[str, int]]:
    """``(arguments, expected exit code)`` of every ``repro`` invocation,
    run in a scratch working directory."""
    commands = [("list", 0)]
    for name, sizes in _SIZES.items():
        run = f"run {name} {sizes}"
        obs_files = f"--metrics-out {name}/m.prom --trace-out {name}/t.jsonl"
        commands += [
            (run, 0),
            (f"{run} --obs {obs_files} --timeseries-out {name}/ts.json", 0),
            (f"{run} --out-dir {name}-dir --obs", 0),
        ]
    figure8 = f"run figure8 {_SIZES['figure8']} --out-dir resumed"
    overload = (
        f"run overload {_SIZES['overload']} --capacity 1.0 --ground-capacity 3.0"
        " --flash-crowd 60:240:1.0 --deadline-ms 400 --obs"
    )
    commands += [
        (f"{figure8} --max-shards 1", 5),
        (f"{figure8} --resume", 0),
        (f"run chaos {_SIZES['chaos']} --out-dir wide --jobs 2", 0),
        (overload, 0),
        ("aim --tests-per-city 2 --format csv --out a.csv", 0),
        ("aim --tests-per-city 2 --format json --out a.json", 0),
        ("obs summarize chaos-dir/obs-trace.jsonl", 0),
        ("obs events chaos-dir/events.jsonl", 0),
    ]
    return commands


def drive(out_json: Path) -> None:
    """Run every command and example under the profiler; write the
    ``[filename, first line]`` of each ``src/`` code object called."""
    called: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called[id(code)] = code  # holding the code keeps its id unique

    workdir = out_json.parent / "reach-run"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        from repro.cli import main

        for arguments, expected in _commands():
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(arguments.split())
            if code != expected:
                raise SystemExit(f"repro {arguments} exited {code}")
        for script in sorted((ROOT / "examples").glob("*.py")):
            argv = sys.argv
            sys.argv = [str(script)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(script), run_name="__main__")
            finally:
                sys.argv = argv
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    prefix = str(PACKAGE)
    out_json.write_text(
        json.dumps(
            sorted(
                [code.co_filename, code.co_firstlineno]
                for code in called.values()
                if code.co_filename.startswith(prefix)
            )
        )
    )


def public_functions() -> dict[tuple[str, int], str]:
    """``(filename, first line) -> module:Qualname`` of every public
    function and public-class method under ``src/repro``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}

    def add(path: Path, module: str, qualname: str, node: ast.AST) -> None:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        found[(str(path), first)] = f"{module}:{qualname}"

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions) and not node.name.startswith("_"):
                add(path, module, node.name, node)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("_"):
                        add(path, module, f"{node.name}.{item.name}", item)
    return found


def test_every_public_function_is_reached_or_allowlisted(tmp_path):
    out_json = tmp_path / "reached.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, __file__, str(out_json)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    reached = {tuple(pair) for pair in json.loads(out_json.read_text())}
    functions = public_functions()
    names = set(functions.values())
    unreached = {name for key, name in functions.items() if key not in reached}

    bad_reasons = {k: v for k, v in ALLOWLIST.items() if v not in REASONS}
    assert not bad_reasons, f"reasons outside {sorted(REASONS)}: {bad_reasons}"
    gone = sorted(set(ALLOWLIST) - names)
    assert not gone, f"allowlisted but no longer defined: {gone}"
    now_reached = sorted(set(ALLOWLIST) - unreached)
    assert not now_reached, f"allowlisted but now reached: {now_reached}"
    dead = sorted(unreached - set(ALLOWLIST))
    assert not dead, (
        f"{len(dead)} public functions no command reaches; delete them or "
        f"allowlist each with a reason: " + "\n".join(dead)
    )


if __name__ == "__main__":
    drive(Path(sys.argv[1]).resolve())
