"""Golden outputs: experiment stdout and obs artifacts pinned byte for byte.

Each case runs the CLI in-process at its defaults and compares against a
file under ``tests/golden/``. A refactor of the serve path, the routing
kernels, the measurement path or the obs pipeline must leave every file
here unchanged.

``<experiment>.txt`` pins the stdout of ``repro run <experiment>``. Every
experiment runs one shard plan, so the in-memory run, ``--out-dir <dir>``
and ``--out-dir <dir> --jobs 2`` must each print exactly these bytes.
``examples/<name>.txt`` pins the stdout of ``examples/<name>.py``.
``payloads.json`` pins, at full precision, a sha256 of every shard payload
of the measurement experiments and the chaos/overload sweeps at seed 7 (and
of the Fig. 7/8 ``aim`` baseline shards): the text goldens round to 1-2
decimals, so only these digests catch a last-bit drift in the AIM/NetMet
draws or the serve walk. A measurement payload's digest is over its
``repr``. A sweep payload's digest is the runner's own checkpoint checksum,
over :func:`~repro.runner.store.canonical_json`: it covers the payload's
key set and values, not its key order. Its
``_toolchain`` entry records the Python, numpy and scipy versions the
goldens were made with; every golden mismatch prints them beside the
running ones, since a numpy release that changes a sampler's algorithm
fails every golden at once.

Dropped as not reproducible across runs: the ``repro_profile_*`` lines of
the metrics file (wall-clock seconds per profiled site). Nothing else in
the stdout, ``obs-metrics.prom``, ``obs-trace.jsonl`` or
``obs-timeseries.json`` varies between runs.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.cli import main
from repro.obs.recorder import reset_recorder
from repro.runner.store import canonical_json

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

STDOUT_EXPERIMENTS = (
    "chaos",
    "overload",
    "table1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "geoblocking",
)
OBS_EXPERIMENTS = ("chaos", "overload")
OBS_ARTIFACTS = ("obs-metrics.prom", "obs-timeseries.json", "obs-trace.jsonl")
EXAMPLES = ("chaos_sweep", "live_system", "maputo_case_study", "quickstart")
PAYLOAD_SEED = 7
PAYLOAD_SHARDS: dict[str, tuple[str, ...] | None] = {
    # experiment -> the shard ids pinned (None: every shard of its plan)
    "table1": None,
    "figure2": None,
    "figure3": None,
    "figure4": None,
    "figure5": None,
    "figure7": ("aim",),
    "figure8": ("aim",),
    "chaos": None,
    "overload": None,
}
CANONICAL_PAYLOADS = frozenset({"chaos", "overload"})
"""Experiments whose digest is over ``canonical_json``, not ``repr``."""
TOOLCHAIN_KEY = "_toolchain"
"""The ``payloads.json`` entry that records the versions, not an experiment."""


def toolchain() -> dict[str, str]:
    """The running Python, numpy and scipy versions."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _payloads() -> dict:
    return json.loads((GOLDEN / "payloads.json").read_text())


def toolchain_note() -> str:
    """The versions the goldens were made with, beside the running ones."""

    def render(versions: dict) -> str:
        return ", ".join(f"{name} {versions.get(name, '?')}" for name in toolchain())

    recorded = render(_payloads().get(TOOLCHAIN_KEY, {}))
    return f"goldens made with {recorded}; running {render(toolchain())}"


def _stable(artifact: str, text: str) -> str:
    """Drop the fields of an artifact that vary from run to run."""
    if artifact == "obs-metrics.prom":
        return "".join(
            line
            for line in text.splitlines(keepends=True)
            if "repro_profile_" not in line
        )
    return text


def run_stdout(experiment: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", experiment]) == 0
    return out.getvalue()


def run_sharded_stdout(experiment: str, run_dir: Path, *flags: str) -> str:
    """Stdout of ``repro run <experiment> --out-dir <run_dir> [flags]``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", experiment, "--out-dir", str(run_dir), *flags]) == 0
    return out.getvalue()


def run_obs(experiment: str, work_dir: Path) -> dict[str, str]:
    """The stable text of each ``--obs`` artifact, keyed by file name."""
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(["run", experiment, "--obs"]) == 0
    finally:
        os.chdir(cwd)
        reset_recorder()
    return {
        name: _stable(name, (work_dir / name).read_text())
        for name in OBS_ARTIFACTS
    }


def run_example(name: str) -> str:
    """Stdout of ``python examples/<name>.py``, run in-process."""
    script = EXAMPLES_DIR / f"{name}.py"
    out = io.StringIO()
    argv = sys.argv
    try:
        sys.argv = [str(script)]
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return out.getvalue()


def payload_digests(experiment: str) -> dict[str, str]:
    """sha256 of each pinned shard payload at seed 7, by shard id."""
    module = importlib.import_module(f"repro.experiments.{experiment}")
    plan = module.build_plan(seed=PAYLOAD_SEED)
    shard_ids = PAYLOAD_SHARDS[experiment] or plan.shard_ids
    encode = canonical_json if experiment in CANONICAL_PAYLOADS else repr
    return {
        shard_id: hashlib.sha256(encode(plan.run_shard(shard_id)).encode()).hexdigest()
        for shard_id in shard_ids
    }


def test_every_registered_experiment_has_a_golden():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["list"]) == 0
    registered = {line.split()[0] for line in out.getvalue().splitlines()}
    assert registered == set(STDOUT_EXPERIMENTS)
    assert set(_payloads()) - {TOOLCHAIN_KEY} == set(PAYLOAD_SHARDS)


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_stdout_matches_golden(experiment):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    assert run_stdout(experiment) == expected, toolchain_note()


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_sharded_stdout_matches_golden(experiment, tmp_path):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    assert run_sharded_stdout(experiment, tmp_path / "run") == expected, (
        toolchain_note()
    )


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_parallel_stdout_matches_golden(experiment, tmp_path):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    stdout = run_sharded_stdout(experiment, tmp_path / "run", "--jobs", "2")
    assert stdout == expected, toolchain_note()


@pytest.mark.parametrize("experiment", OBS_EXPERIMENTS)
def test_obs_artifacts_match_golden(experiment, tmp_path):
    artifacts = run_obs(experiment, tmp_path)
    for name, text in artifacts.items():
        expected = (GOLDEN / f"{experiment}.{name}").read_text()
        assert text == expected, (
            f"{experiment} {name} drifted from its golden; {toolchain_note()}"
        )


@pytest.mark.parametrize("experiment", PAYLOAD_SHARDS)
def test_shard_payloads_match_golden(experiment):
    expected = _payloads()[experiment]
    assert payload_digests(experiment) == expected, toolchain_note()


def test_every_example_has_a_golden():
    assert {p.stem for p in EXAMPLES_DIR.glob("*.py")} == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_stdout_matches_golden(name):
    expected = (GOLDEN / "examples" / f"{name}.txt").read_text()
    assert run_example(name) == expected, toolchain_note()


def regenerate() -> None:
    """Rewrite every golden; write none when an experiment's in-memory and
    ``--out-dir`` runs print different bytes."""
    stdouts = {experiment: run_stdout(experiment) for experiment in STDOUT_EXPERIMENTS}
    for experiment, stdout in stdouts.items():
        with tempfile.TemporaryDirectory() as work:
            if run_sharded_stdout(experiment, Path(work) / "run") != stdout:
                raise SystemExit(
                    f"{experiment}: the in-memory and --out-dir stdout differ; "
                    "no golden written"
                )
    GOLDEN.mkdir(exist_ok=True)
    for experiment, stdout in stdouts.items():
        (GOLDEN / f"{experiment}.txt").write_text(stdout)
    for experiment in OBS_EXPERIMENTS:
        with tempfile.TemporaryDirectory() as work:
            for name, text in run_obs(experiment, Path(work)).items():
                (GOLDEN / f"{experiment}.{name}").write_text(text)
    (GOLDEN / "examples").mkdir(exist_ok=True)
    for name in EXAMPLES:
        (GOLDEN / "examples" / f"{name}.txt").write_text(run_example(name))
    digests = {experiment: payload_digests(experiment) for experiment in PAYLOAD_SHARDS}
    digests[TOOLCHAIN_KEY] = toolchain()
    (GOLDEN / "payloads.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
