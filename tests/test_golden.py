"""Golden outputs: experiment stdout and obs artifacts pinned byte for byte.

Each case runs the CLI in-process at its defaults and compares against a
file under ``tests/golden/``. A refactor of the serve path, the routing
kernels or the obs pipeline must leave every file here unchanged.

Dropped as not reproducible across runs: the ``repro_profile_*`` lines of
the metrics file (wall-clock seconds per profiled site). Nothing else in
the stdout, ``obs-metrics.prom``, ``obs-trace.jsonl`` or
``obs-timeseries.json`` varies between runs.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import reset_recorder

GOLDEN = Path(__file__).parent / "golden"

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


def test_every_registered_experiment_has_a_golden():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["list"]) == 0
    registered = {line.split()[0] for line in out.getvalue().splitlines()}
    assert registered == set(STDOUT_EXPERIMENTS)


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_stdout_matches_golden(experiment):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    assert run_stdout(experiment) == expected


@pytest.mark.parametrize("experiment", OBS_EXPERIMENTS)
def test_obs_artifacts_match_golden(experiment, tmp_path):
    artifacts = run_obs(experiment, tmp_path)
    for name, text in artifacts.items():
        expected = (GOLDEN / f"{experiment}.{name}").read_text()
        assert text == expected, f"{experiment} {name} drifted from its golden"


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for experiment in STDOUT_EXPERIMENTS:
        (GOLDEN / f"{experiment}.txt").write_text(run_stdout(experiment))
    for experiment in OBS_EXPERIMENTS:
        with tempfile.TemporaryDirectory() as work:
            for name, text in run_obs(experiment, Path(work)).items():
                (GOLDEN / f"{experiment}.{name}").write_text(text)


if __name__ == "__main__":
    regenerate()
