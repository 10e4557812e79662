"""Golden outputs: experiment stdout and obs artifacts pinned byte for byte.

Each case runs the CLI in-process at its defaults and compares against a
file under ``tests/golden/``. A refactor of the serve path, the routing
kernels, the measurement path or the obs pipeline must leave every file
here unchanged.

``<experiment>.txt`` pins the stdout of ``repro run <experiment>``. Every
experiment runs one shard plan, so the in-memory run, ``--out-dir <dir>``
and ``--out-dir <dir> --jobs 2`` must each print exactly these bytes.

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


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_sharded_stdout_matches_golden(experiment, tmp_path):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    assert run_sharded_stdout(experiment, tmp_path / "run") == expected


@pytest.mark.parametrize("experiment", STDOUT_EXPERIMENTS)
def test_parallel_stdout_matches_golden(experiment, tmp_path):
    expected = (GOLDEN / f"{experiment}.txt").read_text()
    assert run_sharded_stdout(experiment, tmp_path / "run", "--jobs", "2") == expected


@pytest.mark.parametrize("experiment", OBS_EXPERIMENTS)
def test_obs_artifacts_match_golden(experiment, tmp_path):
    artifacts = run_obs(experiment, tmp_path)
    for name, text in artifacts.items():
        expected = (GOLDEN / f"{experiment}.{name}").read_text()
        assert text == expected, f"{experiment} {name} drifted from its golden"


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


if __name__ == "__main__":
    regenerate()
