"""Resume determinism on the real experiment plans.

The acceptance contract: a run interrupted after some shards and resumed
must produce output byte-identical to an uninterrupted run of the same
plan — including every checkpoint file, not just ``result.txt``. Exercised
here on small parameterisations of the real experiments through the
runner, plus the CLI ``--out-dir`` surface.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ManifestMismatchError, RunInterruptedError
from repro.experiments import chaos, figure3, figure8, geoblocking, table1
from repro.runner.engine import ExperimentRunner, RunnerOptions


def _figure8_plan():
    return figure8.build_plan(seed=11, users_per_epoch=4, num_epochs=3)


def _run_dir_bytes(run_dir):
    """Every checkpoint and result file's bytes, keyed by relative path."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.suffix in (".json", ".txt")
    }


class TestResumeByteIdentity:
    def test_interrupted_then_resumed_matches_clean_run(self, tmp_path):
        clean_dir = tmp_path / "clean"
        clean_text = ExperimentRunner(_figure8_plan(), clean_dir).execute()

        resumed_dir = tmp_path / "resumed"
        with pytest.raises(RunInterruptedError):
            ExperimentRunner(
                _figure8_plan(), resumed_dir, RunnerOptions(max_shards=2)
            ).execute()
        # Partial state on disk: manifest plus exactly two shards, no result.
        assert not (resumed_dir / "result.txt").exists()
        assert len(list((resumed_dir / "shards").iterdir())) == 2

        resumed_text = ExperimentRunner(
            _figure8_plan(), resumed_dir, RunnerOptions(resume=True)
        ).execute()
        assert resumed_text == clean_text
        assert _run_dir_bytes(resumed_dir) == _run_dir_bytes(clean_dir)

    def test_double_interruption_still_converges(self, tmp_path):
        clean_dir = tmp_path / "clean"
        clean_text = ExperimentRunner(_figure8_plan(), clean_dir).execute()

        run_dir = tmp_path / "run"
        for _ in range(2):  # 4 shards total: 2 + 1 + final resume
            with pytest.raises(RunInterruptedError):
                ExperimentRunner(
                    _figure8_plan(),
                    run_dir,
                    RunnerOptions(resume=run_dir.exists(), max_shards=1),
                ).execute()
        text = ExperimentRunner(
            _figure8_plan(), run_dir, RunnerOptions(resume=True)
        ).execute()
        assert text == clean_text
        assert _run_dir_bytes(run_dir) == _run_dir_bytes(clean_dir)

    def test_corrupted_checkpoint_quarantined_and_recomputed(self, tmp_path):
        clean_dir = tmp_path / "clean"
        clean_text = ExperimentRunner(_figure8_plan(), clean_dir).execute()

        run_dir = tmp_path / "run"
        ExperimentRunner(_figure8_plan(), run_dir).execute()
        victim = run_dir / "shards" / "epoch-0001.json"
        victim.write_bytes(victim.read_bytes()[:40])  # truncate mid-record
        (run_dir / "result.txt").unlink()

        text = ExperimentRunner(
            _figure8_plan(), run_dir, RunnerOptions(resume=True)
        ).execute()
        assert text == clean_text
        assert (run_dir / "quarantine" / "epoch-0001.json.0").exists()
        # The recomputed checkpoint matches the clean run's bytes exactly.
        assert victim.read_bytes() == (
            clean_dir / "shards" / "epoch-0001.json"
        ).read_bytes()

    def test_resume_refuses_different_parameters(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(RunInterruptedError):
            ExperimentRunner(
                _figure8_plan(), run_dir, RunnerOptions(max_shards=1)
            ).execute()
        other_plan = figure8.build_plan(seed=12, users_per_epoch=4, num_epochs=3)
        with pytest.raises(ManifestMismatchError, match="config_hash"):
            ExperimentRunner(
                other_plan, run_dir, RunnerOptions(resume=True)
            ).execute()


class TestPlanDeterminism:
    """Running the same plan twice in fresh directories is byte-identical."""

    @pytest.mark.parametrize(
        "make_plan",
        [
            pytest.param(
                lambda: table1.build_plan(seed=5, tests_per_city=4), id="table1"
            ),
            pytest.param(
                lambda: figure3.build_plan(seed=5, samples_per_site=4),
                id="figure3",
            ),
            pytest.param(
                lambda: chaos.build_plan(
                    seed=5, num_requests=8, fractions=(0.0, 0.3), shell="small"
                ),
                id="chaos",
            ),
            pytest.param(lambda: geoblocking.build_plan(), id="geoblocking"),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, make_plan):
        first = ExperimentRunner(make_plan(), tmp_path / "one").execute()
        second = ExperimentRunner(make_plan(), tmp_path / "two").execute()
        assert first == second
        assert _run_dir_bytes(tmp_path / "one") == _run_dir_bytes(tmp_path / "two")


class TestCliOutDir:
    def test_run_with_out_dir_writes_result(self, tmp_path, capsys):
        run_dir = tmp_path / "f8"
        code = main(
            [
                "run", "figure8",
                "--users", "3",
                "--epochs", "2",
                "--out-dir", str(run_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "terrestrial median" in out
        assert (run_dir / "result.txt").read_text() in out

    def test_second_run_without_resume_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "f8"
        argv = [
            "run", "figure8",
            "--users", "3",
            "--epochs", "2",
            "--out-dir", str(run_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_max_shards_then_resume_matches_clean(self, tmp_path, capsys):
        base = [
            "run", "figure8",
            "--users", "3",
            "--epochs", "2",
            "--seed", "9",
        ]
        clean_dir = tmp_path / "clean"
        assert main(base + ["--out-dir", str(clean_dir)]) == 0
        capsys.readouterr()

        run_dir = tmp_path / "partial"
        code = main(base + ["--out-dir", str(run_dir), "--max-shards", "1"])
        assert code == 5
        assert "resume with --resume" in capsys.readouterr().err

        assert main(base + ["--out-dir", str(run_dir), "--resume"]) == 0
        capsys.readouterr()
        assert (run_dir / "result.txt").read_bytes() == (
            clean_dir / "result.txt"
        ).read_bytes()
