"""Tests for dataset export/import and the CLI."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_DEADLINE,
    EXIT_ERROR,
    EXIT_FAULT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_QUARANTINED,
    EXIT_UNAVAILABLE,
    _build_plan,
    _EXPERIMENTS,
    build_parser,
    main,
)
from repro.errors import DatasetError, UnavailableError
from repro.geo.datasets.cities import city_by_name
from repro.measurements.aim import AimGenerator
from repro.measurements.export import (
    read_aim_csv,
    read_aim_json,
    write_aim_csv,
    write_aim_json,
    write_netmet_csv,
)


@pytest.fixture(scope="module")
def dataset():
    cities = (city_by_name("Madrid"), city_by_name("Maputo"))
    return AimGenerator(seed=3).generate(tests_per_city=5, cities=cities)


class TestCsvRoundTrip:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "aim.csv"
        count = write_aim_csv(dataset, path)
        assert count == len(dataset.tests)
        loaded = read_aim_csv(path)
        assert loaded.tests == dataset.tests

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_aim_csv(tmp_path / "nope.csv")

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetError):
            read_aim_csv(path)

    def test_malformed_row_reports_path_and_row_number(self, dataset, tmp_path):
        path = tmp_path / "aim.csv"
        write_aim_csv(dataset, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[3].rstrip("\r\n").split(",")
        fields[5] = "not-a-float"
        lines[3] = ",".join(fields) + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(DatasetError) as excinfo:
            read_aim_csv(path)
        message = str(excinfo.value)
        assert "row 4" in message
        assert str(path) in message


class TestJsonRoundTrip:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "aim.json"
        count = write_aim_json(dataset, path)
        assert count == len(dataset.tests)
        loaded = read_aim_json(path)
        assert loaded.tests == dataset.tests

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            read_aim_json(path)

    def test_non_array_raises(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text('{"a": 1}')
        with pytest.raises(DatasetError):
            read_aim_json(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps([{"city": "Madrid"}]))
        with pytest.raises(DatasetError) as excinfo:
            read_aim_json(path)
        message = str(excinfo.value)
        assert "record 1" in message
        assert str(path) in message

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_aim_json(tmp_path / "nope.json")


class TestNetmetExport:
    def test_write_records(self, tmp_path):
        from repro.measurements.aim import TERRESTRIAL
        from repro.measurements.netmet import NetMetProbe

        probe = NetMetProbe(seed=1)
        records = probe.browse(city_by_name("Madrid"), TERRESTRIAL, rounds=1)
        path = tmp_path / "netmet.csv"
        assert write_netmet_csv(records, path) == 20
        header = path.read_text().splitlines()[0]
        assert "fcp_ms" in header


class TestCliParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure7" in out

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "figure99"])

    def test_run_table1_small(self, capsys):
        assert main(["run", "table1", "--tests-per-city", "5"]) == 0
        out = capsys.readouterr().out
        assert "Mozambique" in out

    def test_run_figure3_small(self, capsys):
        assert main(["run", "figure3", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "Frankfurt" in out

    def test_run_figure2_small(self, capsys):
        assert main(["run", "figure2", "--tests-per-city", "5"]) == 0
        out = capsys.readouterr().out
        assert "delta" in out.lower()

    def test_run_figure4_small(self, capsys):
        assert main(["run", "figure4", "--rounds", "1"]) == 0
        assert "NG" in capsys.readouterr().out

    def test_run_figure5_small(self, capsys):
        assert main(["run", "figure5", "--rounds", "1"]) == 0
        assert "FCP" in capsys.readouterr().out

    def test_run_figure7_small(self, capsys):
        assert main(["run", "figure7", "--users", "4", "--epochs", "1"]) == 0
        assert "1st/Sat" in capsys.readouterr().out

    def test_run_figure8_small(self, capsys):
        assert main(["run", "figure8", "--users", "4", "--epochs", "1"]) == 0
        assert "terrestrial median" in capsys.readouterr().out

    def test_run_chaos_smoke(self, capsys):
        assert main(
            [
                "run", "chaos",
                "--shell", "small",
                "--requests", "10",
                "--fractions", "0.0,0.3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "30%" in out

    def test_missing_command_exits(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main([])

    def test_aim_export_csv(self, tmp_path, capsys):
        out_file = tmp_path / "aim.csv"
        code = main(
            ["aim", "--tests-per-city", "1", "--format", "csv", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        loaded = read_aim_csv(out_file)
        assert len(loaded.tests) > 100  # every gazetteer city contributes

    def test_aim_export_json(self, tmp_path):
        out_file = tmp_path / "aim.json"
        assert main(
            ["aim", "--tests-per-city", "1", "--format", "json", "--out", str(out_file)]
        ) == 0
        assert json.loads(out_file.read_text())

    def test_aim_export_into_missing_directory_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "missing_dir" / "x.csv"
        code = main(["aim", "--tests-per-city", "1", "--out", str(out_file)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_file}:")
        assert ".tmp" not in err
        assert not out_file.parent.exists()


class TestExitCodes:
    """Fault-layer failures map to distinct non-zero exit codes."""

    def test_fault_config_error_exits_4(self, capsys):
        # max_attempts=0 is an invalid RetryPolicy -> FaultConfigError.
        code = main(
            [
                "run", "chaos",
                "--shell", "small",
                "--requests", "5",
                "--fractions", "0.0",
                "--max-attempts", "0",
            ]
        )
        assert code == EXIT_FAULT_CONFIG == 4
        assert "bad fault configuration" in capsys.readouterr().err

    def test_unavailable_error_exits_3(self, capsys, monkeypatch):
        import repro.cli as cli_module

        def raise_unavailable(name, args):
            raise UnavailableError("no serving path survives")

        monkeypatch.setattr(cli_module, "_build_plan", raise_unavailable)
        code = main(["run", "chaos", "--shell", "small"])
        assert code == EXIT_UNAVAILABLE == 3
        assert "content unavailable" in capsys.readouterr().err

    def test_generic_repro_error_still_exits_2(self, capsys):
        # An invalid request count is a plain ConfigurationError.
        code = main(
            [
                "run", "chaos",
                "--shell", "small",
                "--requests", "0",
                "--fractions", "0.0",
            ]
        )
        assert code == EXIT_ERROR == 2
        assert "error" in capsys.readouterr().err

    def test_non_numeric_fraction_exits_4(self, capsys):
        code = main(
            [
                "run", "chaos",
                "--shell", "small",
                "--requests", "5",
                "--fractions", "0.3,banana",
            ]
        )
        assert code == EXIT_FAULT_CONFIG == 4
        err = capsys.readouterr().err
        assert "bad fault configuration" in err
        assert "banana" in err

    def test_out_of_range_fraction_exits_4(self, capsys):
        code = main(
            [
                "run", "chaos",
                "--shell", "small",
                "--requests", "5",
                "--fractions", "1.5",
            ]
        )
        assert code == EXIT_FAULT_CONFIG == 4
        assert "within [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("out_dir", [False, True])
    def test_full_failure_fraction_exits_4_before_any_work(
        self, out_dir, tmp_path, capsys, monkeypatch
    ):
        # 1.0 fails every satellite, so the run must refuse it before the
        # 0.0 shard (or a run directory) exists.
        from repro.experiments import chaos

        def no_work(*args):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(chaos, "_sweep_point", no_work)
        run_dir = tmp_path / "run"
        argv = ["run", "chaos", "--shell", "small", "--fractions", "0.0,1.0"]
        if out_dir:
            argv += ["--out-dir", str(run_dir)]
        assert main(argv) == EXIT_FAULT_CONFIG
        assert "within [0, 1)" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_chaos_plan_rejects_a_full_failure_fraction(self):
        from repro.errors import FaultConfigError
        from repro.experiments import chaos

        with pytest.raises(FaultConfigError, match=r"within \[0, 1\)"):
            chaos.build_plan(fractions=(0.0, 1.0), shell="small")

    def test_empty_fractions_exits_4(self, capsys):
        code = main(
            ["run", "chaos", "--shell", "small", "--fractions", ","]
        )
        assert code == EXIT_FAULT_CONFIG == 4
        assert "at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment", ["table1", "figure3", "chaos", "figure8", "overload"]
    )
    def test_negative_seed_exits_2_before_any_work(self, experiment, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["run", experiment, "--seed", "-1", "--out-dir", str(out_dir)])
        assert code == EXIT_ERROR
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment", ["table1", "figure2"])
    @pytest.mark.parametrize("tests_per_city", ["0", "-3"])
    def test_bad_tests_per_city_exits_2_before_any_work(
        self, experiment, tests_per_city, tmp_path, capsys
    ):
        out_dir = tmp_path / "run"
        code = main(
            [
                "run", experiment, f"--tests-per-city={tests_per_city}",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_ERROR
        assert "tests_per_city must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("tests_per_city", ["0", "-3"])
    def test_aim_bad_tests_per_city_exits_2_naming_the_flag(
        self, tests_per_city, tmp_path, capsys
    ):
        out_file = tmp_path / "aim.csv"
        code = main(
            ["aim", f"--tests-per-city={tests_per_city}", "--out", str(out_file)]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "tests_per_city must be >= 1" in err
        assert "num_tests" not in err
        assert not out_file.exists()

    def test_aim_negative_seed_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "aim.csv"
        assert main(["aim", "--seed", "-1", "--out", str(out_file)]) == EXIT_ERROR
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out_file.exists()

    def test_runner_flags_require_out_dir(self, tmp_path, monkeypatch, capsys):
        # Zero values used to pass a truthiness test and run in memory.
        monkeypatch.chdir(tmp_path)
        for flag, value in (
            ("--resume", None),
            ("--jobs", "0"),
            ("--jobs", "-2"),
            ("--max-shards", "0"),
            ("--deadline-s", "0"),
            ("--shard-deadline-s", "0"),
            ("--progress-every", "0"),
        ):
            argv = ["run", "geoblocking", flag] + ([] if value is None else [value])
            assert main(argv) == EXIT_ERROR == 2, argv
            captured = capsys.readouterr()
            assert f"{flag} requires --out-dir" in captured.err, argv
            assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [
            ("figure8", "--fractions", "0.3"),
            ("table1", "--users", "5"),
            ("figure3", "--requests", "9"),
            ("chaos", "--loads", "1.0"),
            ("geoblocking", "--seed", "3"),
        ],
    )
    def test_flag_the_experiment_does_not_take_exits_2(
        self, experiment, flag, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", experiment, flag, value, "--obs"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"{experiment} does not take {flag}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_new_exit_codes_are_distinct(self):
        codes = {
            EXIT_ERROR,
            EXIT_UNAVAILABLE,
            EXIT_FAULT_CONFIG,
            EXIT_INTERRUPTED,
            EXIT_DEADLINE,
            EXIT_QUARANTINED,
        }
        assert codes == {2, 3, 4, 5, 6, 8}


def test_runtime_never_imports_networkx():
    """networkx is a test-only dependency: neither the CLI nor any
    registered experiment module may pull it in."""
    code = (
        "import importlib, sys\n"
        "from repro.cli import _EXPERIMENTS\n"
        "for name in _EXPERIMENTS:\n"
        "    importlib.import_module(f'repro.experiments.{name}')\n"
        "assert 'networkx' not in sys.modules, 'networkx imported at runtime'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_flag_run_imports_no_runner_engine():
    """Without ``--out-dir`` a run executes its plan in memory: the
    checkpointing engine, store, deadlines, signal guard, plan registry
    and worker pool stay unimported."""
    engine_modules = [
        f"repro.runner.{name}"
        for name in ("engine", "store", "deadline", "interrupt", "registry", "parallel")
    ]
    code = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['run', 'figure3']) == 0\n"
        f"loaded = [m for m in {engine_modules!r} if m in sys.modules]\n"
        "assert not loaded, f'a no-flag run imported {loaded}'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_MEASUREMENT_EXPERIMENTS = (
    "table1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "geoblocking",
)
"""The §2-§3 measurement study: AIM/NetMet synthesis, no constellation."""

_SIMULATION_MODULES = (
    "scipy",
    "repro.topology.fastcore",
    "repro.spacecdn",
    "repro.workloads",
    "repro.faults",
    "repro.overload",
    "repro.obs.summarize",
    "repro.obs.events",
)
"""What a measurement experiment must not load (a name or its submodules)."""


def _modules_loaded_by(code: str) -> list[str]:
    """The ``sys.modules`` names after ``code`` runs in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code += "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return proc.stdout.split()


def test_list_imports_only_the_cli():
    """``repro list`` loads the CLI and its error table, no experiment."""
    loaded = _modules_loaded_by(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['list']) == 0\n"
    )
    assert [m for m in loaded if m.startswith("repro.")] == [
        "repro.cli",
        "repro.errors",
    ]


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_experiment_imports_only_what_it_uses(experiment):
    """An experiment module loads no other experiment (``common`` and
    ``shells`` are shared helpers), and a measurement experiment loads no
    scipy, routing kernel, serve, fault, overload, workload or obs tooling
    module."""
    loaded = _modules_loaded_by(f"import repro.experiments.{experiment}")
    shared = {"common", "shells", experiment}
    others = [
        m
        for m in loaded
        if m.startswith("repro.experiments.") and m.split(".")[2] not in shared
    ]
    assert not others, f"{experiment} imported {others}"
    if experiment in _MEASUREMENT_EXPERIMENTS:
        heavy = [
            m
            for m in loaded
            if any(m == p or m.startswith(p + ".") for p in _SIMULATION_MODULES)
        ]
        assert not heavy, f"{experiment} imported {heavy}"


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_build_plan_defaults_are_the_cli_defaults(experiment):
    """``module.run()`` and a bare ``repro run <experiment>`` run the same
    plan: the library defaults are the CLI defaults."""
    module = importlib.import_module(f"repro.experiments.{experiment}")
    args = build_parser().parse_args(["run", experiment])
    assert module.build_plan().config == _build_plan(experiment, args).config
