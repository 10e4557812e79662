"""Command-line interface: regenerate paper artifacts and export datasets.

Usage::

    python -m repro list
    python -m repro run table1 --seed 7 --tests-per-city 30
    python -m repro run figure7 --users 20 --epochs 5
    python -m repro run figure8 --out-dir runs/f8 --resume --deadline-s 600
    python -m repro run chaos --obs --out-dir runs/chaos
    python -m repro obs summarize runs/chaos/obs-trace.jsonl
    python -m repro obs events runs/chaos/events.jsonl
    python -m repro aim --seed 7 --tests-per-city 30 --format csv --out aim.csv

Every experiment is one plan of seed-addressed shards
(:class:`~repro.runner.shards.ExperimentPlan`). Without ``--out-dir`` the
CLI runs the shards in order in memory and imports no runner engine. With
``--out-dir`` it runs them through the crash-safe
:mod:`repro.runner.engine`: checkpointed, resumable with ``--resume``, and
bounded by ``--deadline-s`` / ``--shard-deadline-s``. Both print the same
bytes. The engine executes the shards on a supervised worker pool,
``--jobs N`` wide (one worker by default), that survives worker crashes,
hangs, and kills; ``--jobs`` never enters the manifest, so a run started
wide can resume at one worker (and vice versa) byte-for-byte.
A runner flag without ``--out-dir``, or an experiment flag the chosen
experiment does not take (``repro run table1 --users 5``), exits 2 before
any work.

Observability is off by default and the default path is byte-identical to
an uninstrumented run. ``--obs`` (or any of ``--metrics-out`` /
``--trace-out`` / ``--timeseries-out``) installs a live :mod:`repro.obs`
recorder for the run and flushes a Prometheus metrics file, a JSONL
serve-path trace, and a windowed time-series document on exit — including
interrupted exits, through the same atomic-write path as the checkpoints,
so the artifacts are never truncated.

Exit codes: 0 success; 2 generic error; 3 content unavailable; 4 bad
fault/experiment configuration; 5 interrupted (checkpoints flushed);
6 deadline exceeded; 8 shard(s) exhausted their retries and were
quarantined (rest of the run completed; see ``quarantine.json``); 10 a
request was shed by overload protection (admission control, an open
circuit breaker, or a deadline budget).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from repro.errors import (
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    FaultConfigError,
    OverloadedError,
    ReproError,
    RunInterruptedError,
    ShardQuarantinedError,
    UnavailableError,
)

EXIT_ERROR = 2
"""Generic :class:`~repro.errors.ReproError` exit code."""
EXIT_UNAVAILABLE = 3
"""Content was unreachable under the active fault state."""
EXIT_FAULT_CONFIG = 4
"""A fault schedule / retry policy was configured inconsistently."""
EXIT_INTERRUPTED = 5
"""The run stopped on SIGINT/SIGTERM (or ``--max-shards``) after flushing
every completed shard; rerun with ``--resume`` to continue."""
EXIT_DEADLINE = 6
"""The ``--deadline-s`` wall-clock budget expired; completed shards are
checkpointed."""
EXIT_QUARANTINED = 8
"""Shard(s) kept failing, crashing or hanging their workers through the
whole retry budget and were quarantined (``quarantine.json``) while every
other shard completed; fix the cause and rerun with ``--resume``."""
EXIT_OVERLOADED = 10
"""A request was shed by overload protection: admission control refused
it, its circuit breaker was open, or its deadline budget ran out."""

_EXPERIMENTS: dict[str, str] = {
    "chaos": "Chaos sweep: availability and latency under injected failures",
    "table1": "Table 1: distance to best CDN / minRTT per country",
    "figure2": "Fig. 2: per-country median RTT delta (Starlink - terrestrial)",
    "figure3": "Fig. 3: Maputo case study",
    "figure4": "Fig. 4: HTTP response-time difference per country",
    "figure5": "Fig. 5: first contentful paint (DE, GB)",
    "figure7": "Fig. 7: SpaceCDN latency CDFs vs AIM baselines",
    "figure8": "Fig. 8: duty-cycled SpaceCDN latency",
    "geoblocking": "§2 claim: home-content geo-blocking prevalence over Starlink",
    "overload": "Overload sweep: availability/shedding vs offered-load multiplier",
}


def _parse_number_list(
    text: str, flag: str, rule: str, in_range: Callable[[float], bool]
) -> tuple[float, ...]:
    """Validate a comma-separated ``flag`` value eagerly, before any
    experiment work runs: every number must pass ``in_range`` (``rule``
    says how, in the error)."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise FaultConfigError(
                f"{flag} expects comma-separated numbers, got {token!r}"
            ) from None
        if not in_range(value):
            raise FaultConfigError(f"{flag} {rule}, got {value:g}")
        values.append(value)
    if not values:
        raise FaultConfigError(f"{flag} needs at least one value, got {text!r}")
    return tuple(values)


def _parse_flash_crowd(spec: str | None):
    """Validate ``--flash-crowd START:END:EXTRA`` eagerly (exit 4 on error)."""
    if spec is None:
        return None
    from repro.experiments import overload

    return overload.parse_flash_crowd(spec)


_EXPERIMENT_FLAGS: dict[str, tuple[str, ...]] = {
    "chaos": ("seed", "requests", "fractions", "shell", "max_attempts"),
    "table1": ("seed", "tests_per_city"),
    "figure2": ("seed", "tests_per_city"),
    "figure3": ("seed", "samples"),
    "figure4": ("seed", "rounds"),
    "figure5": ("seed", "rounds"),
    "figure7": ("seed", "users", "epochs"),
    "figure8": ("seed", "users", "epochs"),
    "geoblocking": (),
    "overload": (
        "seed", "requests", "loads", "shell", "capacity", "ground_capacity",
        "deadline_ms", "flash_crowd", "max_attempts",
    ),
}
"""The ``run`` option dests each experiment takes, in keyword order."""

_KWARG_OF_FLAG = {
    "requests": "num_requests",
    "samples": "samples_per_site",
    "users": "users_per_epoch",
    "epochs": "num_epochs",
}
"""``run``/``build_plan`` keywords whose name differs from the option's."""

_FLAG_PARSERS = {
    "fractions": lambda text: _parse_number_list(
        text, "--fractions", "values must be within [0, 1)", lambda v: 0.0 <= v < 1.0
    ),
    "loads": lambda text: _parse_number_list(
        text,
        "--loads",
        "multipliers must be positive and finite",
        lambda v: math.isfinite(v) and v > 0.0,
    ),
    "flash_crowd": _parse_flash_crowd,
    # Only 0 disables the deadline; the model rejects any other
    # non-positive or non-finite budget.
    "deadline_ms": lambda deadline_ms: None if deadline_ms == 0 else deadline_ms,
}

_RUNNER_FLAGS = (
    "resume", "deadline_s", "shard_deadline_s", "max_shards", "jobs",
    "progress_every",
)
"""``run`` options that only the ``--out-dir`` runner reads."""


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _experiment_kwargs(name: str, args: argparse.Namespace) -> dict:
    """The ``run``/``build_plan`` keyword arguments the flags give ``name``.

    Flags are parsed and validated here, before any experiment work runs.
    """
    if name not in _EXPERIMENT_FLAGS:
        raise ReproError(
            f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}"
        )
    return {
        _KWARG_OF_FLAG.get(dest, dest): _FLAG_PARSERS.get(dest, lambda v: v)(
            getattr(args, dest)
        )
        for dest in _EXPERIMENT_FLAGS[name]
    }


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a ``run`` option that the invocation would ignore.

    An option counts as given when its value differs from the default of
    a bare ``repro run <experiment>``; one that repeats its default
    changes nothing and passes.
    """
    defaults = vars(build_parser().parse_args(["run", args.experiment]))
    given = {dest for dest, value in vars(args).items() if value != defaults[dest]}
    if args.out_dir is None:
        for dest in _RUNNER_FLAGS:
            if dest in given:
                raise ReproError(f"{_flag(dest)} requires --out-dir")
    takes = _EXPERIMENT_FLAGS[args.experiment]
    ignored = sorted(
        {
            dest
            for flags in _EXPERIMENT_FLAGS.values()
            for dest in flags
            if dest in given and dest not in takes
        }
    )
    if ignored:
        raise ReproError(
            f"{args.experiment} does not take {', '.join(map(_flag, ignored))}"
        )


def _build_plan(name: str, args: argparse.Namespace):
    """The plan of ``name`` that the flags parameterise."""
    import importlib  # local import keeps --help fast

    kwargs = _experiment_kwargs(name, args)
    return importlib.import_module(f"repro.experiments.{name}").build_plan(**kwargs)


def _check_seed(seed: int) -> None:
    """Reject a negative ``--seed`` before any work or run directory exists."""
    if seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {seed}")


def _cmd_list(_: argparse.Namespace) -> int:
    for name, description in _EXPERIMENTS.items():
        print(f"{name:10s} {description}")
    return 0


def _run_and_print(args: argparse.Namespace) -> int:
    plan = _build_plan(args.experiment, args)
    if args.out_dir is None:
        print(plan.format(plan.run()))
        return 0

    from repro.runner.engine import ExperimentRunner, RunnerOptions

    runner = ExperimentRunner(
        plan=plan,
        run_dir=args.out_dir,
        options=RunnerOptions(
            resume=args.resume,
            deadline_s=args.deadline_s,
            shard_deadline_s=args.shard_deadline_s,
            max_shards=args.max_shards,
            jobs=args.jobs,
            progress_every=args.progress_every,
        ),
    )
    print(runner.execute())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    _check_flags(args)
    obs_requested = (
        args.obs
        or args.metrics_out is not None
        or args.trace_out is not None
        or args.timeseries_out is not None
    )
    if not obs_requested:
        # Observability fully off: the process-global recorder stays the
        # no-op singleton and every output is byte-identical to the
        # pre-obs code paths.
        return _run_and_print(args)

    from pathlib import Path

    from repro.obs.recorder import ObsRecorder, recording

    # --obs writes all three artifacts (next to the run with --out-dir,
    # else in the CWD); a bare --metrics-out / --trace-out /
    # --timeseries-out writes only what was asked for, so
    # `--metrics-out m.prom` never drops a trace file in CWD.
    base = Path(args.out_dir) if args.out_dir is not None else Path(".")
    metrics_path = None
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
    elif args.obs:
        metrics_path = base / "obs-metrics.prom"
    trace_path = None
    if args.trace_out:
        trace_path = Path(args.trace_out)
    elif args.obs:
        trace_path = base / "obs-trace.jsonl"
    timeseries_path = None
    if args.timeseries_out:
        timeseries_path = Path(args.timeseries_out)
    elif args.obs:
        timeseries_path = base / "obs-timeseries.json"
    recorder = ObsRecorder()
    try:
        with recording(recorder):
            return _run_and_print(args)
    finally:
        # Runs on every exit — success, SIGINT/--max-shards interruption,
        # deadline — through the same tmp+fsync+rename path as the shard
        # checkpoints: the artifacts are complete or absent, never torn.
        for path in (metrics_path, trace_path, timeseries_path):
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
        recorder.flush(
            metrics_path=metrics_path,
            trace_path=trace_path,
            timeseries_path=timeseries_path,
        )
        written = [
            f"{kind} -> {path}"
            for kind, path in (
                ("metrics", metrics_path),
                ("trace", trace_path),
                ("timeseries", timeseries_path),
            )
            if path is not None
        ]
        print("obs: " + "; ".join(written), file=sys.stderr)


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.summarize import summarize_trace_file

    print(summarize_trace_file(args.trace))
    return 0


def _cmd_obs_events(args: argparse.Namespace) -> int:
    from repro.obs.events import render_events_file

    print(render_events_file(args.events))
    return 0


def _cmd_aim(args: argparse.Namespace) -> int:
    from repro.measurements.aim import AimGenerator
    from repro.measurements.export import write_aim_csv, write_aim_json

    _check_seed(args.seed)
    dataset = AimGenerator(seed=args.seed).generate(tests_per_city=args.tests_per_city)
    write = write_aim_csv if args.format == "csv" else write_aim_json
    try:
        count = write(dataset, args.out)
    except OSError as exc:
        raise DatasetError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    print(f"wrote {count} speed tests to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpaceCDN reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list reproducible experiments")
    list_cmd.set_defaults(func=_cmd_list)

    run_cmd = sub.add_parser("run", help="run one experiment and print its rows")
    run_cmd.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    run_cmd.add_argument("--seed", type=int, default=7)
    run_cmd.add_argument("--tests-per-city", type=int, default=30)
    run_cmd.add_argument("--samples", type=int, default=25)
    run_cmd.add_argument("--rounds", type=int, default=3)
    run_cmd.add_argument("--users", type=int, default=20)
    run_cmd.add_argument("--epochs", type=int, default=5)
    run_cmd.add_argument("--requests", type=int, default=150)
    run_cmd.add_argument(
        "--fractions",
        default="0.0,0.1,0.3",
        help="comma-separated failure fractions for the chaos sweep",
    )
    run_cmd.add_argument(
        "--shell",
        choices=("shell1", "small"),
        default="shell1",
        help="constellation for the chaos/overload sweeps (small = 6x8 smoke shell)",
    )
    run_cmd.add_argument("--max-attempts", type=int, default=3)
    run_cmd.add_argument(
        "--loads",
        default="0.5,1.0,2.0,4.0",
        help="comma-separated offered-load multipliers for the overload sweep",
    )
    run_cmd.add_argument(
        "--flash-crowd",
        default=None,
        metavar="START:END:EXTRA",
        help="inject a flash crowd into the overload sweep: EXTRA background "
        "requests per slot on every satellite between START and END seconds",
    )
    run_cmd.add_argument(
        "--capacity",
        type=float,
        default=6.0,
        help="per-satellite sustainable requests per slot (overload sweep)",
    )
    run_cmd.add_argument(
        "--ground-capacity",
        type=float,
        default=40.0,
        help="ground-tier sustainable requests per slot (overload sweep)",
    )
    run_cmd.add_argument(
        "--deadline-ms",
        type=float,
        default=1500.0,
        help="end-to-end deadline budget per request in the overload sweep; "
        "0 disables deadline enforcement",
    )
    run_cmd.add_argument(
        "--out-dir",
        default=None,
        help="run crash-safely under this directory: sharded execution with "
        "atomic per-shard checkpoints, a manifest, and result.txt",
    )
    run_cmd.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous --out-dir run, skipping completed shards "
        "(refused if the directory's manifest does not match this invocation)",
    )
    run_cmd.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help=f"whole-run wall-clock budget in seconds "
        f"(exit {EXIT_DEADLINE} when exceeded)",
    )
    run_cmd.add_argument(
        "--shard-deadline-s",
        type=float,
        default=None,
        help=f"per-shard wall-clock budget in seconds; the parent kills a "
        f"worker whose shard runs past it and retries the shard, then "
        f"quarantines it (exit {EXIT_QUARANTINED})",
    )
    run_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=f"run shards on N supervised worker processes (requires "
        f"--out-dir); crashed, hung, or killed workers are detected and "
        f"their shards retried on fresh workers, repeat offenders are "
        f"quarantined (exit {EXIT_QUARANTINED}) while the rest of the run "
        f"completes; default 1 worker",
    )
    run_cmd.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help=f"stop (exit {EXIT_INTERRUPTED}) after completing this many "
        f"shards; useful for budgeted, incremental runs",
    )
    run_cmd.add_argument(
        "--progress-every",
        type=int,
        default=None,
        metavar="N",
        help="print an obs progress line every N completed shards (requires "
        "--out-dir); default: quiet per-shard, one final summary line",
    )
    run_cmd.add_argument(
        "--obs",
        action="store_true",
        help="record metrics, a serve-path trace, and kernel profiles for "
        "this run (off by default; the default path is byte-identical)",
    )
    run_cmd.add_argument(
        "--metrics-out",
        default=None,
        help="write Prometheus-text metrics here (implies --obs; default "
        "obs-metrics.prom, under --out-dir when given)",
    )
    run_cmd.add_argument(
        "--trace-out",
        default=None,
        help="write the JSONL serve-path trace here (implies --obs; default "
        "obs-trace.jsonl, under --out-dir when given)",
    )
    run_cmd.add_argument(
        "--timeseries-out",
        default=None,
        help="write the windowed time-series JSON here (implies --obs; "
        "default obs-timeseries.json, under --out-dir when given)",
    )
    run_cmd.set_defaults(func=_cmd_run)

    obs_cmd = sub.add_parser(
        "obs", help="inspect observability artifacts from an --obs run"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize_cmd = obs_sub.add_parser(
        "summarize",
        help="render per-tier serving and ladder-attempt tables from a trace",
    )
    summarize_cmd.add_argument("trace", help="path to an obs-trace.jsonl file")
    summarize_cmd.set_defaults(func=_cmd_obs_summarize)
    events_cmd = obs_sub.add_parser(
        "events",
        help="render a run event log as a timeline and per-shard wall-time table",
    )
    events_cmd.add_argument("events", help="path to a run's events.jsonl file")
    events_cmd.set_defaults(func=_cmd_obs_events)

    aim_cmd = sub.add_parser("aim", help="generate and export the synthetic AIM dataset")
    aim_cmd.add_argument("--seed", type=int, default=7)
    aim_cmd.add_argument("--tests-per-city", type=int, default=30)
    aim_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    aim_cmd.add_argument("--out", required=True)
    aim_cmd.set_defaults(func=_cmd_aim)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunInterruptedError as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except DeadlineExceededError as exc:
        print(f"deadline: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except ShardQuarantinedError as exc:
        print(f"error: shard(s) quarantined: {exc}", file=sys.stderr)
        return EXIT_QUARANTINED
    except OverloadedError as exc:
        print(f"error: request shed under overload: {exc}", file=sys.stderr)
        return EXIT_OVERLOADED
    except UnavailableError as exc:
        print(f"error: content unavailable: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except FaultConfigError as exc:
        print(f"error: bad fault configuration: {exc}", file=sys.stderr)
        return EXIT_FAULT_CONFIG
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
