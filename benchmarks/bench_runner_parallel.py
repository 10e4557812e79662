"""The speedup guard for the parallel shard executor.

``pytest benchmarks/bench_runner_parallel.py`` guards that the supervised
worker pool (``--jobs 4``) completes the figure-8 plan at least 2x faster
than the serial path on a machine with >= 4 cores (skipped below that: the
pool cannot beat physics), and that the parallel output stays
byte-identical to serial on the bench workload everywhere.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments import figure8
from repro.runner.engine import ExperimentRunner, RunnerOptions

SEED = 7
USERS_PER_EPOCH = 60
NUM_EPOCHS = 12
TARGET_PARALLEL_SPEEDUP = 2.0
MIN_CORES_FOR_GUARD = 4


def _plan():
    return figure8.build_plan(
        seed=SEED, users_per_epoch=USERS_PER_EPOCH, num_epochs=NUM_EPOCHS
    )


def _time_run(jobs: int, base: Path) -> float:
    runner = ExperimentRunner(
        plan=_plan(),
        run_dir=base / f"jobs{jobs}",
        options=RunnerOptions(jobs=jobs),
    )
    start = time.perf_counter()
    runner.execute()
    return time.perf_counter() - start


def test_parallel_output_matches_serial_on_bench_workload(tmp_path):
    """Byte-identity holds on the bench workload itself, at any core count."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = ExperimentRunner(_plan(), serial_dir).execute()
    parallel = ExperimentRunner(
        _plan(), parallel_dir, RunnerOptions(jobs=4)
    ).execute()
    assert parallel == serial
    assert (parallel_dir / "result.txt").read_bytes() == (
        serial_dir / "result.txt"
    ).read_bytes()


def test_jobs4_at_least_2x_serial(tmp_path):
    """With >= 4 cores, four workers must halve the figure-8 wall-clock."""
    cores = os.cpu_count() or 1
    if cores < MIN_CORES_FOR_GUARD:
        pytest.skip(
            f"{cores} core(s) < {MIN_CORES_FOR_GUARD}: a {TARGET_PARALLEL_SPEEDUP}x "
            f"speedup is not physically available to guard"
        )
    serial_s = min(_time_run(1, tmp_path / f"s{i}") for i in range(2))
    parallel_s = min(_time_run(4, tmp_path / f"p{i}") for i in range(2))
    speedup = serial_s / parallel_s
    assert speedup >= TARGET_PARALLEL_SPEEDUP, (
        f"--jobs 4 only {speedup:.2f}x serial on {cores} cores "
        f"({serial_s:.3f}s vs {parallel_s:.3f}s for "
        f"{len(_plan().shard_ids)} shards)"
    )

