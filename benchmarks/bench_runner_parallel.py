"""Benchmarks and the speedup guard for the parallel shard executor.

Two jobs:

* ``pytest benchmarks/bench_runner_parallel.py`` — guard that the
  supervised worker pool (``--jobs 4``) completes the figure-8 plan at
  least 2x faster than the serial path on a machine with >= 4 cores
  (skipped below that: the pool cannot beat physics), and that the
  parallel output stays byte-identical to serial on the bench workload
  everywhere.
* ``python benchmarks/bench_runner_parallel.py --emit
  BENCH_runner_parallel.json`` — measure shard throughput at jobs 1, 2,
  and 4 and dump the wall-clock/speedup summary as JSON (what CI uploads
  as an artifact), recording the host's core count alongside so a
  single-core container's numbers are never mistaken for a scaling claim.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments import figure8
from repro.runner.engine import ExperimentRunner, RunnerOptions

SEED = 7
USERS_PER_EPOCH = 60
NUM_EPOCHS = 12
JOBS_SWEEP = (1, 2, 4)
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


def measure() -> dict:
    """Wall-clock the same figure-8 plan at every width, best of two."""
    plan = _plan()
    num_shards = len(plan.shard_ids)
    by_jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in JOBS_SWEEP:
            seconds = min(
                _time_run(jobs, Path(tmp) / f"round{i}") for i in range(2)
            )
            by_jobs[str(jobs)] = {
                "seconds": seconds,
                "shards_per_second": num_shards / seconds,
                "speedup_vs_serial": by_jobs["1"]["seconds"] / seconds
                if "1" in by_jobs
                else 1.0,
            }
    return {
        "experiment": "figure8",
        "seed": SEED,
        "users_per_epoch": USERS_PER_EPOCH,
        "num_epochs": NUM_EPOCHS,
        "num_shards": num_shards,
        "cpu_count": os.cpu_count(),
        "jobs": by_jobs,
    }


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


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        summary = measure()
        with open(argv[1], "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        last = str(JOBS_SWEEP[-1])
        print(
            f"wrote {argv[1]}: {summary['num_shards']} shards on "
            f"{summary['cpu_count']} core(s); jobs=1 "
            f"{summary['jobs']['1']['shards_per_second']:.2f} shards/s, "
            f"jobs={last} {summary['jobs'][last]['speedup_vs_serial']:.2f}x"
        )
        return 0
    print(
        "usage: python benchmarks/bench_runner_parallel.py "
        "--emit BENCH_runner_parallel.json"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
