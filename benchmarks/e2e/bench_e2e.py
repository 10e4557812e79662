"""End-to-end benchmark of ``repro``: four paper workloads, timed from outside.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py run --seed 7 [--workload NAME]
        [--seconds S] [--trace 0|1] [--out results.json]
    python3 benchmarks/e2e/bench_e2e.py trace --seed 7 [--workload NAME]
        [--out traced.json]
    python3 benchmarks/e2e/bench_e2e.py agree A.json B.json

``run`` measures each workload in a fresh child process. The child is
single-threaded and runs the workload's ops in a closed loop, one at a
time, until ``--seconds`` of op time have passed and the cycle or plan
under way is complete. Every op's seed is derived from ``(seed, workload,
op index)``, so seed-keyed caches inside ``repro`` miss as they would in
separate ``repro run`` processes, and no op is a warm-up. Outputs are
checked untimed: invariants on every op's result, a replay of the first op
of each kind that must give byte-identical text, and an ``output_sha256``
over the first cycle or plan. ``setup_s`` is the median of several cold
starts of the workload's imports, taken before the child runs.

The machine's speed drifts with the load of other tenants, so every timed
span has a :class:`SpeedProbe` sample just before and just after it, and
the declared times are rescaled to a fixed reference speed (see
:func:`at_reference_speed`). Op percentiles are Harrell-Davis estimates.
The text output and ``--out`` give the times as measured too.

``--trace 1`` (and ``trace``, which adds an untraced run to measure the
tracing overhead) installs the wrappers of ``trace.py`` in the child and
reports per-layer metrics instead; ``trace --out X.json`` also writes
each workload's spans as JSONL next to ``X.json``. ``agree`` compares two
result files, or two directories of them, metric by metric against the
bounds in ``BENCHMARK.json`` and exits 1 when they disagree.

Scratch files (the overload workload's obs artifacts) go to a temporary
directory inside this one, removed when the child ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run at all (for example without ``src/repro``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
BENCHMARK_JSON = REPO / "BENCHMARK.json"

SETUP_STARTS = 7
"""Timed cold starts per workload. One more start runs first and is
discarded: in a fresh checkout it also writes the bytecode caches."""

P90_TAIL = 10
"""Samples above p90 a run should hold for p90 to be read from data; the
output flags a run with fewer."""

REFERENCE_PROBE_S = 0.5e-3
"""What one :class:`SpeedProbe` sample takes at the reference speed, to
which the declared times are rescaled: a round figure near what it takes
on the 2-vCPU VM of README.md (a run's median sample reads 0.44-0.68 ms)."""

CHILD_TIMEOUT_S = 140.0
PROBE_TIMEOUT_S = 30.0


# ``import trace`` could bind the standard-library module of that name, so
# load this directory's trace.py from its path, under a name of its own.
_trace_spec = importlib.util.spec_from_file_location("bench_e2e_trace", HERE / "trace.py")
bench_trace = importlib.util.module_from_spec(_trace_spec)
sys.modules[_trace_spec.name] = bench_trace
_trace_spec.loader.exec_module(bench_trace)


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


class SpeedProbe:
    """A fixed CPU kernel of the benchmark's own, timed to gauge how fast the
    machine runs at a given moment.

    The host shares its cores with other tenants, and its speed drifts by a
    third or more over minutes, far more than the changes the benchmark must
    resolve. A probe sample taken just before and just after each timed span
    says how fast the machine ran around it; :func:`at_reference_speed`
    divides that drift out. The kernel mixes interpreted arithmetic and dict
    stores with in-place NumPy work on buffers allocated once, like the
    program's own mix, and touches nothing of ``repro``, so a change to the
    program cannot change it.
    """

    def __init__(self) -> None:
        self._src = np.random.default_rng(0).random(8192)
        self._buf = np.empty_like(self._src)
        self._table: dict[int, float] = {}

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += (i * 7 % 13) * 0.5
            self._table[i & 127] = acc
        for _ in range(4):
            np.copyto(self._buf, self._src)
            self._buf.sort()
            acc += float(np.dot(self._buf, self._src))
        return time.perf_counter() - start

    def sample(self) -> float:
        """Seconds one kernel run takes now: the median of three runs, after
        one more that refills the caches the timed span evicted."""
        self._once()
        return statistics.median(self._once() for _ in range(3))


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Each of ``seconds`` rescaled to the reference speed.

    ``probes[i]`` and ``probes[i + 1]`` are the probe samples taken just
    before and just after span ``i``; their mean is how slow the machine ran
    around it, relative to :data:`REFERENCE_PROBE_S`.
    """
    return [
        s * REFERENCE_PROBE_S / ((probes[i] + probes[i + 1]) / 2)
        for i, s in enumerate(seconds)
    ]


def op_seed(seed: int, workload: str, index: int) -> int:
    """A 31-bit seed derived from (workload seed, workload, op or plan index)."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# -- output checks --------------------------------------------------------------


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _fraction(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


def _violations(label: str, checks: dict[str, bool]) -> list[str]:
    return [f"{label}: {name}" for name, ok in checks.items() if not ok]


def _check_table1(result) -> list[str]:
    from repro.experiments.table1 import TABLE1_COUNTRIES

    problems = _violations(
        "table1",
        {"rows are TABLE1_COUNTRIES": tuple(r.iso2 for r in result.rows) == TABLE1_COUNTRIES},
    )
    for r in result.rows:
        problems += _violations(
            f"table1 {r.iso2}",
            {
                "distances finite and >= 0": all(
                    math.isfinite(d) and d >= 0
                    for d in (r.terrestrial_distance_km, r.starlink_distance_km)
                ),
                "minRTTs finite and > 0": _finite_positive(
                    (r.terrestrial_min_rtt_ms, r.starlink_min_rtt_ms)
                ),
            },
        )
    return problems


def _check_figure2(result) -> list[str]:
    deltas = list(result.deltas_ms.values())
    return _violations(
        "figure2",
        {
            "has deltas": bool(deltas),
            "deltas finite": all(math.isfinite(d) for d in deltas),
        },
    )


def _check_figure3(result) -> list[str]:
    from repro.experiments.figure3 import CASE_STUDY_SITES

    return _violations(
        "figure3",
        {
            f"{isp} medians finite and > 0 for every site": (
                tuple(table) == CASE_STUDY_SITES and _finite_positive(table.values())
            )
            for isp, table in (
                ("starlink", result.starlink_ms),
                ("terrestrial", result.terrestrial_ms),
            )
        },
    )


def _check_figure4(result) -> list[str]:
    from repro.experiments.figure4 import FIGURE4_COUNTRIES

    diffs = result.differences_ms
    return _violations(
        "figure4",
        {
            "countries are FIGURE4_COUNTRIES": tuple(diffs) == FIGURE4_COUNTRIES,
            "differences non-empty and finite": all(
                v and all(math.isfinite(x) for x in v) for v in diffs.values()
            ),
        },
    )


def _check_figure5(result) -> list[str]:
    summaries = result.fcp_summaries.values()
    return _violations(
        "figure5",
        {
            "four (country, ISP) summaries": len(summaries) == 4,
            "medians finite and > 0": _finite_positive(s.median for s in summaries),
            "p25 <= median <= p75": all(s.p25 <= s.median <= s.p75 for s in summaries),
        },
    )


PAPER_CHECKS: dict[str, Callable[[Any], list[str]]] = {
    "table1": _check_table1,
    "figure2": _check_figure2,
    "figure3": _check_figure3,
    "figure4": _check_figure4,
    "figure5": _check_figure5,
}


def _check_samples(label: str, samples, keys, count: int) -> list[str]:
    by_key = {float(k): v for k, v in samples}
    problems = _violations(label, {"one series per curve": sorted(by_key) == sorted(keys)})
    for key, values in by_key.items():
        problems += _violations(
            f"{label} {key:g}",
            {
                f"{count} samples": len(values) == count,
                "samples finite and > 0": _finite_positive(values),
            },
        )
    return problems


def _check_chaos_point(p: dict) -> list[str]:
    return _violations(
        f"chaos fraction {p['fraction']:g}",
        {
            "requests >= 1": p["requests"] >= 1,
            "availability in [0, 1]": _fraction(p["availability"]),
            "space hit ratio in [0, 1]": _fraction(p["space_hit_ratio"]),
            "unavailable <= requests": 0 <= p["unavailable"] <= p["requests"],
            "retries, timeouts >= 0": p["retries"] >= 0 and p["timeouts"] >= 0,
            "0 < p50 <= p99": _finite_positive((p["p50_rtt_ms"], p["p99_rtt_ms"]))
            and p["p50_rtt_ms"] <= p["p99_rtt_ms"],
            "duty-cycle median finite and > 0": _finite_positive(
                (p["dutycycle_median_ms"],)
            ),
        },
    )


def _check_overload_point(p: dict) -> list[str]:
    return _violations(
        f"overload load {p['load']:g}",
        {
            "requests >= 1": p["requests"] >= 1,
            "availability in [0, 1]": _fraction(p["availability"]),
            "shed fraction in [0, 1]": _fraction(p["shed_fraction"]),
            "shed + unavailable <= requests": 0 <= p["shed"]
            and 0 <= p["unavailable"]
            and p["shed"] + p["unavailable"] <= p["requests"],
            "deadline-exhausted <= shed": 0 <= p["deadline_exhausted"] <= p["shed"],
            "goodput >= 0": p["goodput_rps"] >= 0,
            "0 < p50 <= p99": _finite_positive((p["p50_rtt_ms"], p["p99_rtt_ms"]))
            and p["p50_rtt_ms"] <= p["p99_rtt_ms"],
        },
    )


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One timed call, and how to check its result outside the timing."""

    kind: str
    call: Callable[[], Any]
    inspect: Callable[[Any], tuple[str, list[str]]]
    """(canonical output text, invariant violations) of ``call``'s result."""
    units: Callable[[Any], int]
    closes_block: bool
    """Last op of a cycle or plan: a run stops only after one of these."""


PAPER_MODULES: tuple[str, ...] = ("table1", "figure2", "figure3", "figure4", "figure5")


def paper_measure_ops(seed: int, work_dir: Path, run_kwargs=None) -> Iterator[Op]:
    """``m.run(seed=s)`` then ``m.format_result(...)``: ``repro run m --seed s``."""
    run_kwargs = run_kwargs or {}
    index = 0
    while True:
        for position, name in enumerate(PAPER_MODULES):
            yield _paper_op(
                name,
                op_seed(seed, "paper-measure", index),
                run_kwargs.get(name, {}),
                closes_block=position == len(PAPER_MODULES) - 1,
            )
            index += 1


def _paper_op(name: str, seed: int, kwargs: dict, closes_block: bool) -> Op:
    module = importlib.import_module(f"repro.experiments.{name}")

    def call():
        result = module.run(seed=seed, **kwargs)
        return result, module.format_result(result)

    def inspect(out):
        result, text = out
        return text, PAPER_CHECKS[name](result) + _violations("output", {"text": bool(text)})

    return Op(name, call, inspect, lambda _: 1, closes_block)


def spacecdn_sim_ops(
    seed: int, work_dir: Path, users: int = 20, epochs: int = 5
) -> Iterator[Op]:
    """One epoch shard of a figure7 plan, then the same shard of figure8.

    The sizes are the defaults of ``repro run figure7`` and ``repro run
    figure8``. The two plans get different seeds, so their epoch instants
    differ and figure8 builds its own snapshots, as a separate ``repro
    run figure8`` would, instead of reusing figure7's cached ones. Only the
    first pair of plans is merged and formatted (see :func:`_epoch_op`).
    """
    from repro.experiments import figure7, figure8

    for plan_index in itertools.count():
        plans = (
            figure7.build_plan(
                seed=op_seed(seed, "spacecdn-sim/figure7", plan_index),
                users_per_epoch=users,
                num_epochs=epochs,
            ),
            figure8.build_plan(
                seed=op_seed(seed, "spacecdn-sim/figure8", plan_index),
                users_per_epoch=users,
                num_epochs=epochs,
            ),
        )
        payloads: tuple[dict, dict] = ({}, {})
        for epoch in range(epochs):
            yield _epoch_op(plans, payloads, epoch, users, epochs, plan_index == 0)


def _epoch_op(
    plans, payloads, epoch: int, users: int, epochs: int, merge: bool
) -> Op:
    """One epoch shard of both plans.

    With ``merge``, the last epoch's check also merges and formats the two
    plans. That needs their AIM baseline shards, which cost about as much
    as a whole plan of epochs, so only the first plans of a run (the ones
    ``output_sha256`` covers) do it.
    """
    from repro.experiments import figure7, figure8

    shard = f"epoch-{epoch:04d}"
    last = epoch == epochs - 1

    def call():
        for plan, done in zip(plans, payloads):
            done[shard] = plan.run_shard(shard)
        return payloads[0][shard], payloads[1][shard]

    def inspect(out):
        problems = _check_samples(
            "figure7", out[0]["samples"], figure7.HOP_COUNTS, users
        ) + _check_samples("figure8", out[1]["samples"], figure8.CACHE_FRACTIONS, users)
        text = _canonical(out)
        if last and merge:
            # The AIM baseline shards run here, untimed, only so the plans
            # can merge and format like a full `repro run`.
            r7, r8 = (
                plan.merge({**done, "aim": plan.run_shard("aim")})
                for plan, done in zip(plans, payloads)
            )
            text += "\n" + plans[0].format(r7) + "\n" + plans[1].format(r8)
            total = users * epochs
            problems += _violations(
                "figure7 plan",
                {
                    f"{total} samples per curve": all(
                        len(v) == total for v in r7.spacecdn_rtts_ms.values()
                    ),
                    "AIM baselines finite and > 0": bool(r7.starlink_rtts_ms)
                    and _finite_positive(r7.starlink_rtts_ms)
                    and _finite_positive(r7.terrestrial_rtts_ms),
                },
            ) + _violations(
                "figure8 plan",
                {
                    f"{total} samples per fraction": all(
                        len(v) == total for v in r8.rtt_samples_ms.values()
                    ),
                    "terrestrial median finite and > 0": _finite_positive(
                        (r8.terrestrial_median_ms,)
                    ),
                },
            )
        return text, problems

    return Op("epoch", call, inspect, lambda _: users, last)


def _sweep_op(plan, payloads: dict, position: int, check_point, check_plan=None,
              recorder=None, artifacts=None) -> Op:
    """One shard of a chaos or overload sweep plan.

    The last shard also merges and formats the plan (under ``recorder``
    when given, which it then flushes to ``artifacts``), timed.
    """
    from repro.obs import recording

    shard = plan.shard_ids[position]
    last = position == len(plan.shard_ids) - 1

    def call():
        text = ""
        with recording(recorder) if recorder else contextlib.nullcontext():
            payloads[shard] = plan.run_shard(shard)
            if last:
                text = plan.format(plan.merge(dict(payloads)))
        if last and recorder:
            recorder.flush(**artifacts)
        return payloads[shard], text

    def inspect(out):
        point, text = out
        problems = check_point(point)
        if last and check_plan:
            problems += check_plan(payloads)
        return _canonical(point) + "\n" + text, problems

    return Op(shard, call, inspect, lambda out: out[0]["requests"], last)


def _check_chaos_plan(payloads: dict) -> list[str]:
    return _violations(
        "chaos plan",
        {"same requests at every fraction": len({p["requests"] for p in payloads.values()}) == 1},
    )


def chaos_serve_ops(
    seed: int,
    work_dir: Path,
    requests: int = 150,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.3),
) -> Iterator[Op]:
    """One failure-fraction shard of a Shell-1 chaos plan, obs off.

    The sizes are the defaults of ``repro run chaos``. The plan's merge and
    format are timed into its last shard.
    """
    from repro.experiments import chaos

    for plan_index in itertools.count():
        plan = chaos.build_plan(
            seed=op_seed(seed, "chaos-serve", plan_index),
            num_requests=requests,
            fractions=fractions,
            shell="shell1",
        )
        payloads: dict[str, Any] = {}
        for position in range(len(plan.shard_ids)):
            yield _sweep_op(plan, payloads, position, _check_chaos_point, _check_chaos_plan)


def overload_obs_ops(
    seed: int,
    work_dir: Path,
    requests: int = 150,
    loads: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    capacity: float = 6.0,
    ground_capacity: float = 40.0,
    deadline_ms: float = 1500.0,
) -> Iterator[Op]:
    """One load shard of a Shell-1 overload plan under a live ObsRecorder.

    The sizes are the defaults of ``repro run overload --obs`` (which has no
    flash crowd by default). The plan's merge, format and artifact flush
    are timed into its last shard; each plan flushes over the previous
    plan's artifacts.
    """
    from repro.experiments import overload
    from repro.obs import ObsRecorder

    artifacts = {
        "metrics_path": work_dir / "obs-metrics.prom",
        "trace_path": work_dir / "obs-trace.jsonl",
        "timeseries_path": work_dir / "obs-timeseries.json",
    }
    for plan_index in itertools.count():
        plan = overload.build_plan(
            seed=op_seed(seed, "overload-obs", plan_index),
            num_requests=requests,
            loads=loads,
            shell="shell1",
            capacity=capacity,
            ground_capacity=ground_capacity,
            deadline_ms=deadline_ms,
        )
        recorder = ObsRecorder()
        payloads: dict[str, Any] = {}
        for position in range(len(plan.shard_ids)):
            yield _sweep_op(
                plan, payloads, position, _check_overload_point,
                recorder=recorder, artifacts=artifacts,
            )


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    unit: str
    """What ``units_per_s`` counts."""
    ops: Callable[..., Iterator[Op]]
    """(seed, work_dir, **sizes) -> the workload's endless op stream."""
    imports: tuple[str, ...]
    """What a cold start of this workload imports (``setup_s``)."""
    tiny: dict[str, Any]
    """Sizes small enough for the self-test."""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-measure",
            "experiment runs",
            paper_measure_ops,
            ("repro.cli",) + tuple(f"repro.experiments.{m}" for m in PAPER_MODULES),
            {
                "run_kwargs": {
                    "table1": {"tests_per_city": 2},
                    "figure2": {"tests_per_city": 2},
                    "figure3": {"samples_per_site": 3},
                    "figure4": {"rounds": 1},
                    "figure5": {"rounds": 1},
                }
            },
        ),
        Workload(
            "spacecdn-sim",
            "user-epochs",
            spacecdn_sim_ops,
            ("repro.cli", "repro.experiments.figure7", "repro.experiments.figure8"),
            {"users": 12, "epochs": 3},
        ),
        Workload(
            "chaos-serve",
            "requests",
            chaos_serve_ops,
            ("repro.cli", "repro.experiments.chaos"),
            {"requests": 80, "fractions": (0.0, 0.3)},
        ),
        Workload(
            "overload-obs",
            "requests",
            overload_obs_ops,
            ("repro.cli", "repro.experiments.overload", "repro.obs"),
            {"requests": 80, "loads": (1.0, 4.0)},
        ),
    )
}


# -- the closed loop (runs in the child) ----------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    work_dir: Path,
    tracer=None,
    sizes: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one workload's ops back to back and check their outputs.

    Ops run until ``seconds`` of op time have passed, and then on to the
    end of the cycle or plan under way, so that every run holds whole
    cycles or plans and its mix of op kinds does not depend on where the
    time ran out. Only ``op.call`` is timed; a :class:`SpeedProbe` sample
    is taken before the first op and right after each. A raising op, an op
    whose result breaks an invariant, and a first-of-its-kind op whose
    replay gives different text all count as failed.
    """
    ops = WORKLOADS[name].ops(seed, work_dir, **(sizes or {}))
    probe = SpeedProbe()
    probes = [probe.sample()]
    latencies: list[float] = []
    digests: list[str | None] = []
    failed: set[int] = set()
    failures: list[str] = []
    first_of_kind: dict[str, tuple[int, Op, str]] = {}
    units = 0
    busy = 0.0
    first_block: int | None = None
    block_closed = False
    while not (block_closed and busy >= seconds):
        op = next(ops)
        block_closed = op.closes_block
        index = len(latencies)
        scope = tracer.op(index) if tracer is not None else contextlib.nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with scope:
                result = op.call()
        except Exception as exc:  # an op that raises is a counted failure
            error = exc
        latency = time.perf_counter() - start
        probes.append(probe.sample())
        latencies.append(latency)
        busy += latency
        if op.closes_block and first_block is None:
            first_block = index + 1
        if error is not None:
            failed.add(index)
            failures.append(f"op {index} ({op.kind}) raised {error!r}")
            digests.append(None)
            continue
        try:
            text, problems = op.inspect(result)
            units += op.units(result)
        except Exception as exc:  # so is a check that cannot even run
            text, problems = "", [f"output check raised {exc!r}"]
        if problems:
            failed.add(index)
            failures += [f"op {index} ({op.kind}): {p}" for p in problems]
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        first_of_kind.setdefault(op.kind, (index, op, text))

    for kind, (index, op, text) in first_of_kind.items():
        try:
            again = op.inspect(op.call())[0]
        except Exception as exc:
            again = f"replay raised {exc!r}"
        if again != text:
            failed.add(index)
            failures.append(f"op {index} ({kind}): replay gave different output")

    output = hashlib.sha256()
    for digest in digests[:first_block]:
        output.update((digest or "failed").encode())
    return {
        "workload": name,
        "seed": seed,
        "attempted": len(latencies),
        "failed": len(failed),
        "failures": failures[:20],
        "latencies_s": latencies,
        "probe_s": probes,
        "busy_s": busy,
        "units": units,
        "op_digests": digests,
        "output_sha256": output.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _cmd_child(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    for module in workload.imports:
        importlib.import_module(module)
    work_dir = Path(args.work)
    tracer = bench_trace.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        result = run_workload(args.workload, args.seed, args.seconds, work_dir, tracer)
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_jsonl(Path(args.spans))
    print(json.dumps(result))
    return 0


# -- the parent: set-up probes, children, metrics ----------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per child: no BLAS/OpenMP pools next to the interpreter.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _ready_code(workload: Workload) -> str:
    imports = "".join(f"import {m}\n" for m in workload.imports)
    return imports + "print('ready', flush=True)\n"


def setup_samples(workload: Workload, starts: int = SETUP_STARTS) -> dict[str, list[float]]:
    """Seconds from spawn to "ready" of ``starts`` cold starts (after one
    discarded start), with the probe samples taken around each of them."""
    probe = SpeedProbe()
    probes = [probe.sample()]
    samples = []
    for attempt in range(starts + 1):
        if attempt == 1:
            probes = probes[-1:]
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _ready_code(workload)],
            stdout=subprocess.PIPE,
            env=_child_env(),
            cwd=REPO,
        ) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            if line.strip() != b"ready":
                proc.kill()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"cold start of {workload.name} did not become ready")
        probes.append(probe.sample())
        if attempt:
            samples.append(elapsed)
    return {"elapsed_s": samples, "probe_s": probes}


def import_times(workload: Workload) -> dict[str, float]:
    """One cold start under ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _ready_code(workload)],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=REPO,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"-X importtime start of {workload.name} failed")
    return bench_trace.parse_importtime(proc.stderr)


def run_child(
    name: str, seed: int, seconds: float, trace: bool, spans: Path | None = None
) -> dict[str, Any]:
    """Run one workload in a fresh child process and return its result.

    A traced child writes its spans as JSONL to ``spans`` when given.
    """
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work_dir:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "bench_e2e.py"),
                "child",
                "--workload", name,
                "--seed", str(seed),
                "--seconds", repr(seconds),
                "--trace", str(int(trace)),
                "--work", str(work_dir),
            ]
            + (["--spans", str(spans)] if spans else []),
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
            cwd=REPO,
            timeout=CHILD_TIMEOUT_S,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``.

    It weights every sorted sample by the Beta(p(n+1), (1-p)(n+1)) mass of
    its slot of [0, 1], rather than reading one or two order statistics.
    The op kinds of a workload differ in cost and come in a fixed mix, so a
    plain median or p90 can sit on the gap between two kinds and jump
    across it from run to run; this estimate moves smoothly instead. The
    Beta mass is integrated by the midpoint rule, 64 points per slot.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    points = 64
    mid = (np.arange(points * n) + 0.5) / (points * n)
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, points).sum(axis=1)
    return float(np.dot(weights / weights.sum(), x))


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(
    child: dict[str, Any], setup: dict[str, list[float]], rescale: bool = True
) -> dict[str, dict]:
    """The end-to-end metrics of a child's run and the set-up samples, with
    every time at the reference speed, or as measured if not ``rescale``.

    Every run has at least two ops: each workload's first block does.
    """
    latencies = child["latencies_s"]
    setup_s = setup["elapsed_s"]
    if rescale:
        latencies = at_reference_speed(latencies, child["probe_s"])
        setup_s = at_reference_speed(setup_s, setup["probe_s"])
    latencies_ms = [s * 1000.0 for s in latencies]
    return {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "units_per_s": _metric(child["units"] / sum(latencies), "unit/s"),
        "op_p50_ms": _metric(harrell_davis(latencies_ms, 0.5), "ms"),
        "op_p90_ms": _metric(harrell_davis(latencies_ms, 0.9), "ms"),
        "error_rate": _metric(child["failed"] / child["attempted"], "fraction"),
        "peak_rss_mb": _metric(child["peak_rss_mb"], "MB"),
    }


def _prefix_overhead(traced: dict[str, Any], untraced: dict[str, Any]) -> float:
    """Traced over untraced op time, at the reference speed, for the ops
    both runs completed."""
    traced_s, untraced_s = (
        at_reference_speed(run["latencies_s"], run["probe_s"]) for run in (traced, untraced)
    )
    n = min(len(traced_s), len(untraced_s))
    return sum(traced_s[:n]) / sum(untraced_s[:n])


def measure_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    overhead: bool = False,
    spans: Path | None = None,
) -> dict[str, Any]:
    """One workload's entry in the results document.

    ``overhead`` adds an untraced run to a traced one; a traced run writes
    its spans as JSONL to ``spans`` when given.
    """
    workload = WORKLOADS[name]
    entry: dict[str, Any] = {"unit": workload.unit}
    if not trace:
        setup = setup_samples(workload)
        child = run_child(name, seed, seconds, trace=False)
        entry["metrics"] = end_to_end_metrics(child, setup)
        entry["wall_metrics"] = end_to_end_metrics(child, setup, rescale=False)
        entry["setup_samples_s"] = setup["elapsed_s"]
        entry["setup_probe_s"] = setup["probe_s"]
    else:
        imports = import_times(workload)
        child = run_child(name, seed, seconds, trace=True, spans=spans)
        summary = child.pop("trace")
        entry["layers"] = bench_trace.layer_metrics(summary, imports)
        entry["site_calls"] = summary["site_calls"]
        entry["layer_sum_s"] = sum(summary["self_s"].values())
        entry["op_wall_s"] = child["busy_s"]
        entry["spans"] = summary["spans"]
        if spans is not None:
            entry["spans_jsonl"] = str(spans)
        if overhead:
            untraced = run_child(name, seed, seconds, trace=False)
            entry["trace_overhead"] = _prefix_overhead(child, untraced)
            entry["untraced_output_sha256"] = untraced["output_sha256"]
    entry.update(
        correct=child["failed"] == 0,
        attempted=child["attempted"],
        failed=child["failed"],
        failures=child["failures"],
        units=child["units"],
        output_sha256=child["output_sha256"],
        op_digests=child["op_digests"],
        latencies_s=child["latencies_s"],
        probe_s=child["probe_s"],
    )
    return entry


# -- reporting ---------------------------------------------------------------------


def load_spec() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def declared_metrics(computed: dict[str, dict], declared: list[dict]) -> dict[str, dict]:
    """The ``declared`` subset of ``computed``, checked present and in the
    declared unit."""
    out = {}
    for metric in declared:
        value = computed[metric["name"]]
        if value["unit"] != metric["unit"]:
            raise BenchError(f"{metric['name']} is in {value['unit']}, declared {metric['unit']}")
        out[metric["name"]] = value
    return out


def _print_entry(name: str, entry: dict[str, Any], trace: bool) -> None:
    print(f"== {name}: {entry['attempted']} ops, {entry['units']} {entry['unit']}, "
          f"correct={entry['correct']}, output_sha256={entry['output_sha256'][:16]}")
    for failure in entry["failures"]:
        print(f"   FAILED {failure}")
    if not trace:
        print(f"   {'metric':<12} {'at ref speed':>12} {'as measured':>12}")
        latencies = at_reference_speed(entry["latencies_s"], entry["probe_s"])
        for metric, value in entry["metrics"].items():
            note = f"  (n={entry['attempted']})" if metric.startswith("op_p") else ""
            if metric == "op_p90_ms":
                above = sum(s * 1000.0 > value["value"] for s in latencies)
                note = f"  (n={entry['attempted']}, {above} above"
                note += f"; fewer than {P90_TAIL} samples)" if above < P90_TAIL else ")"
            wall = entry["wall_metrics"][metric]["value"]
            print(f"   {metric:<12} {value['value']:>12.4f} {wall:>12.4f} {value['unit']}{note}")
        return
    layers = entry["layers"]
    print(f"   {'layer':<13} {'calls/op':>10} {'self_s':>9} {'share':>7}")
    for layer in bench_trace.LAYERS + (bench_trace.ROOT_LAYER,):
        calls = layers.get(f"{layer}.calls", {"value": float("nan")})["value"]
        print(f"   {layer:<13} {calls:>10.1f} {layers[f'{layer}.self_s']['value']:>9.3f} "
              f"{layers[f'{layer}.self_share']['value']:>7.1%}")
    for metric, value in layers.items():
        if not metric.endswith((".calls", ".self_s", ".self_share")):
            print(f"   {metric:<30} {value['value']:>12.4f} {value['unit']}")
    print(f"   layer self times {entry['layer_sum_s']:.3f} s of {entry['op_wall_s']:.3f} s "
          f"traced op wall; {entry['spans']} spans"
          + (f" in {entry['spans_jsonl']}" if "spans_jsonl" in entry else ""))
    if "trace_overhead" in entry:
        same = entry["untraced_output_sha256"] == entry["output_sha256"]
        print(f"   tracing overhead {entry['trace_overhead']:.3f}x traced/untraced wall; "
              f"untraced output digest {'equal' if same else 'DIFFERENT'}")


def _cmd_run(args: argparse.Namespace, overhead: bool = False) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for name in names:
        spans = None
        if overhead and args.out:
            out = Path(args.out).resolve()
            spans = out.with_name(f"{out.stem}.{name}.spans.jsonl")
        entry = measure_workload(name, args.seed, seconds, trace, overhead, spans)
        if overhead and entry["untraced_output_sha256"] != entry["output_sha256"]:
            entry["correct"] = False
            entry["failures"].append("traced output digest differs from untraced")
        document["workloads"][name] = entry
        _print_entry(name, entry, trace)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    entries = document["workloads"]
    declared = {
        name: declared_metrics(
            entry["layers"] if trace else entry["metrics"],
            spec["per_layer"] if trace else spec["end_to_end"],
        )
        for name, entry in entries.items()
    }
    metrics = (
        declared[names[0]]
        if len(names) == 1
        else {f"{n}.{m}": v for n, d in declared.items() for m, v in d.items()}
    )
    correct = all(entry["correct"] for entry in entries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _load_runs(path: Path) -> list[dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise BenchError(f"no results in {path}")
    return runs


def agree(a_runs, b_runs, spec) -> list[dict[str, Any]]:
    """Per (workload, metric): the medians of both sets and whether B stays
    within the metric's bound of A; ``error_rate`` may not change at all."""
    rows = []
    common = set.intersection(*(set(r["workloads"]) for r in a_runs + b_runs))
    for workload in sorted(common):
        for metric in spec["end_to_end"] + [{"name": "error_rate", "bound": 0.0}]:
            name = metric["name"]
            a = statistics.median(r["workloads"][workload]["metrics"][name]["value"] for r in a_runs)
            b = statistics.median(r["workloads"][workload]["metrics"][name]["value"] for r in b_runs)
            if name == "error_rate":
                change, ok = b - a, b == a
            else:
                change = (b - a) / a
                ok = abs(change) <= metric["bound"]
            rows.append({"workload": workload, "metric": name, "a": a, "b": b,
                         "change": change, "bound": metric["bound"], "agree": ok})
    return rows


def _cmd_agree(args: argparse.Namespace) -> int:
    rows = agree(_load_runs(Path(args.a)), _load_runs(Path(args.b)), load_spec())
    if not rows:
        raise BenchError("the two result sets share no workload")
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<12} {r['a']:>12.4f} {r['b']:>12.4f} "
              f"{r['change']:>+8.1%} bound {r['bound']:.0%}  "
              f"{'agree' if r['agree'] else 'DISAGREE'}")
    return 0 if all(r["agree"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench_e2e.py", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("run", "measure end-to-end metrics (or per-layer ones with --trace 1)"),
        ("trace", "traced run plus an untraced one: layer split and tracing overhead"),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--workload", choices=sorted(WORKLOADS))
        cmd.add_argument("--seed", type=int, default=7)
        cmd.add_argument("--seconds", type=float, default=None,
                         help="op time per workload (default: BENCHMARK.json run_seconds)")
        if command == "run":
            cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
        cmd.add_argument("--out", help="write the full results document here")
    agree_cmd = sub.add_parser("agree", help="compare two result files or directories")
    agree_cmd.add_argument("a")
    agree_cmd.add_argument("b")
    child = sub.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child.add_argument("--work", required=True)
    child.add_argument("--spans")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "child":
            return _cmd_child(args)
        if args.command == "agree":
            return _cmd_agree(args)
        if args.command == "trace":
            args.trace = 1
        return _cmd_run(args, overhead=args.command == "trace")
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
