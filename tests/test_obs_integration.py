"""Integration tests: observability wired through the serve path, the
runner, and the CLI.

The two load-bearing guarantees:

* disabled (the default) — every instrumented path produces byte-identical
  results to an uninstrumented run;
* enabled — each cohort's trace span counts every ladder attempt by tier
  and outcome, the serve counters match the reference walker's, and
  interrupted runs still flush complete (never truncated) artifacts
  through the atomic-write path.
"""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.content import build_catalog
from repro.cli import EXIT_INTERRUPTED, main
from repro.errors import UnavailableError
from repro.faults.processes import OutageWindow, TransientAttemptLoss
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.obs.events import read_events
from repro.obs.recorder import ObsRecorder, recording, reset_recorder
from repro.obs.tracing import read_trace
from repro.orbits.elements import ShellConfig
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.system import TIER_OF_SOURCE, SpaceCdnSystem
from serve_reference import ReferenceCdn

EQUATOR = GeoPoint(0.0, 0.0, 0.0)
OBJ = "obj-000002"
FAR_HOLDER = 20
SHELL = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="obs-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(0), 50, regions=("africa",), kind_weights={"web": 1.0}
)
OBJECTS = sorted(o.object_id for o in CATALOG)


def completed_shards(run_dir) -> list[str]:
    """The shards of a run's ``events.jsonl``, in completion order, after
    checking each records its wall time and worker."""
    completed = [
        e
        for e in read_events(run_dir / "events.jsonl")
        if e["event"] == "shard_completed"
    ]
    for event in completed:
        assert event["wall_s"] >= 0.0
        assert event["worker"] >= 0
    return [e["shard"] for e in completed]


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    reset_recorder()


@pytest.fixture
def catalog():
    return CATALOG


def make_system(small_constellation, catalog, schedule=None, policy=None):
    kwargs = dict(
        constellation=small_constellation,
        catalog=catalog,
        cache_bytes_per_satellite=10**9,
        fault_schedule=schedule,
    )
    if policy is not None:
        kwargs["retry_policy"] = policy
    return SpaceCdnSystem(**kwargs)


def _cohort_and_rungs(spans):
    """The single ``serve_cohort`` span and its rung counts by (tier, outcome)."""
    (cohort,) = [s for s in spans if s["kind"] == "serve_cohort"]
    rungs = [s for s in spans if s["kind"] == "rung"]
    assert all(r["parent_id"] == cohort["span_id"] for r in rungs)
    return cohort, {(r["tier"], r["outcome"]): r["count"] for r in rungs}


class TestServeTracing:
    def test_healthy_serve_emits_root_and_attempt(
        self, small_constellation, catalog
    ):
        system = make_system(small_constellation, catalog)
        system.preload({OBJ: frozenset({FAR_HOLDER})})
        recorder = ObsRecorder()
        with recording(recorder):
            system.serve(EQUATOR, OBJ, 0.0)
        cohort, rungs = _cohort_and_rungs(recorder.trace.spans())
        assert (cohort["size"], cohort["served"], cohort["mode"]) == (
            1, 1, "healthy"
        )
        assert rungs == {("isl", "served"): 1}
        assert recorder.metrics.counter_value(
            "repro_serve_total", (("tier", "isl"),)
        ) == 1.0
        assert recorder.metrics.counter_value(
            "repro_serve_attempts_total", (("tier", "isl"), ("outcome", "served"))
        ) == 1.0

    def test_retried_serve_counts_each_rung(self, small_constellation, catalog):
        # seed 0: request 0 loses attempt 1, attempt 2 goes through, so the
        # cohort span counts one lost rung and one served rung.
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=0.5, seed=0))
        system = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=4)
        )
        system.preload({OBJ: frozenset({0, FAR_HOLDER})})
        recorder = ObsRecorder()
        with recording(recorder):
            served = system.serve(EQUATOR, OBJ, 0.0)
        assert served.attempts == 2
        _, rungs = _cohort_and_rungs(recorder.trace.spans())
        assert rungs == {
            ("access", "transient-loss"): 1,
            (TIER_OF_SOURCE[served.source], "served"): 1,
        }
        assert recorder.metrics.counter_value(
            "repro_retry_backoff_total"
        ) == 1.0

    def test_unavailable_serve_traced_with_reason(
        self, small_constellation, catalog
    ):
        schedule = FaultSchedule().add(OutageWindow(satellites=frozenset({0})))
        system = make_system(small_constellation, catalog, schedule)
        system.preload({OBJ: frozenset({0})})
        recorder = ObsRecorder()
        with recording(recorder):
            with pytest.raises(UnavailableError):
                system.serve(EQUATOR, OBJ, 0.0)
        cohort, rungs = _cohort_and_rungs(recorder.trace.spans())
        assert (cohort["size"], cohort["served"], cohort["unavailable"]) == (
            1, 0, 1
        )
        assert rungs == {}
        assert recorder.metrics.counter_value(
            "repro_serve_unavailable_total", (("reason", "no-sky"),)
        ) == 1.0

    def test_recording_does_not_change_serving(
        self, small_constellation, catalog
    ):
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=0.5, seed=0))
        plain = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=4)
        )
        plain.preload({OBJ: frozenset({0, FAR_HOLDER})})
        baseline = plain.serve(EQUATOR, OBJ, 0.0)

        observed = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=4)
        )
        observed.preload({OBJ: frozenset({0, FAR_HOLDER})})
        with recording(ObsRecorder()):
            traced = observed.serve(EQUATOR, OBJ, 0.0)
        assert traced == baseline

    def test_cache_and_kernel_instrumentation_record(
        self, small_constellation, catalog
    ):
        system = make_system(small_constellation, catalog)
        recorder = ObsRecorder()
        with recording(recorder):
            system.preload({OBJ: frozenset({FAR_HOLDER})})
            system.serve(EQUATOR, OBJ, 0.0)
        assert recorder.metrics.counter_value(
            "repro_cache_ops_total", (("op", "insert"),)
        ) >= 1.0
        sites = recorder.profile.sites
        assert any(site.startswith("fastcore.") for site in sites)


class TestCliObs:
    CHAOS = [
        "run", "chaos",
        "--shell", "small",
        "--requests", "30",
        "--fractions", "0.0,0.3",
        "--seed", "5",
    ]

    def test_obs_run_writes_artifacts_and_summarizes(self, tmp_path, capsys):
        run_dir = tmp_path / "chaos"
        assert main(self.CHAOS + ["--obs", "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()

        metrics_text = (run_dir / "obs-metrics.prom").read_text()
        assert "# TYPE repro_serve_total counter" in metrics_text
        assert "repro_serve_rtt_ms_bucket" in metrics_text
        assert 'repro_profile_calls{site="runner.shard"} 2' in metrics_text

        assert main(["obs", "summarize", str(run_dir / "obs-trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Per-tier serving outcomes:" in out
        assert "Per-tier ladder attempts:" in out

        assert completed_shards(run_dir) == ["fraction-00", "fraction-01"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "obs" not in manifest

    def test_obs_run_batched_emits_cohort_spans(self, tmp_path, capsys):
        """A run traces one span per cohort, never a per-request span, and
        ``obs summarize`` renders them."""
        run_dir = tmp_path / "chaos-batched"
        assert main(self.CHAOS + ["--obs", "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()

        spans = list(read_trace(run_dir / "obs-trace.jsonl"))
        cohorts = [s for s in spans if s["kind"] == "serve_cohort"]
        assert cohorts
        assert not [s for s in spans if s["kind"] == "serve"]
        rungs = [s for s in spans if s["kind"] == "rung"]
        served = sum(r["count"] for r in rungs if r["outcome"] == "served")
        assert served == sum(c["served"] for c in cohorts)

        assert main(["obs", "summarize", str(run_dir / "obs-trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Per-tier serving outcomes:" in out
        total = sum(c["size"] for c in cohorts)
        assert f"{total} requests" in out

    def test_metrics_out_implies_obs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        metrics = tmp_path / "m.prom"
        assert main(self.CHAOS + ["--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert "repro_serve_total" in metrics.read_text()
        # Asking for only the metrics file must not drop a default trace
        # artifact into the working directory.
        assert not (tmp_path / "obs-trace.jsonl").exists()

    def test_disabled_run_writes_no_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "plain"
        assert main(self.CHAOS + ["--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert not (run_dir / "obs-metrics.prom").exists()
        assert not (run_dir / "obs-trace.jsonl").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "obs" not in manifest

    def test_output_identical_with_and_without_obs(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        obs_dir = tmp_path / "obs"
        assert main(self.CHAOS + ["--out-dir", str(plain_dir)]) == 0
        assert main(self.CHAOS + ["--obs", "--out-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        assert (plain_dir / "result.txt").read_bytes() == (
            obs_dir / "result.txt"
        ).read_bytes()


class TestInterruptionFlush:
    BASE = [
        "run", "chaos",
        "--shell", "small",
        "--requests", "30",
        "--fractions", "0.0,0.3",
        "--seed", "5",
    ]

    def test_interrupted_run_flushes_complete_artifacts(self, tmp_path, capsys):
        """--max-shards raises through the same path as the first SIGINT;
        the obs buffers must land on disk complete, never truncated."""
        run_dir = tmp_path / "partial"
        code = main(
            self.BASE + ["--obs", "--out-dir", str(run_dir), "--max-shards", "1"]
        )
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()

        trace_path = run_dir / "obs-trace.jsonl"
        # Every line parses: an interrupted flush is complete or absent.
        spans = list(read_trace(trace_path))
        assert spans
        for line in trace_path.read_text().splitlines():
            json.loads(line)
        assert trace_path.read_text().endswith("\n")
        assert "repro_serve_total" in (run_dir / "obs-metrics.prom").read_text()

        assert completed_shards(run_dir) == ["fraction-00"]

    def test_resume_after_obs_interrupt(self, tmp_path, capsys):
        """An instrumented run directory resumes with or without --obs on
        the resuming invocation; a resumed instrumented run appends its
        shard timings to the interrupted run's event log."""
        clean_dir = tmp_path / "clean"
        assert main(self.BASE + ["--out-dir", str(clean_dir)]) == 0
        capsys.readouterr()

        run_dir = tmp_path / "partial"
        assert main(
            self.BASE + ["--obs", "--out-dir", str(run_dir), "--max-shards", "1"]
        ) == EXIT_INTERRUPTED
        capsys.readouterr()
        assert main(
            self.BASE + ["--obs", "--out-dir", str(run_dir), "--resume"]
        ) == 0
        capsys.readouterr()
        assert (run_dir / "result.txt").read_bytes() == (
            clean_dir / "result.txt"
        ).read_bytes()
        assert completed_shards(run_dir) == ["fraction-00", "fraction-01"]

        # Resuming an instrumented run dir *without* --obs also works.
        other = tmp_path / "partial2"
        assert main(
            self.BASE + ["--obs", "--out-dir", str(other), "--max-shards", "1"]
        ) == EXIT_INTERRUPTED
        capsys.readouterr()
        assert main(self.BASE + ["--out-dir", str(other), "--resume"]) == 0
        capsys.readouterr()


class TestFleetInterruption:
    """Obs artifact integrity when a parallel run stops early: the merged
    metrics, trace, and event log land complete and parseable, and the
    run dir holds no ``obs/`` directory."""

    WIDE = [
        "run", "chaos",
        "--shell", "small",
        "--requests", "30",
        "--fractions", "0.0,0.1,0.2,0.3",
        "--seed", "5",
    ]

    def test_interrupted_parallel_run_flushes_parseable_artifacts(
        self, tmp_path, capsys
    ):
        """--max-shards stops a --jobs run through the same drain path as
        the first SIGINT; every obs artifact must still parse."""
        run_dir = tmp_path / "partial"
        code = main(
            self.WIDE
            + [
                "--obs", "--jobs", "2",
                "--out-dir", str(run_dir),
                "--max-shards", "1",
            ]
        )
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()

        assert list(read_trace(run_dir / "obs-trace.jsonl"))
        assert "repro_serve_total" in (run_dir / "obs-metrics.prom").read_text()
        names = [e["event"] for e in read_events(run_dir / "events.jsonl")]
        assert names[0] == "run_start"
        assert "drain" in names
        assert "run_interrupted" in names
        # Deltas travel only in result messages; nothing is parked on disk.
        assert not (run_dir / "obs").exists()

    def test_sigint_mid_parallel_run_leaves_parseable_artifacts(self, tmp_path):
        """A real SIGINT delivered to a live --jobs 4 supervisor: whether it
        lands mid-run (exit 5) or after completion (exit 0), the metrics,
        trace, and event log on disk are complete and parseable."""
        import repro

        run_dir = tmp_path / "sigint"
        cmd = [
            sys.executable, "-m", "repro",
            "run", "chaos",
            "--shell", "small",
            "--requests", "120",
            "--fractions", "0.0,0.1,0.2,0.3,0.4,0.5",
            "--seed", "5",
            "--obs", "--jobs", "4",
            "--out-dir", str(run_dir),
        ]
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            events_path = run_dir / "events.jsonl"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not events_path.exists():
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert code in (0, EXIT_INTERRUPTED)

        names = [e["event"] for e in read_events(run_dir / "events.jsonl")]
        assert names[0] == "run_start"
        if code == EXIT_INTERRUPTED:
            assert "run_interrupted" in names
        else:
            assert "run_completed" in names
        # The flush is complete-or-absent, never truncated.
        trace_path = run_dir / "obs-trace.jsonl"
        if trace_path.exists():
            list(read_trace(trace_path))
        metrics_path = run_dir / "obs-metrics.prom"
        if metrics_path.exists():
            text = metrics_path.read_text()
            assert text == "" or text.endswith("\n")
        assert not (run_dir / "obs").exists()


class TestCohortTracing:
    """Serving folds tracing into one span per cohort, while the serve
    counters and the RTT histogram count every request."""

    def _spec(self):
        return [(EQUATOR, OBJ, 0.0), (EQUATOR, OBJ, 1.0),
                (EQUATOR, "obj-000003", 2.0)]

    def test_cohort_emits_one_span_with_rung_counts(
        self, small_constellation, catalog
    ):
        system = make_system(small_constellation, catalog)
        system.preload({OBJ: frozenset({FAR_HOLDER})})
        recorder = ObsRecorder()
        spec = self._spec()
        with recording(recorder):
            results = system.serve_batch(
                [u for u, _, _ in spec],
                [o for _, o, _ in spec],
                [t for _, _, t in spec],
            )
        spans = recorder.trace.spans()
        assert not [s for s in spans if s["kind"] == "serve"]
        (cohort,) = [s for s in spans if s["kind"] == "serve_cohort"]
        assert cohort["size"] == 3
        assert cohort["served"] == 3
        assert cohort["unavailable"] == 0
        assert cohort["mode"] == "healthy"
        rungs = [s for s in spans if s["kind"] == "rung"]
        assert all(r["parent_id"] == cohort["span_id"] for r in rungs)
        assert sum(r["count"] for r in rungs) == len(results)

    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        faulted=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_counters_identical_to_scalar(self, n, seed, faulted):
        """A recorded cohort's serve counters and RTT histogram equal what
        the obs-free reference walker counts for the same stream."""
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 59.0, n)).tolist()
        oids = [OBJECTS[int(i)] for i in rng.integers(0, 5, n)]

        def build(cls):
            schedule = None
            if faulted:
                schedule = (
                    FaultSchedule()
                    .add(OutageWindow(satellites=frozenset({FAR_HOLDER, 7})))
                    .add(TransientAttemptLoss(probability=0.4, seed=seed))
                )
            system = cls(
                constellation=SHELL,
                catalog=CATALOG,
                fault_schedule=schedule,
                retry_policy=RetryPolicy(max_attempts=3),
            )
            system.preload({OBJ: frozenset({FAR_HOLDER, 3})})
            return system

        system, reference = build(SpaceCdnSystem), build(ReferenceCdn)
        recorder = ObsRecorder()
        with recording(recorder):
            system.serve_batch(
                [EQUATOR] * n, oids, times, continue_on_unavailable=True
            )
        served = []
        for oid, t in zip(oids, times):
            try:
                served.append(reference.serve(EQUATOR, oid, t))
            except UnavailableError:
                pass

        def counters(name):
            return {
                labels: value
                for (series, labels), value in recorder.metrics._counters.items()
                if series == name
            }

        tiers = Counter(TIER_OF_SOURCE[r.source] for r in served)
        reasons = Counter(r.fallback_reason for r in served if r.fallback_reason)
        assert counters("repro_serve_total") == {
            (("tier", tier),): float(count) for tier, count in tiers.items()
        }
        assert counters("repro_serve_fallback_total") == {
            (("reason", reason),): float(count) for reason, count in reasons.items()
        }
        assert counters("repro_serve_attempts_total") == {
            (("tier", tier), ("outcome", outcome)): float(count)
            for (tier, outcome), count in reference.attempt_counts.items()
        }
        for tier, count in tiers.items():
            histogram = recorder.metrics.histogram(
                "repro_serve_rtt_ms", (("tier", tier),)
            )
            assert histogram.count == count
            assert histogram.total == pytest.approx(
                sum(r.rtt_ms for r in served if TIER_OF_SOURCE[r.source] == tier)
            )

    def test_degraded_cohort_span_counts_unavailable(
        self, small_constellation, catalog
    ):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset(range(len(small_constellation))))
        )
        system = make_system(small_constellation, catalog, schedule)
        recorder = ObsRecorder()
        with recording(recorder):
            results = system.serve_batch(
                [EQUATOR], [OBJ], 0.0, continue_on_unavailable=True
            )
        assert results == [None]
        (cohort,) = [
            s for s in recorder.trace.spans() if s["kind"] == "serve_cohort"
        ]
        assert cohort["mode"] == "degraded"
        assert cohort["unavailable"] == 1
        assert recorder.metrics.counter_value(
            "repro_serve_unavailable_total", (("reason", "no-sky"),)
        ) == 1.0


_OBS_ARGV = {
    "summarize": lambda path: ["summarize", path],
    "events": lambda path: ["events", path],
}


@pytest.mark.parametrize("artifact", ["directory", "non-utf8"])
@pytest.mark.parametrize("subcommand", sorted(_OBS_ARGV))
def test_unreadable_artifact_is_a_plain_error(tmp_path, subcommand, artifact):
    """Every ``repro obs`` reader turns an artifact it cannot read (a
    directory, bytes that are not UTF-8) into exit 2 with an ``error:``
    line, never a traceback: exit 1 is no code of the CLI's table."""
    path = tmp_path / "artifact"
    if artifact == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\xfd\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", *_OBS_ARGV[subcommand](str(path))],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_obs_has_no_diff_subcommand(capsys):
    """Benchmark results are compared by ``bench_e2e.py agree``, not by the
    CLI: ``repro obs diff`` is an unknown sub-command, a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["obs", "diff", "old.json", "new.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'diff'" in capsys.readouterr().err
