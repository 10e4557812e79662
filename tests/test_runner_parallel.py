"""End-to-end tests for the supervised parallel shard executor.

The self-chaos harness (:mod:`repro.runner.selfchaos`) injects every
failure shape a real worker fleet exhibits — ordinary exceptions, hard
crashes, SIGKILL, hangs, and garbage payloads — on scheduled attempts, and
each test asserts the supervisor's contract: retried runs end byte-identical
to a clean serial run, repeat offenders are quarantined with evidence while
the rest of the run completes, signals drain in-flight work, and ``--jobs``
never enters the manifest (so any run resumes at any width).

The test plans are registered in the process-global registry at import
time; under the default ``fork`` start method workers inherit them.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    RunInterruptedError,
    RunnerError,
    ShardQuarantinedError,
)
from repro.faults.retry import RetryPolicy
from repro.runner import selfchaos
from repro.runner.engine import ExperimentRunner, RunnerOptions
from repro.runner.registry import plan_from_config, register_plan_builder
from repro.runner.shards import ExperimentPlan
from repro.runner.store import CheckpointStore


def build_ptoy(seed=1, width=6):
    """A cheap deterministic plan the registry can rebuild in workers."""
    ids = tuple(f"s{i:02d}" for i in range(width))
    return ExperimentPlan(
        experiment="ptoy",
        config={"experiment": "ptoy", "seed": seed, "width": width},
        shard_ids=ids,
        run_shard=lambda sid: {"value": int(sid[1:]) * seed},
        merge=lambda payloads: sum(p["value"] for p in payloads.values()),
        format=lambda total: f"total={total}\n",
    )


def build_sigtoy(seed=5, width=4, signal_shard="s00", linger_s=0.3):
    """Like ptoy, but one shard SIGTERMs the supervisor mid-shard and then
    finishes normally — the drain-on-first-signal scenario."""
    base = build_ptoy(seed=seed, width=width)

    def run_shard(sid):
        if sid == signal_shard:
            os.kill(os.getppid(), signal.SIGTERM)
            time.sleep(linger_s)
        return base.run_shard(sid)

    return ExperimentPlan(
        experiment="sigtoy",
        config={
            "experiment": "sigtoy",
            "seed": seed,
            "width": width,
            "signal_shard": signal_shard,
            "linger_s": linger_s,
        },
        shard_ids=base.shard_ids,
        run_shard=run_shard,
        merge=base.merge,
        format=base.format,
    )


def build_obstoy(seed=1, width=6):
    """ptoy plus deterministic per-shard instrumentation: every metric kind
    the fleet-obs merge must aggregate (counters, histogram, gauge, span,
    profile timer), recorded identically whichever process runs the shard."""
    base = build_ptoy(seed, width)

    def run_shard(sid):
        from repro.obs.recorder import get_recorder

        rec = get_recorder()
        index = int(sid[1:])
        rec.inc("repro_obstoy_shards_total")
        rec.inc("repro_obstoy_value_total", value=float(index * seed))
        rec.observe("repro_obstoy_index", float(index), buckets=(2.0, 4.0))
        rec.set_gauge("repro_obstoy_last_index", float(index))
        # Windowed series keyed by deterministic simulated time: 45 s
        # apart, so neighbouring shards share 60 s windows and the merge
        # must re-aggregate cells, not just concatenate them.
        t_s = float(index) * 45.0
        rec.window_inc(
            t_s, "repro_obstoy_windowed_total", value=float(index * seed)
        )
        rec.window_observe(
            t_s, "repro_obstoy_windowed_ms", float(index), buckets=(2.0, 4.0)
        )
        with rec.timer("obstoy.shard"):
            pass
        rec.record_span("obstoy_shard", shard=sid)
        return base.run_shard(sid)

    return ExperimentPlan(
        experiment="obstoy",
        config={"experiment": "obstoy", "seed": seed, "width": width},
        shard_ids=base.shard_ids,
        run_shard=run_shard,
        merge=base.merge,
        format=base.format,
    )


register_plan_builder("ptoy", lambda: build_ptoy)
register_plan_builder("sigtoy", lambda: build_sigtoy)
register_plan_builder("obstoy", lambda: build_obstoy)

PTOY_CONFIG = {"experiment": "ptoy", "seed": 3, "width": 6}
OBSTOY_CONFIG = {"experiment": "obstoy", "seed": 3, "width": 6}


def fast_policy(max_attempts=3):
    return RetryPolicy(
        max_attempts=max_attempts, backoff_base_ms=10.0, backoff_cap_ms=50.0
    )


def run_output(run_dir):
    return (run_dir / "result.txt").read_bytes()


def shard_files(run_dir):
    return {
        path.name: path.read_bytes() for path in (run_dir / "shards").iterdir()
    }


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One clean jobs=1 ptoy run every parallel run must byte-match."""
    run_dir = tmp_path_factory.mktemp("reference") / "run"
    text = ExperimentRunner(build_ptoy(3, 6), run_dir).execute()
    return text, run_output(run_dir), shard_files(run_dir)


class TestParallelMatchesSerial:
    def test_result_and_checkpoints_byte_identical(
        self, tmp_path, serial_reference
    ):
        text, result_bytes, shards = serial_reference
        run_dir = tmp_path / "run"
        out = ExperimentRunner(
            build_ptoy(3, 6), run_dir, RunnerOptions(jobs=3)
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        assert shard_files(run_dir) == shards

    def test_more_workers_than_shards(self, tmp_path, serial_reference):
        text, _, _ = serial_reference
        out = ExperimentRunner(
            build_ptoy(3, 6), tmp_path / "run", RunnerOptions(jobs=8)
        ).execute()
        assert out == text

    def test_unregistered_plan_refused_before_spawning(self, tmp_path):
        plan = ExperimentPlan(
            experiment="not-registered-anywhere",
            config={"experiment": "not-registered-anywhere"},
            shard_ids=("a",),
            run_shard=lambda sid: {"v": 1},
            merge=lambda p: 0,
            format=str,
        )
        with pytest.raises(RunnerError, match="no plan builder"):
            ExperimentRunner(
                plan, tmp_path / "run", RunnerOptions(jobs=2)
            ).execute()


class TestSelfChaos:
    """Each injected failure mode is survived: detected, retried on a fresh
    worker, and the final output is byte-identical to the clean run."""

    @pytest.mark.parametrize("mode", ["raise", "crash", "kill", "garbage"])
    def test_single_failure_retried_to_identical_output(
        self, tmp_path, serial_reference, mode
    ):
        text, result_bytes, shards = serial_reference
        plan = selfchaos.build_plan(PTOY_CONFIG, {"s02": {1: mode}})
        run_dir = tmp_path / "run"
        out = ExperimentRunner(
            run_dir=run_dir,
            plan=plan,
            options=RunnerOptions(jobs=3, retry_policy=fast_policy()),
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        assert shard_files(run_dir) == shards

    def test_hung_shard_killed_by_watchdog_and_retried(
        self, tmp_path, serial_reference
    ):
        text, result_bytes, _ = serial_reference
        plan = selfchaos.build_plan(PTOY_CONFIG, {"s01": {1: "hang"}}, hang_s=60.0)
        run_dir = tmp_path / "run"
        started = time.monotonic()
        out = ExperimentRunner(
            run_dir=run_dir,
            plan=plan,
            options=RunnerOptions(
                jobs=2, shard_deadline_s=0.75, retry_policy=fast_policy()
            ),
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        # The watchdog acted on its deadline, not on the 60s sleep.
        assert time.monotonic() - started < 30.0

    def test_failures_on_different_shards_all_recovered(
        self, tmp_path, serial_reference
    ):
        text, _, _ = serial_reference
        plan = selfchaos.build_plan(
            PTOY_CONFIG,
            {
                "s01": {1: "crash"},
                "s02": {1: "kill"},
                "s03": {1: "garbage"},
                "s04": {1: "raise", 2: "raise"},  # two bad attempts, third ok
            },
        )
        out = ExperimentRunner(
            run_dir=tmp_path / "run",
            plan=plan,
            options=RunnerOptions(jobs=3, retry_policy=fast_policy()),
        ).execute()
        assert out == text


class TestQuarantine:
    def _always_crashing_plan(self):
        return selfchaos.build_plan(
            PTOY_CONFIG, {"s01": {1: "crash", 2: "crash", 3: "crash"}}
        )

    def test_repeat_offender_quarantined_rest_completes(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ShardQuarantinedError, match="s01"):
            ExperimentRunner(
                run_dir=run_dir,
                plan=self._always_crashing_plan(),
                options=RunnerOptions(jobs=3, retry_policy=fast_policy()),
            ).execute()
        store = CheckpointStore(run_dir)
        # Every healthy shard finished and was checkpointed...
        for sid in ("s00", "s02", "s03", "s04", "s05"):
            assert store.load_shard(sid) is not None, sid
        # ...the offender was not, and no result was merged from a hole.
        assert store.load_shard("s01") is None
        assert not (run_dir / "result.txt").exists()

    def test_quarantine_record_holds_the_evidence(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ShardQuarantinedError):
            ExperimentRunner(
                run_dir=run_dir,
                plan=self._always_crashing_plan(),
                options=RunnerOptions(jobs=2, retry_policy=fast_policy()),
            ).execute()
        record = json.loads((run_dir / "quarantine.json").read_text())
        assert record["experiment"] == "selfchaos"
        assert record["max_attempts"] == 3
        entry = record["shards"]["s01"]
        assert entry["attempts"] == 3
        assert [f["kind"] for f in entry["failures"]] == ["crash"] * 3
        assert all(
            f"exit code {selfchaos.CRASH_EXIT_CODE}" in f["detail"]
            for f in entry["failures"]
        )

    def test_resume_past_fixed_cause_clears_the_record(
        self, tmp_path, serial_reference
    ):
        text, result_bytes, _ = serial_reference
        run_dir = tmp_path / "run"
        with pytest.raises(ShardQuarantinedError):
            ExperimentRunner(
                run_dir=run_dir,
                plan=self._always_crashing_plan(),
                options=RunnerOptions(jobs=2, retry_policy=fast_policy()),
            ).execute()
        assert (run_dir / "quarantine.json").exists()
        # Same plan, one more attempt in the budget: attempt 4 has no
        # scheduled failure, so the resume completes and the verdict clears.
        out = ExperimentRunner(
            run_dir=run_dir,
            plan=self._always_crashing_plan(),
            options=RunnerOptions(
                jobs=2, resume=True, retry_policy=fast_policy(max_attempts=4)
            ),
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        assert not (run_dir / "quarantine.json").exists()


class TestSignalsAndDeadlines:
    def test_first_signal_drains_inflight_then_stops(self, tmp_path):
        """A SIGTERM mid-run lets the in-flight shard finish and flush."""
        run_dir = tmp_path / "run"
        with pytest.raises(RunInterruptedError, match="SIGTERM"):
            ExperimentRunner(
                run_dir=run_dir,
                plan=build_sigtoy(seed=5, width=4, linger_s=0.3),
                options=RunnerOptions(jobs=2, retry_policy=fast_policy()),
            ).execute()
        # The signalling shard kept running through the drain and its
        # payload landed on disk before the supervisor exited.
        assert CheckpointStore(run_dir).load_shard("s00") == {"value": 0}

    def test_interrupted_wide_run_resumes_serially_byte_identical(
        self, tmp_path
    ):
        interrupted = tmp_path / "interrupted"
        with pytest.raises(RunInterruptedError):
            ExperimentRunner(
                run_dir=interrupted,
                plan=build_sigtoy(seed=5, width=4, linger_s=0.2),
                options=RunnerOptions(jobs=2, retry_policy=fast_policy()),
            ).execute()
        resumed = ExperimentRunner(
            run_dir=interrupted,
            plan=build_sigtoy(seed=5, width=4, linger_s=0.2),
            options=RunnerOptions(resume=True),  # jobs=1: the serial path
        ).execute()
        clean_dir = tmp_path / "clean"
        clean = ExperimentRunner(build_ptoy(seed=5, width=4), clean_dir).execute()
        assert resumed == clean
        assert run_output(interrupted) == run_output(clean_dir)

    def test_run_deadline_kills_a_hung_pool(self, tmp_path):
        """--deadline-s is enforced across workers even when every worker
        is wedged and no shard will ever complete."""
        plan = selfchaos.build_plan(
            PTOY_CONFIG, {"s00": {1: "hang"}, "s01": {1: "hang"}}, hang_s=60.0
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            ExperimentRunner(
                run_dir=tmp_path / "run",
                plan=plan,
                options=RunnerOptions(jobs=2, deadline_s=0.5),
            ).execute()
        assert time.monotonic() - started < 30.0


class TestResumeCompatibility:
    def test_jobs_never_enters_the_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(
            build_ptoy(3, 6), run_dir, RunnerOptions(jobs=4)
        ).execute()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "jobs" not in json.dumps(manifest)

    def test_wide_partial_run_resumes_at_any_width(
        self, tmp_path, serial_reference
    ):
        text, result_bytes, shards = serial_reference
        run_dir = tmp_path / "run"
        with pytest.raises(RunInterruptedError, match="max-shards"):
            ExperimentRunner(
                run_dir=run_dir,
                plan=build_ptoy(3, 6),
                options=RunnerOptions(jobs=2, max_shards=2),
            ).execute()
        done = CheckpointStore(run_dir).completed_shards(
            build_ptoy(3, 6).shard_ids
        )
        assert 0 < len(done) < 6
        out = ExperimentRunner(
            build_ptoy(3, 6), run_dir, RunnerOptions(resume=True)
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        assert shard_files(run_dir) == shards

    def test_serial_partial_run_resumes_wide(self, tmp_path, serial_reference):
        text, result_bytes, shards = serial_reference
        run_dir = tmp_path / "run"
        with pytest.raises(RunInterruptedError):
            ExperimentRunner(
                run_dir=run_dir,
                plan=build_ptoy(3, 6),
                options=RunnerOptions(max_shards=2),
            ).execute()
        out = ExperimentRunner(
            build_ptoy(3, 6), run_dir, RunnerOptions(resume=True, jobs=3)
        ).execute()
        assert out == text
        assert run_output(run_dir) == result_bytes
        assert shard_files(run_dir) == shards


class TestRegistryRoundTrip:
    def test_ptoy_round_trips(self):
        plan = build_ptoy(3, 6)
        rebuilt = plan_from_config(plan.config)
        assert rebuilt.config == plan.config
        assert rebuilt.shard_ids == plan.shard_ids

    def test_selfchaos_round_trips(self):
        plan = selfchaos.build_plan(PTOY_CONFIG, {"s01": {1: "crash"}})
        rebuilt = plan_from_config(plan.config)
        assert rebuilt.config == plan.config
        assert rebuilt.shard_ids == plan.shard_ids

    def test_in_tree_experiment_round_trips(self):
        from repro.experiments import figure8

        plan = figure8.build_plan(seed=11, users_per_epoch=4, num_epochs=3)
        rebuilt = plan_from_config(plan.config)
        assert rebuilt.config == plan.config
        assert rebuilt.shard_ids == plan.shard_ids

    def test_unknown_experiment_refused(self):
        with pytest.raises(RunnerError, match="no registered plan builder"):
            plan_from_config({"experiment": "nonesuch"})

    def test_unknown_config_key_refused(self):
        with pytest.raises(RunnerError, match="does not accept"):
            plan_from_config({"experiment": "ptoy", "bogus": 1})

    def test_selfchaos_rejects_unknown_shard_and_mode(self):
        with pytest.raises(RunnerError, match="not a shard"):
            selfchaos.build_plan(PTOY_CONFIG, {"zz": {1: "crash"}})
        with pytest.raises(RunnerError, match="unknown failure mode"):
            selfchaos.build_plan(PTOY_CONFIG, {"s01": {1: "meteor"}})


class TestObservability:
    def test_events_record_worker_attribution(self, tmp_path):
        from repro.obs.events import read_events
        from repro.obs.recorder import ObsRecorder, recording

        run_dir = tmp_path / "run"
        with recording(ObsRecorder()):
            ExperimentRunner(
                build_ptoy(3, 6), run_dir, RunnerOptions(jobs=2)
            ).execute()
        completed = [
            e
            for e in read_events(run_dir / "events.jsonl")
            if e["event"] == "shard_completed"
        ]
        assert sorted(e["shard"] for e in completed) == sorted(
            build_ptoy(3, 6).shard_ids
        )
        for event in completed:
            assert event["wall_s"] >= 0.0
            assert event["worker"] >= 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "obs" not in manifest


class TestFleetObservability:
    """The fleet-obs contract: a ``--jobs N`` run's merged registry is
    indistinguishable from the serial run's (counters sum, histograms merge
    bucket-wise), whatever failures the fleet survived along the way."""

    def run_with_obs(self, run_dir, jobs, plan=None, **options):
        from repro.obs.recorder import ObsRecorder, recording

        recorder = ObsRecorder()
        if plan is None:
            plan = build_obstoy(3, 6)
        with recording(recorder):
            out = ExperimentRunner(
                run_dir=run_dir,
                plan=plan,
                options=RunnerOptions(
                    jobs=jobs, retry_policy=fast_policy(), **options
                ),
            ).execute()
        if recorder.events is not None:
            recorder.events.close()
        return out, recorder

    def test_parallel_aggregates_equal_serial(self, tmp_path):
        from repro.obs.merge import registry_diff

        serial_out, serial = self.run_with_obs(tmp_path / "serial", 1)
        fleet_out, fleet = self.run_with_obs(tmp_path / "fleet", 4)
        assert fleet_out == serial_out
        assert registry_diff(fleet.metrics, serial.metrics) == []

    def test_parallel_window_series_equal_serial(self, tmp_path):
        """The windowed time series of a ``--jobs 4`` run is byte-identical
        to the serial run's: window assignment keys on simulated time and
        cells are integers, so shard completion order cannot leak in."""
        _, serial = self.run_with_obs(tmp_path / "serial", 1)
        _, fleet = self.run_with_obs(tmp_path / "fleet", 4)
        assert json.dumps(
            fleet.timeseries.to_json(), sort_keys=True
        ) == json.dumps(serial.timeseries.to_json(), sort_keys=True)

    def test_chaos_run_window_series_equal_clean_serial(self, tmp_path):
        """Crashed and killed attempts ship no windowed deltas either, so
        the merged series of a chaos fleet still equals the clean serial
        run's — the windowed analogue of the registry contract."""
        _, serial = self.run_with_obs(tmp_path / "serial", 1)
        plan = selfchaos.build_plan(
            OBSTOY_CONFIG, {"s01": {1: "crash"}, "s02": {1: "kill"}}
        )
        _, fleet = self.run_with_obs(tmp_path / "fleet", 4, plan=plan)
        assert fleet.timeseries.to_json() == serial.timeseries.to_json()

    def test_chaos_run_aggregates_equal_clean_serial(self, tmp_path):
        """Crashed and killed attempts ship no obs, so the merged registry
        of a chaos run still equals the clean serial run's."""
        from repro.obs.merge import FLEET_SERIES_PREFIXES, registry_diff

        serial_out, serial = self.run_with_obs(tmp_path / "serial", 1)
        plan = selfchaos.build_plan(
            OBSTOY_CONFIG, {"s01": {1: "crash"}, "s02": {1: "kill"}}
        )
        fleet_out, fleet = self.run_with_obs(tmp_path / "fleet", 4, plan=plan)
        assert fleet_out == serial_out
        # The supervisor's own retry backoff is fleet bookkeeping, not
        # plan obs — only the chaos run has any.
        ignore = FLEET_SERIES_PREFIXES + ("repro_retry_",)
        diff = registry_diff(fleet.metrics, serial.metrics, ignore_prefixes=ignore)
        assert diff == []

    def test_post_completion_death_salvaged_from_sidecar(
        self, tmp_path, monkeypatch
    ):
        """A worker dying after its sidecar lands but before the result
        message sends loses the pipe copy; the parent recovers the delta
        from the sidecar and the retried attempt is counted too (the shard
        genuinely ran twice)."""
        from repro.runner import parallel as parallel_mod

        serial_out, _ = self.run_with_obs(tmp_path / "serial", 1)

        def die_after_sidecar(shard_id, attempt):
            if shard_id == "s02" and attempt == 1:
                os._exit(77)

        monkeypatch.setattr(
            parallel_mod, "_post_sidecar_test_hook", die_after_sidecar
        )
        fleet_out, fleet = self.run_with_obs(tmp_path / "fleet", 3)
        assert fleet_out == serial_out
        metrics = fleet.metrics
        assert metrics.counter_value("repro_obs_deltas_salvaged_total") == 1.0
        # 6 shards, s02 executed twice: once salvaged, once via the retry.
        assert metrics.counter_value("repro_obstoy_shards_total") == 7.0
        assert metrics.counter_value("repro_obstoy_value_total") == 51.0
        # No sidecars left behind once the run ends.
        assert not (tmp_path / "fleet" / "obs").exists()

    def test_event_log_records_the_run_lifecycle(self, tmp_path):
        from repro.obs.events import read_events

        run_dir = tmp_path / "run"
        self.run_with_obs(run_dir, 3)
        events = list(read_events(run_dir / "events.jsonl"))
        names = [event["event"] for event in events]
        assert names[0] == "run_start"
        assert names[-1] == "run_completed"
        assert "worker_spawned" in names
        completed = {
            event["shard"]
            for event in events
            if event["event"] == "shard_completed"
        }
        assert completed == set(build_obstoy(3, 6).shard_ids)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_shard_progress_quiet_by_default(self, tmp_path, capsys, jobs):
        self.run_with_obs(tmp_path / "run", jobs)
        err = capsys.readouterr().err
        assert "obs: shard" not in err
        assert "shards on disk after" in err  # the final summary always lands

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_every_rate_limits_the_heartbeat(
        self, tmp_path, capsys, jobs
    ):
        self.run_with_obs(tmp_path / "run", jobs, progress_every=2)
        err = capsys.readouterr().err
        assert err.count("obs: shard") == 3  # 6 shards, every 2nd reported

    def test_progress_every_must_be_positive(self):
        with pytest.raises(RunnerError, match="progress-every"):
            RunnerOptions(progress_every=0)


class TestCliExitCodes:
    def test_quarantine_has_its_own_exit_code(self, monkeypatch, capsys):
        from repro import cli
        from repro.runner.engine import ExperimentRunner as EngineRunner

        def boom(self):
            raise ShardQuarantinedError("2 shard(s) quarantined")

        monkeypatch.setattr(EngineRunner, "execute", boom)
        code = cli.main(
            ["run", "figure8", "--out-dir", "ignored-by-stub", "--jobs", "2"]
        )
        assert code == cli.EXIT_QUARANTINED == 8
        assert "quarantined" in capsys.readouterr().err

    def test_jobs_requires_out_dir(self, capsys):
        from repro import cli

        assert cli.main(["run", "figure8", "--jobs", "2"]) == cli.EXIT_ERROR
        assert "--jobs requires --out-dir" in capsys.readouterr().err
