"""Unit tests for the crash-safe runner building blocks.

Covers :mod:`repro.atomicio`, the checkpoint store (round-trip, corruption
quarantine, manifest compatibility), the run deadline, the interrupt
guard, and the retry/quarantine semantics of the engine at its default
one-worker pool — all on cheap toy plans so the suite stays fast.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.atomicio import atomic_open, atomic_write_text
from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    ManifestMismatchError,
    RunInterruptedError,
    RunnerError,
    ShardQuarantinedError,
)
from repro.faults.retry import RetryPolicy
from repro.runner.deadline import Deadline
from repro.runner.engine import ExperimentRunner, RunnerOptions
from repro.runner.interrupt import InterruptGuard
from repro.runner.registry import register_plan_builder
from repro.runner.shards import ExperimentPlan, current_attempt
from repro.runner.store import (
    CheckpointStore,
    build_manifest,
    canonical_json,
    check_resume_compatible,
    config_hash,
)


def toy_plan(shard_ids=("a", "b", "c"), run_shard=None):
    """A minimal plan: each shard yields its id's length.

    The plan registers itself as the ``toy`` builder, so the runner's
    fork-started workers rebuild this very plan, closures included.
    """
    if run_shard is None:
        run_shard = lambda sid: {"value": len(sid)}  # noqa: E731
    plan = ExperimentPlan(
        experiment="toy",
        config={"experiment": "toy", "seed": 1},
        shard_ids=tuple(shard_ids),
        run_shard=run_shard,
        merge=lambda payloads: sum(p["value"] for p in payloads.values()),
        format=lambda total: f"total={total}",
    )
    register_plan_builder("toy", lambda: lambda seed: plan)
    return plan


def logged(path, run_shard):
    """``run_shard`` that first appends its shard id to ``path``: a record
    of every attempt the parent can read back from any worker process."""

    def run(sid):
        with open(path, "a") as log:
            log.write(f"{sid}\n")
        return run_shard(sid)

    return run


def read_log(path):
    return path.read_text().split() if path.exists() else []


def fast_options(**kwargs):
    """RunnerOptions whose retry backoff is zero."""
    kwargs.setdefault(
        "retry_policy",
        RetryPolicy(max_attempts=3, backoff_base_ms=0.0, backoff_cap_ms=0.0),
    )
    return RunnerOptions(**kwargs)


class TestAtomicIo:
    def test_write_text_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "a much longer first version\n")
        atomic_write_text(path, "v2\n")
        assert path.read_text() == "v2\n"

    def test_exception_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("partial garbage")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "original"

    def test_exception_leaves_no_tmp_file_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("doomed")
                raise RuntimeError("crash")
        assert list(tmp_path.iterdir()) == []

    def test_no_tmp_file_survives_success(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_config_hash_is_stable(self):
        assert config_hash({"x": 1}) == config_hash({"x": 1})
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1 / 3, 123456.789012345, float("nan")]
        text = json.dumps(values)
        loaded = json.loads(text)
        assert loaded[0] == values[0]
        assert loaded[1] == values[1]
        assert loaded[2] == values[2]
        assert loaded[3] != loaded[3]  # NaN survives the trip


class TestCheckpointStore:
    def test_shard_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.write_shard("epoch-0001", {"samples": [1.5, 2.5]})
        assert store.load_shard("epoch-0001") == {"samples": [1.5, 2.5]}

    def test_missing_shard_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        assert store.load_shard("absent") is None

    def test_unsafe_shard_id_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        with pytest.raises(CheckpointError):
            store.write_shard("../evil", {})

    def test_truncated_checkpoint_is_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.write_shard("s1", {"v": 1})
        path = store.shard_dir / "s1.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load_shard("s1") is None
        assert not path.exists()
        assert (store.quarantine_dir / "s1.json.0").exists()

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.write_shard("s1", {"v": 1})
        path = store.shard_dir / "s1.json"
        record = json.loads(path.read_text())
        record["payload"]["v"] = 999  # tampered, checksum now stale
        path.write_text(json.dumps(record))
        assert store.load_shard("s1") is None
        assert (store.quarantine_dir / "s1.json.0").exists()

    def test_torn_write_quarantined_at_every_cut_point(self, tmp_path):
        """A shard file cut off mid-byte anywhere — inside the JSON framing,
        the checksum hex, or the payload — is quarantine-and-recompute, never
        a crash and never a silently-accepted partial payload."""
        store = CheckpointStore(tmp_path / "run")
        store.write_shard("s1", {"samples": [1.5, 2.5], "note": "complete"})
        path = store.shard_dir / "s1.json"
        whole = path.read_bytes()
        for frac in (0.1, 0.35, 0.6, 0.9):
            cut = max(1, int(len(whole) * frac))
            path.write_bytes(whole[:cut])
            assert store.load_shard("s1") is None, f"cut at {cut}/{len(whole)}"
            assert not path.exists()
        quarantined = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert quarantined == [f"s1.json.{i}" for i in range(4)]
        # A rewrite after the torn reads round-trips normally again.
        store.write_shard("s1", {"v": 2})
        assert store.load_shard("s1") == {"v": 2}

    def test_valid_json_with_wrong_schema_is_quarantined(self, tmp_path):
        """Parseable JSON that is not a checkpoint record (a concurrent
        writer's leftovers, a hand-edited file) is rejected like corruption."""
        store = CheckpointStore(tmp_path / "run")
        for i, text in enumerate(
            ['[1, 2, 3]', '{"payload": {"v": 1}}', '{"checksum": "abc"}', '"str"']
        ):
            (store.shard_dir / "s1.json").write_text(text)
            assert store.load_shard("s1") is None, f"schema case {i}: {text}"
        assert len(list(store.quarantine_dir.iterdir())) == 4

    def test_repeated_quarantine_numbers_files(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        for _ in range(2):
            (store.shard_dir / "s1.json").write_text("{broken")
            assert store.load_shard("s1") is None
        names = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert names == ["s1.json.0", "s1.json.1"]

    def test_corrupt_manifest_is_a_hard_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.manifest_path.write_text("{broken")
        with pytest.raises(RunnerError):
            store.load_manifest()


class TestManifest:
    def test_build_manifest_pins_plan(self):
        manifest = build_manifest(toy_plan())
        assert manifest["experiment"] == "toy"
        assert manifest["shard_ids"] == ["a", "b", "c"]
        assert manifest["config_hash"] == config_hash({"experiment": "toy", "seed": 1})

    def test_identical_manifests_are_compatible(self):
        manifest = build_manifest(toy_plan())
        check_resume_compatible(manifest, build_manifest(toy_plan()))

    def test_config_change_is_incompatible(self):
        plan_b = ExperimentPlan(
            experiment="toy",
            config={"experiment": "toy", "seed": 2},
            shard_ids=("a",),
            run_shard=lambda sid: {},
            merge=lambda p: 0,
            format=str,
        )
        with pytest.raises(ManifestMismatchError):
            check_resume_compatible(build_manifest(toy_plan()), build_manifest(plan_b))


class TestPlanValidation:
    def test_empty_shard_ids_rejected(self):
        with pytest.raises(RunnerError):
            toy_plan(shard_ids=())

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(RunnerError):
            toy_plan(shard_ids=("a", "a"))


class TestDeadline:
    def test_unbounded_never_raises(self):
        deadline = Deadline(None)
        assert deadline.remaining_s() is None
        deadline.check()

    def test_fresh_budget_passes(self):
        Deadline(60.0).check()

    def test_spent_budget_raises(self):
        deadline = Deadline(60.0)
        object.__setattr__(deadline, "_started", deadline._started - 61.0)
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(RunnerError):
            Deadline(0.0)


class TestInterruptGuard:
    def test_clean_run_restores_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with InterruptGuard() as guard:
            assert not guard.interrupted
            guard.check()
        assert signal.getsignal(signal.SIGTERM) is before

    def test_signal_sets_flag_and_check_raises(self):
        with InterruptGuard() as guard:
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.interrupted
            with pytest.raises(RunInterruptedError) as excinfo:
                guard.check()
        assert "resume with --resume" in str(excinfo.value)


class TestEngine:
    def test_full_run_writes_everything(self, tmp_path):
        run_dir = tmp_path / "run"
        text = ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()
        assert text == "total=3"
        assert (run_dir / "result.txt").read_text() == "total=3"
        assert (run_dir / "manifest.json").exists()
        assert sorted(p.stem for p in (run_dir / "shards").iterdir()) == [
            "a", "b", "c"
        ]

    def test_existing_dir_without_resume_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()
        with pytest.raises(RunnerError, match="pass --resume"):
            ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()

    def test_resume_skips_completed_shards(self, tmp_path):
        run_dir = tmp_path / "run"
        log = tmp_path / "calls.log"
        counting = logged(log, lambda sid: {"value": len(sid)})

        with pytest.raises(RunInterruptedError):
            ExperimentRunner(
                toy_plan(run_shard=counting), run_dir, fast_options(max_shards=2)
            ).execute()
        assert read_log(log) == ["a", "b"]
        text = ExperimentRunner(
            toy_plan(run_shard=counting), run_dir, fast_options(resume=True)
        ).execute()
        assert read_log(log) == ["a", "b", "c"]
        assert text == "total=3"

    def test_resume_with_different_config_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()
        other = ExperimentPlan(
            experiment="toy",
            config={"experiment": "toy", "seed": 99},
            shard_ids=("a", "b", "c"),
            run_shard=lambda sid: {"value": 1},
            merge=lambda p: 0,
            format=str,
        )
        with pytest.raises(ManifestMismatchError):
            ExperimentRunner(other, run_dir, fast_options(resume=True)).execute()

    def test_flaky_shard_retried_to_success(self, tmp_path):
        log = tmp_path / "attempts.log"

        def flaky(sid):
            if sid == "b" and current_attempt() < 3:
                raise ValueError("transient wobble")
            return {"value": len(sid)}

        text = ExperimentRunner(
            toy_plan(run_shard=logged(log, flaky)), tmp_path / "run", fast_options()
        ).execute()
        assert text == "total=3"
        assert read_log(log).count("b") == 3

    def test_persistent_failure_exhausts_retries(self, tmp_path):
        """A shard that fails every attempt is quarantined with its
        evidence; the shards around it still complete and checkpoint."""
        run_dir = tmp_path / "run"
        log = tmp_path / "attempts.log"

        def broken(sid):
            if sid == "b":
                raise ValueError("hard failure")
            return {"value": len(sid)}

        runner = ExperimentRunner(
            toy_plan(run_shard=logged(log, broken)),
            run_dir,
            fast_options(),
        )
        with pytest.raises(ShardQuarantinedError, match=r"\['b'\]"):
            runner.execute()
        assert read_log(log).count("b") == 3
        store = CheckpointStore(run_dir)
        assert store.load_shard("a") == {"value": 1}
        assert store.load_shard("b") is None
        assert store.load_shard("c") == {"value": 1}
        assert not (run_dir / "result.txt").exists()
        failures = json.loads((run_dir / "quarantine.json").read_text())[
            "shards"
        ]["b"]["failures"]
        assert [f["kind"] for f in failures] == ["exception"] * 3
        assert all("hard failure" in f["detail"] for f in failures)

    def test_retry_waits_out_its_backoff(self, tmp_path):
        """The pool holds a failed shard back for the policy's doubling
        backoff (100 ms, then 200 ms) before it assigns the next attempt."""
        stamps = tmp_path / "stamps.log"

        def broken(sid):
            with open(stamps, "a") as log:
                log.write(f"{time.monotonic()!r}\n")
            raise ValueError("always")

        runner = ExperimentRunner(
            toy_plan(shard_ids=("a",), run_shard=broken),
            tmp_path / "run",
            RunnerOptions(
                retry_policy=RetryPolicy(max_attempts=3, backoff_base_ms=100.0),
            ),
        )
        with pytest.raises(ShardQuarantinedError):
            runner.execute()
        starts = [float(stamp) for stamp in stamps.read_text().split()]
        assert len(starts) == 3
        assert starts[1] - starts[0] >= 0.1
        assert starts[2] - starts[1] >= 0.2

    def test_signal_during_backoff_exits_promptly(self, tmp_path):
        """A first SIGTERM that lands while a failed shard waits out a 60 s
        backoff ends the run at once: nothing is in flight to drain."""
        failed = tmp_path / "failed"

        def broken(sid):
            failed.touch()
            raise ValueError("always")

        def signal_once_backing_off():
            give_up = time.monotonic() + 30.0
            while not failed.exists() and time.monotonic() < give_up:
                time.sleep(0.01)
            time.sleep(0.2)
            os.kill(os.getpid(), signal.SIGTERM)

        runner = ExperimentRunner(
            toy_plan(shard_ids=("a",), run_shard=broken),
            tmp_path / "run",
            RunnerOptions(
                retry_policy=RetryPolicy(max_attempts=5, backoff_base_ms=60_000.0),
            ),
        )
        signaller = threading.Thread(target=signal_once_backing_off, daemon=True)
        # Outside the run's own guard a stray SIGTERM must fail this test,
        # not terminate the test process.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            signaller.start()
            started = time.monotonic()
            with pytest.raises(RunInterruptedError, match="SIGTERM"):
                runner.execute()
            assert time.monotonic() - started < 30.0  # not the 60 s backoff
        finally:
            signaller.join()
            signal.signal(signal.SIGTERM, previous)

    def test_sigterm_mid_run_checkpoints_completed_shards(self, tmp_path):
        run_dir = tmp_path / "run"

        def shard_then_signal(sid):
            if sid == "b":
                os.kill(os.getppid(), signal.SIGTERM)  # the supervisor
            return {"value": len(sid)}

        with pytest.raises(RunInterruptedError, match="SIGTERM"):
            ExperimentRunner(
                toy_plan(run_shard=shard_then_signal), run_dir, fast_options()
            ).execute()
        store = CheckpointStore(run_dir)
        # The in-flight shard was finished and flushed before exiting.
        assert store.load_shard("a") == {"value": 1}
        assert store.load_shard("b") == {"value": 1}
        assert store.load_shard("c") is None

    def test_corrupt_checkpoint_recomputed_on_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()
        (run_dir / "shards" / "b.json").write_text("{truncated")
        text = ExperimentRunner(
            toy_plan(), run_dir, fast_options(resume=True)
        ).execute()
        assert text == "total=3"
        assert (run_dir / "quarantine" / "b.json.0").exists()
        assert CheckpointStore(run_dir).load_shard("b") == {"value": 1}

    def test_torn_shard_write_recomputed_on_resume(self, tmp_path):
        """A shard checkpoint cut off mid-record (torn write under a crash
        without atomicio) costs one recompute on resume, not the run."""
        run_dir = tmp_path / "run"
        ExperimentRunner(toy_plan(), run_dir, fast_options()).execute()
        path = run_dir / "shards" / "b.json"
        path.write_bytes(path.read_bytes()[:17])
        text = ExperimentRunner(
            toy_plan(), run_dir, fast_options(resume=True)
        ).execute()
        assert text == "total=3"
        assert (run_dir / "quarantine" / "b.json.0").exists()
        assert CheckpointStore(run_dir).load_shard("b") == {"value": 1}

    def test_options_validation(self):
        with pytest.raises(RunnerError):
            RunnerOptions(deadline_s=-1.0)
        with pytest.raises(RunnerError):
            RunnerOptions(shard_deadline_s=0.0)
        with pytest.raises(RunnerError):
            RunnerOptions(max_shards=0)
        with pytest.raises(RunnerError):
            RunnerOptions(jobs=0)
