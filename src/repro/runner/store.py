"""Atomic per-shard checkpoint store and the run manifest.

Layout of a run directory::

    RUNDIR/
      manifest.json        # experiment, config + hash, version, shard plan
      shards/<id>.json     # one checkpoint per completed shard
      quarantine/          # corrupt checkpoint files, moved aside
      result.txt           # final formatted output (only on full completion)
      events.jsonl         # run event log (instrumented runs only)

Every file is written tmp + ``fsync`` + ``os.replace``
(:mod:`repro.atomicio`), so a crash at any instant leaves either no file or
a complete one. Checkpoints embed a SHA-256 of their canonical payload;
a file that fails to parse or verify is *quarantined* (moved into
``quarantine/``) and its shard recomputed — corruption costs one shard,
never the run.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any

from repro import __version__
from repro.atomicio import atomic_write_text
from repro.errors import CheckpointError, ManifestMismatchError, RunnerError
from repro.runner.shards import ExperimentPlan

FORMAT_VERSION = 1
_SHARD_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of a plan configuration."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def build_manifest(plan: ExperimentPlan) -> dict[str, Any]:
    """The manifest pinning a run directory to one exact plan."""
    return {
        "format_version": FORMAT_VERSION,
        "experiment": plan.experiment,
        "config": plan.config,
        "config_hash": config_hash(plan.config),
        "package_version": __version__,
        "shard_ids": list(plan.shard_ids),
    }


def check_resume_compatible(
    existing: dict[str, Any], expected: dict[str, Any]
) -> None:
    """Refuse to resume into a run directory built for a different run."""
    for key in ("format_version", "experiment", "config_hash", "package_version"):
        if existing.get(key) != expected.get(key):
            raise ManifestMismatchError(
                f"cannot resume: run directory was created for "
                f"{key}={existing.get(key)!r}, this invocation has "
                f"{key}={expected.get(key)!r}; use a fresh --out-dir or "
                f"matching parameters"
            )
    if existing.get("shard_ids") != expected.get("shard_ids"):
        raise ManifestMismatchError(
            "cannot resume: the shard plan changed for an identical "
            "configuration (internal error)"
        )


class CheckpointStore:
    """Crash-safe persistence for one run directory."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.shard_dir = self.run_dir / "shards"
        self.quarantine_dir = self.run_dir / "quarantine"
        self.quarantine_record_path = self.run_dir / "quarantine.json"
        self.manifest_path = self.run_dir / "manifest.json"
        self.result_path = self.run_dir / "result.txt"
        self.events_path = self.run_dir / "events.jsonl"
        try:
            self.shard_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create run directory {self.run_dir}: {exc}"
            ) from exc

    # -- manifest ----------------------------------------------------------

    def load_manifest(self) -> dict[str, Any] | None:
        """The stored manifest, or ``None`` for a fresh directory.

        A manifest that exists but cannot be parsed means the directory's
        provenance is unknowable; that is a hard error, not a quarantine.
        """
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RunnerError(
                f"unreadable manifest {self.manifest_path}: {exc}; "
                f"start over with a fresh --out-dir"
            ) from exc
        if not isinstance(manifest, dict):
            raise RunnerError(
                f"malformed manifest {self.manifest_path}; "
                f"start over with a fresh --out-dir"
            )
        return manifest

    def write_manifest(self, manifest: dict[str, Any]) -> None:
        atomic_write_text(self.manifest_path, json.dumps(manifest, indent=1))

    # -- shard checkpoints -------------------------------------------------

    def _shard_path(self, shard_id: str) -> Path:
        if not _SHARD_ID_RE.match(shard_id):
            raise CheckpointError(f"unsafe shard id {shard_id!r}")
        return self.shard_dir / f"{shard_id}.json"

    def write_shard(self, shard_id: str, payload: Any) -> None:
        """Persist one shard's payload atomically with an integrity hash."""
        record = {
            "format_version": FORMAT_VERSION,
            "shard_id": shard_id,
            "checksum": hashlib.sha256(canonical_json(payload).encode()).hexdigest(),
            "payload": payload,
        }
        atomic_write_text(self._shard_path(shard_id), json.dumps(record, indent=1))

    def load_shard(self, shard_id: str) -> Any | None:
        """One shard's payload; ``None`` if absent or quarantined-as-corrupt."""
        path = self._shard_path(shard_id)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if (
                not isinstance(record, dict)
                or record.get("format_version") != FORMAT_VERSION
                or record.get("shard_id") != shard_id
                or "payload" not in record
                or "checksum" not in record
            ):
                raise ValueError("malformed checkpoint record")
            digest = hashlib.sha256(
                canonical_json(record["payload"]).encode()
            ).hexdigest()
            if digest != record["checksum"]:
                raise ValueError("checksum mismatch")
        except (OSError, ValueError) as exc:
            self._quarantine(path, reason=str(exc))
            return None
        return record["payload"]

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt file aside (evidence kept, shard recomputed)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(1000):
            target = self.quarantine_dir / f"{path.name}.{attempt}"
            if not target.exists():
                break
        try:
            path.replace(target)
        except OSError as exc:  # pragma: no cover - unwritable quarantine
            raise CheckpointError(
                f"corrupt checkpoint {path} ({reason}) could not be "
                f"quarantined: {exc}"
            ) from exc

    def completed_shards(self, shard_ids: tuple[str, ...]) -> dict[str, Any]:
        """Payloads of every valid on-disk checkpoint among ``shard_ids``."""
        done: dict[str, Any] = {}
        for shard_id in shard_ids:
            payload = self.load_shard(shard_id)
            if payload is not None:
                done[shard_id] = payload
        return done

    # -- quarantined-shard record ------------------------------------------

    def write_quarantine_record(self, record: dict[str, Any]) -> None:
        """Persist the supervisor's evidence about quarantined shards.

        Distinct from the ``quarantine/`` directory (corrupt *checkpoint
        files* moved aside): this records shards whose *execution* kept
        failing — which attempts, which failure kind (crash / hang /
        garbage / exception), and the detail string for each."""
        atomic_write_text(self.quarantine_record_path, json.dumps(record, indent=1))

    def load_quarantine_record(self) -> dict[str, Any] | None:
        """The stored quarantine record, or ``None`` when absent/unreadable."""
        if not self.quarantine_record_path.exists():
            return None
        try:
            record = json.loads(self.quarantine_record_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def clear_quarantine_record(self) -> None:
        """Drop the record (a later run completed every shard)."""
        try:
            self.quarantine_record_path.unlink()
        except FileNotFoundError:
            pass

    # -- final result ------------------------------------------------------

    def write_result_text(self, text: str) -> None:
        atomic_write_text(self.result_path, text)
