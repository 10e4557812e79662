"""The run event log: a structured JSONL journal of fleet lifecycle.

Metrics answer "how much", traces answer "which request" — the event log
answers "what happened when": shard assignments, completions, retries and
quarantines; worker births, deaths and watchdog kills; drains, deadlines
and obs flushes. It lives as ``events.jsonl`` under the run directory and
is written by the *parent* process only, one whole line per event through
a single ``O_APPEND`` ``write`` — so a reader (or a crash) never observes
half an event, and a resumed run appends its own segment after the
interrupted one's instead of erasing the history.

``repro obs events RUNDIR/events.jsonl`` renders the journal as a
timeline plus a per-shard wall-time table (:func:`render_events`).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.tables import format_table
from repro.atomicio import read_artifact_text
from repro.errors import ObsError

EVENTS_FILENAME = "events.jsonl"

_SHARD_EVENTS = frozenset({"shard_assigned", "shard_completed", "shard_retried"})
"""Per-shard noise kept out of the rendered timeline (the table covers it)."""


class EventLog:
    """Append-only JSONL event journal (best-effort, never fails the run).

    Each record carries ``seq`` (per-invocation, restarts at 0 when a
    resumed run opens the same file), ``ts`` (wall-clock seconds), and
    ``event`` plus the caller's fields. Emission is a single appending
    ``os.write`` of one complete line; an unwritable log warns once on
    stderr and goes quiet — observability must never take down the run it
    observes.
    """

    def __init__(self, path: str | Path, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self._clock = clock
        self._seq = 0
        self._fd: int | None = None
        self._broken = False

    def emit(self, event: str, **fields: object) -> None:
        """Append one event record; silently a no-op after a write error."""
        if self._broken:
            return
        record: dict = {"seq": self._seq, "ts": round(self._clock(), 6)}
        record["event"] = event
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        try:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, line.encode())
        except OSError as exc:
            self._broken = True
            print(
                f"obs: event log {self.path} is unwritable ({exc}); "
                f"further events are dropped",
                file=sys.stderr,
            )
            return
        self._seq += 1

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - double close
                pass
            self._fd = None


def read_events(path: str | Path) -> Iterator[dict]:
    """Yield event records from a JSONL event log, validating as it goes."""
    text = read_artifact_text(path, "event log")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{number}: malformed event line: {exc}") from exc
        if not isinstance(record, dict) or "event" not in record:
            raise ObsError(f"{path}:{number}: event line is not an event object")
        yield record


def render_events(events: Iterable[dict]) -> str:
    """The ``repro obs events`` body: timeline + per-shard wall-time table.

    The timeline shows run/worker lifecycle events with offsets from the
    journal's first timestamp; per-shard assignment/completion/retry events
    are folded into the shard table (attempts, last worker, wall seconds,
    final status) so a thousand-shard journal renders in a screenful.
    """
    records = list(events)
    if not records:
        raise ObsError("event log holds no events")
    t0 = min(float(r.get("ts", 0.0)) for r in records)

    counts: dict[str, int] = {}
    shards: dict[str, dict] = {}
    timeline: list[str] = []
    for record in records:
        name = str(record.get("event"))
        counts[name] = counts.get(name, 0) + 1
        offset = float(record.get("ts", t0)) - t0
        detail = ", ".join(
            f"{key}={value}"
            for key, value in sorted(record.items())
            if key not in ("event", "seq", "ts")
        )
        if name in _SHARD_EVENTS:
            shard = str(record.get("shard", "?"))
            entry = shards.setdefault(
                shard,
                {"attempts": 0, "worker": "-", "wall_s": None, "status": "assigned"},
            )
            if name == "shard_assigned":
                entry["attempts"] = max(
                    entry["attempts"], int(record.get("attempt", 0) or 0)
                )
                if "worker" in record:
                    entry["worker"] = record["worker"]
            elif name == "shard_completed":
                entry["attempts"] = max(
                    entry["attempts"], int(record.get("attempt", 0) or 0)
                )
                if "worker" in record:
                    entry["worker"] = record["worker"]
                wall = record.get("wall_s")
                if isinstance(wall, (int, float)):
                    entry["wall_s"] = float(wall)
                entry["status"] = "completed"
            else:  # shard_retried
                entry["status"] = f"retrying ({record.get('kind', '?')})"
        else:
            if name == "shard_quarantined":
                shard = str(record.get("shard", "?"))
                shards.setdefault(
                    shard,
                    {
                        "attempts": 0,
                        "worker": "-",
                        "wall_s": None,
                        "status": "assigned",
                    },
                )["status"] = "quarantined"
            timeline.append(f"  +{offset:9.3f}s  {name:<20s}  {detail}")

    count_rows = [(name, counts[name]) for name in sorted(counts)]
    shard_rows = [
        (
            shard,
            entry["attempts"],
            entry["worker"],
            "n/a" if entry["wall_s"] is None else f"{entry['wall_s']:.3f}",
            entry["status"],
        )
        for shard, entry in sorted(shards.items())
    ]

    sections = [
        f"{len(records)} events over {max(float(r.get('ts', t0)) for r in records) - t0:.3f}s",
        "Event counts:\n" + format_table(("event", "count"), count_rows),
    ]
    if timeline:
        sections.append("Timeline (run & worker lifecycle):\n" + "\n".join(timeline))
    if shard_rows:
        sections.append(
            "Per-shard wall time:\n"
            + format_table(
                ("shard", "attempts", "worker", "wall s", "status"), shard_rows
            )
        )
    return "\n\n".join(sections)


def render_events_file(path: str | Path) -> str:
    """Render an ``events.jsonl`` file (the ``repro obs events`` body)."""
    return render_events(read_events(path))
