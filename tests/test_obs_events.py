"""Unit tests for the run event log (:mod:`repro.obs.events`)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs.events import EventLog, read_events, render_events, render_events_file


def make_log(path, start=100.0, step=0.5):
    """An EventLog on a deterministic clock (one tick per emit)."""
    ticks = iter(start + step * n for n in range(10_000))
    return EventLog(path, clock=lambda: next(ticks))


class TestEventLog:
    def test_emits_one_json_object_per_line(self, tmp_path):
        log = make_log(tmp_path / "events.jsonl")
        log.emit("run_start", experiment="ptoy", jobs=2)
        log.emit("shard_assigned", shard="s00", attempt=1, worker=0)
        log.close()
        records = list(read_events(tmp_path / "events.jsonl"))
        assert [r["event"] for r in records] == ["run_start", "shard_assigned"]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["experiment"] == "ptoy"
        assert records[1] == {
            "seq": 1,
            "ts": 100.5,
            "event": "shard_assigned",
            "shard": "s00",
            "attempt": 1,
            "worker": 0,
        }

    def test_resumed_run_appends_its_own_segment(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = make_log(path)
        first.emit("run_start")
        first.emit("run_interrupted")
        first.close()
        second = make_log(path, start=200.0)
        second.emit("run_start", resumed=True)
        second.close()
        records = list(read_events(path))
        assert [r["event"] for r in records] == [
            "run_start",
            "run_interrupted",
            "run_start",
        ]
        assert [r["seq"] for r in records] == [0, 1, 0]  # seq restarts

    def test_non_json_native_fields_are_stringified(self, tmp_path):
        log = make_log(tmp_path / "events.jsonl")
        log.emit("obs_flush", metrics=tmp_path / "m.prom")  # a Path object
        log.close()
        (record,) = read_events(tmp_path / "events.jsonl")
        assert record["metrics"] == str(tmp_path / "m.prom")

    def test_unwritable_log_warns_once_then_goes_quiet(self, tmp_path, capsys):
        log = EventLog(tmp_path / "no-such-dir" / "events.jsonl")
        log.emit("run_start")
        log.emit("shard_assigned", shard="s00")
        err = capsys.readouterr().err
        assert err.count("further events are dropped") == 1
        log.close()


class TestReadEvents:
    def test_missing_file_is_an_obs_error(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            list(read_events(tmp_path / "absent.jsonl"))

    def test_malformed_line_is_an_obs_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "run_start", "ts": 1, "seq": 0}\n{broken\n')
        with pytest.raises(ObsError, match="malformed"):
            list(read_events(path))

    def test_non_event_object_is_an_obs_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"ts": 1}) + "\n")
        with pytest.raises(ObsError, match="not an event object"):
            list(read_events(path))


class TestRenderEvents:
    def journal(self):
        return [
            {"seq": 0, "ts": 10.0, "event": "run_start", "jobs": 2},
            {"seq": 1, "ts": 10.1, "event": "worker_spawned", "worker": 0},
            {
                "seq": 2,
                "ts": 10.2,
                "event": "shard_assigned",
                "shard": "s00",
                "attempt": 1,
                "worker": 0,
            },
            {
                "seq": 3,
                "ts": 10.4,
                "event": "shard_retried",
                "shard": "s00",
                "attempt": 1,
                "kind": "crash",
            },
            {
                "seq": 4,
                "ts": 10.5,
                "event": "shard_assigned",
                "shard": "s00",
                "attempt": 2,
                "worker": 1,
            },
            {
                "seq": 5,
                "ts": 11.0,
                "event": "shard_completed",
                "shard": "s00",
                "attempt": 2,
                "worker": 1,
                "wall_s": 0.5,
            },
            {
                "seq": 6,
                "ts": 11.1,
                "event": "shard_quarantined",
                "shard": "s01",
                "attempts": 3,
                "kind": "crash",
            },
            {"seq": 7, "ts": 11.2, "event": "run_completed", "shards": 1},
        ]

    def test_sections_and_shard_folding(self):
        text = render_events(self.journal())
        assert "8 events over 1.200s" in text
        assert "Event counts:" in text
        assert "Timeline (run & worker lifecycle):" in text
        assert "Per-shard wall time:" in text
        # Per-shard events fold into the table, not the timeline.
        assert "shard_assigned" not in text.split("Timeline")[1].split("Per-shard")[0]
        shard_table = text.split("Per-shard wall time:")[1]
        s00 = next(line for line in shard_table.splitlines() if "s00" in line)
        assert "2" in s00 and "0.500" in s00 and "completed" in s00
        s01 = next(line for line in shard_table.splitlines() if "s01" in line)
        assert "quarantined" in s01

    def test_timeline_offsets_are_relative_to_first_event(self):
        text = render_events(self.journal())
        assert "+    0.000s  run_start" in text
        assert "+    0.100s  worker_spawned" in text

    def test_empty_journal_is_an_obs_error(self):
        with pytest.raises(ObsError, match="no events"):
            render_events([])

    def test_render_events_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in self.journal())
        )
        assert render_events_file(path) == render_events(self.journal())
