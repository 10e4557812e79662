"""Span-based tracing of the serve path, buffered and flushed as JSONL.

A *span* here is one flat JSON record: ``span_id``, ``parent_id`` (``None``
for roots), a ``kind`` and arbitrary attributes. The serve path emits one
``"serve_cohort"`` root span per
:meth:`repro.spacecdn.system.SpaceCdnSystem.serve_batch` call (a single
``serve`` call is a cohort of one) with one ``"rung"`` child per
``(tier, outcome)`` pair counting the ladder attempts that ended that way,
and, under overload protection, per-class ``"shed"`` children and
``"breaker"`` transition spans.

Spans accumulate in memory and are flushed atomically (tmp + fsync +
rename via :mod:`repro.atomicio`), so an interrupted run never leaves a
truncated trace line behind — the file is either absent, the previous
complete flush, or the new complete flush.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.atomicio import atomic_open, read_artifact_text
from repro.errors import ObsError


class SpanHandle:
    """A live root span: set attributes, attach completed child spans."""

    __slots__ = ("_buffer", "span_id", "_record")

    def __init__(self, buffer: "TraceBuffer", span_id: int, record: dict) -> None:
        self._buffer = buffer
        self.span_id = span_id
        self._record = record

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach attributes to this span (later calls overwrite)."""
        self._record.update(attrs)
        return self

    def child(self, kind: str, **attrs: Any) -> int:
        """Record a completed child span; returns its span id."""
        return self._buffer.record(kind, parent_id=self.span_id, **attrs)


class TraceBuffer:
    """In-memory span store with atomic JSONL flush."""

    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._spans)

    def record(self, kind: str, parent_id: int | None = None, **attrs: Any) -> int:
        """Append one completed span; returns its span id."""
        span_id = self._next_id
        self._next_id += 1
        record = {"kind": kind, "span_id": span_id, "parent_id": parent_id}
        record.update(attrs)
        self._spans.append(record)
        return span_id

    def open_span(self, kind: str, **attrs: Any) -> SpanHandle:
        """Start a root span whose attributes may still be filled in.

        The record is appended immediately (spans appear in start order);
        the returned handle mutates it in place until the buffer is
        flushed.
        """
        record = {"kind": kind, "span_id": self._next_id, "parent_id": None}
        record.update(attrs)
        self._next_id += 1
        self._spans.append(record)
        return SpanHandle(self, record["span_id"], record)

    def spans(self) -> list[dict]:
        """A snapshot of every buffered span."""
        return [dict(span) for span in self._spans]

    def snapshot_delta(self, drain: bool = False) -> list[dict]:
        """A JSON-serialisable snapshot of every buffered span.

        With ``drain=True`` the buffer empties (span ids keep counting up,
        so ids within one process never repeat across deltas); the parent
        re-ids shipped spans on merge anyway (:mod:`repro.obs.merge`), so
        parent-side and worker-side spans can share one buffer.
        """
        spans = [dict(span) for span in self._spans]
        if drain:
            self._spans = []
        return spans

    def flush(self, path: str | Path) -> int:
        """Atomically write every buffered span as JSONL; returns the count.

        The buffer is retained, so repeated flushes (heartbeat, interrupt,
        final) each rewrite the complete trace — a reader never observes a
        file with half a line or half a run.
        """
        with atomic_open(path) as handle:
            for span in self._spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(self._spans)


def read_trace(path: str | Path) -> Iterator[dict]:
    """Yield spans from a JSONL trace file, validating as it goes."""
    text = read_artifact_text(path, "trace")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{number}: malformed trace line: {exc}") from exc
        if not isinstance(span, dict) or "kind" not in span:
            raise ObsError(f"{path}:{number}: trace line is not a span object")
        yield span
