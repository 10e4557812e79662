"""``repro obs summarize`` — turn a serve-path trace into tier tables.

Reads the JSONL trace emitted by an ``--obs`` run and renders, per
fallback-ladder tier: how many requests each tier served and what share of
all requests that is, and the per-attempt outcome breakdown — the evidence
layer for "why did the p99 inflate" questions about a chaos sweep. The RTT
distribution per tier is the ``repro_serve_rtt_ms`` histogram of the
metrics file from the same run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.tables import format_table
from repro.errors import ObsError
from repro.obs.tracing import read_trace

TIER_ORDER = ("access", "direct-visible", "isl", "ground")


def _share(count: int, requests: int) -> str:
    return f"{count / requests:.1%}" if requests else "n/a"


def summarize_trace(spans: Iterable[dict]) -> str:
    """Render the tier tables of one serve-path trace.

    The serve layer emits one ``serve_cohort`` span per cohort (a single
    :meth:`~repro.spacecdn.system.SpaceCdnSystem.serve` call is a cohort
    of one) with per-``rung`` attempt-count children, plus ``shed`` and
    ``breaker`` spans under overload protection.
    """
    requests = 0
    unavailable = 0
    shed = 0
    shed_by: dict[tuple[str, str], int] = {}
    breaker_state: dict[object, str] = {}
    breaker_transitions: dict[tuple[str, str], int] = {}
    attempt_counts: dict[str, dict[str, int]] = {}

    for span in spans:
        kind = span.get("kind")
        if kind == "serve_cohort":
            requests += int(span.get("size", 0))
            unavailable += int(span.get("unavailable", 0))
            shed += int(span.get("shed", 0))
        elif kind == "shed":
            key = (str(span.get("priority", "?")), str(span.get("reason", "?")))
            shed_by[key] = shed_by.get(key, 0) + int(span.get("count", 0))
        elif kind == "breaker":
            old = str(span.get("from_state", "?"))
            new = str(span.get("to_state", "?"))
            breaker_state[span.get("target")] = new
            breaker_transitions[(old, new)] = (
                breaker_transitions.get((old, new), 0) + 1
            )
        elif kind == "rung":
            tier = span.get("tier", "?")
            outcome = span.get("outcome", "?")
            per_tier = attempt_counts.setdefault(tier, {})
            per_tier[outcome] = per_tier.get(outcome, 0) + int(span.get("count", 0))

    if requests == 0 and not attempt_counts:
        raise ObsError("trace holds no serve_cohort or rung spans")

    tiers = [t for t in TIER_ORDER if t in attempt_counts]
    tiers += sorted(set(attempt_counts) - set(tiers))

    serve_rows = []
    for tier in tiers:
        hits = attempt_counts[tier].get("served", 0)
        serve_rows.append((tier, hits, _share(hits, requests)))
    if unavailable:
        serve_rows.append(
            ("(unavailable)", unavailable, _share(unavailable, requests))
        )
    if shed:
        serve_rows.append(("(shed)", shed, _share(shed, requests)))
    serve_table = format_table(("tier", "served", "share"), serve_rows)

    attempt_rows = []
    for tier in tiers:
        outcomes = attempt_counts[tier]
        attempt_rows.append(
            (
                tier,
                sum(outcomes.values()),
                outcomes.get("served", 0),
                outcomes.get("transient-loss", 0),
                outcomes.get("attempt-timeout", 0)
                + outcomes.get("ground-timeout", 0),
                outcomes.get("breaker-open", 0)
                + outcomes.get("admission-reject", 0)
                + outcomes.get("deadline-exhausted", 0),
            )
        )
    attempt_table = format_table(
        ("tier", "attempts", "served", "lost", "timed out", "refused"),
        attempt_rows,
    )

    outcome_note = f"{unavailable} unavailable"
    if shed:
        outcome_note += f", {shed} shed"
    report = (
        f"{requests} requests ({outcome_note})\n\n"
        f"Per-tier serving outcomes:\n{serve_table}\n\n"
        f"Per-tier ladder attempts:\n{attempt_table}"
    )
    overload_section = _render_overload(
        shed, shed_by, breaker_state, breaker_transitions
    )
    if overload_section:
        report += f"\n\n{overload_section}"
    return report


def _render_overload(
    shed: int,
    shed_by: dict[tuple[str, str], int],
    breaker_state: dict[object, str],
    breaker_transitions: dict[tuple[str, str], int],
) -> str:
    """The overload-protection section; empty when the trace shows none.

    Everything here reconciles exactly with the metrics file of the same
    run: the shed rows mirror ``repro_overload_shed_total{class,reason}``
    and the state counts mirror the final ``repro_breaker_state{state}``
    gauges (both are driven by the same serve-path events).
    """
    if not shed and not breaker_state:
        return ""
    lines = ["Overload protection:"]
    if shed_by:
        shed_table = format_table(
            ("class", "reason", "shed"),
            [(cls, reason, count)
             for (cls, reason), count in sorted(shed_by.items())],
        )
        lines.append(shed_table)
    elif shed:
        lines.append(f"{shed} requests shed (no per-class breakdown in trace)")
    if breaker_state:
        states: dict[str, int] = {}
        for state in breaker_state.values():
            states[state] = states.get(state, 0) + 1
        gauge = ", ".join(
            f"{states.get(s, 0)} {s}" for s in ("closed", "open", "half-open")
        )
        flips = ", ".join(
            f"{old}->{new}: {count}"
            for (old, new), count in sorted(breaker_transitions.items())
        )
        lines.append(
            f"circuit breakers at end of trace: {gauge} "
            f"({sum(breaker_transitions.values())} transitions: {flips})"
        )
    return "\n".join(lines)


def summarize_trace_file(path: str | Path) -> str:
    """Summarise a JSONL trace file (the ``repro obs summarize`` body)."""
    return summarize_trace(read_trace(path))
