"""The shard model: experiments as deterministic, seed-addressed work units.

A shard is the unit of checkpointing: small enough that losing one to a
crash is cheap, large enough that the per-shard store overhead is noise.
Each experiment module exposes ``build_plan(...)`` returning an
:class:`ExperimentPlan` whose shards are pure functions of (configuration,
shard id) — never of execution order or wall-clock time — so any subset can
be recomputed in any order and a resumed run converges on the same bytes.
:meth:`ExperimentPlan.run` executes a plan in memory (``repro run X``
without ``--out-dir``); the engine under ``--out-dir`` executes the same
shards with checkpoints, so both print the same bytes.

Shard payloads must be JSON-serialisable; ``json`` round-trips Python
floats exactly (shortest-repr), so merging re-read payloads is bit-equal to
merging in-memory ones.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RunnerError

_CURRENT_ATTEMPT: int | None = None


def current_attempt() -> int | None:
    """The 1-based attempt number of the shard currently executing.

    Set by each pool worker around each ``run_shard`` call; ``None``
    outside shard execution (and throughout the in-memory
    :meth:`ExperimentPlan.run`). Exists so attempt-scheduled behaviour
    (the self-chaos harness injecting a crash on attempt 1 but not
    attempt 2) can key off the *runner's* retry counter, which survives
    worker replacement, instead of per-process state, which does not."""
    return _CURRENT_ATTEMPT


def set_current_attempt(attempt: int | None) -> None:
    """Record the attempt number for :func:`current_attempt`."""
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt


@dataclass(frozen=True)
class ExperimentPlan:
    """A sharded experiment: ids, per-shard work, and the merge step.

    ``config`` is the complete JSON-serialisable parameterisation (seed
    included); its canonical hash keys the run manifest. ``run_shard`` maps
    a shard id to a JSON-serialisable payload; ``merge`` folds the full
    ``{shard_id: payload}`` mapping into the experiment's result object,
    which ``format`` renders.
    """

    experiment: str
    config: dict[str, Any]
    shard_ids: tuple[str, ...]
    run_shard: Callable[[str], Any] = field(repr=False)
    merge: Callable[[dict[str, Any]], Any] = field(repr=False)
    format: Callable[[Any], str] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.shard_ids:
            raise RunnerError(f"experiment {self.experiment!r} declared no shards")
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise RunnerError(
                f"experiment {self.experiment!r} declared duplicate shard ids"
            )

    def run(self) -> Any:
        """The result in memory: every shard in ``shard_ids`` order, then
        ``merge``. No checkpoints, retries or deadlines."""
        return self.merge(
            {shard_id: self.run_shard(shard_id) for shard_id in self.shard_ids}
        )


def in_memory(build_plan: Callable[..., ExperimentPlan]) -> Callable[..., Any]:
    """An experiment's ``run(**kwargs)``: ``build_plan(**kwargs).run()``.

    ``run`` reports ``build_plan``'s parameters as its signature, so each
    experiment defines its defaults once, in ``build_plan``.
    """

    def run(*args: Any, **kwargs: Any) -> Any:
        return build_plan(*args, **kwargs).run()

    run.__module__ = build_plan.__module__
    run.__qualname__ = "run"
    run.__doc__ = f"``{build_plan.__module__}.build_plan(...)``, run in memory."
    run.__signature__ = inspect.signature(build_plan).replace(  # type: ignore[attr-defined]
        return_annotation=inspect.Signature.empty
    )
    return run
