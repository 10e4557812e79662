"""Experiment harness: one module per table/figure of the paper's evaluation.

Each module exposes ``build_plan(...)`` returning its
:class:`~repro.runner.shards.ExperimentPlan` of seed-addressed shards, which
is the experiment's one implementation and defines its defaults;
``run(...) -> <Result dataclass>``, which is ``build_plan(...)`` executed in
memory; and ``format_result(result) -> str``. ``repro run X`` prints the
plan's formatted result whether it runs in memory or under ``--out-dir``.
"""

from repro.experiments import (  # noqa: F401
    chaos,
    common,
    table1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    geoblocking,
    overload,
)

__all__ = [
    "chaos",
    "overload",
    "common",
    "table1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "geoblocking",
]
