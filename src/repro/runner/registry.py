"""Rebuild experiment plans from their manifest ``config`` blocks.

An :class:`~repro.runner.shards.ExperimentPlan` carries closures
(``run_shard``/``merge``/``format``) that cannot cross a process boundary,
but its ``config`` is plain JSON and — by the shard-model contract — fully
determines the plan. The worker pool that runs every ``--out-dir`` run
(:mod:`repro.runner.parallel`, one worker at the default ``--jobs 1``)
therefore ships only the config to its workers, and each worker rebuilds
the plan locally through this registry: ``config["experiment"]`` names a registered ``build_plan``
callable, the remaining keys are its keyword arguments.

Rebuilding is validated both ways: unknown config keys are refused (they
would silently change the plan), and the rebuilt plan must round-trip to
the exact same config (so a worker can never execute a subtly different
plan than the parent checkpointed).

Every in-tree experiment registers here. A plan with no registered
builder cannot run under ``--out-dir`` at any width; test suites and
downstream code add their own plans with :func:`register_plan_builder`
(under the default ``fork`` start method, parent-process registrations
are inherited by workers automatically).
"""

from __future__ import annotations

import inspect
from importlib import import_module
from typing import Any, Callable

from repro.errors import RunnerError
from repro.runner.shards import ExperimentPlan

PlanBuilder = Callable[..., ExperimentPlan]
PlanLoader = Callable[[], PlanBuilder]

_LOADERS: dict[str, PlanLoader] = {}


def register_plan_builder(experiment: str, loader: PlanLoader) -> None:
    """Register ``loader`` (returning a ``build_plan`` callable) for
    ``experiment``. Loaders are lazy so registering the whole experiment
    suite costs no imports until a plan is actually rebuilt."""
    _LOADERS[experiment] = loader


def has_plan_builder(experiment: str) -> bool:
    """Whether :func:`plan_from_config` can rebuild ``experiment``."""
    return experiment in _LOADERS


def _module_loader(module: str) -> PlanLoader:
    def load() -> PlanBuilder:
        return import_module(module).build_plan

    return load


for _name in (
    "chaos",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "geoblocking",
    "overload",
    "table1",
):
    register_plan_builder(_name, _module_loader(f"repro.experiments.{_name}"))
register_plan_builder("selfchaos", _module_loader("repro.runner.selfchaos"))


def plan_from_config(config: dict[str, Any]) -> ExperimentPlan:
    """The plan whose ``plan.config`` equals ``config``, rebuilt by name.

    JSON cannot express tuples, so list-valued config entries are restored
    to tuples when the builder's default for that parameter is a tuple
    (``fractions``, ``countries``); everything else passes through as-is.
    """
    experiment = config.get("experiment")
    loader = _LOADERS.get(experiment)
    if loader is None:
        raise RunnerError(
            f"no registered plan builder for experiment {experiment!r}; "
            f"pool workers can only rebuild plans registered with "
            f"repro.runner.registry.register_plan_builder"
        )
    builder = loader()
    kwargs = {key: value for key, value in config.items() if key != "experiment"}
    params = inspect.signature(builder).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        raise RunnerError(
            f"config for {experiment!r} holds keys {unknown} that its "
            f"build_plan() does not accept (package version drift? refuse "
            f"rather than guess)"
        )
    for name, value in kwargs.items():
        if isinstance(value, list) and isinstance(params[name].default, tuple):
            kwargs[name] = tuple(value)
    plan = builder(**kwargs)
    if plan.config != config:
        raise RunnerError(
            f"rebuilt plan for {experiment!r} does not round-trip its "
            f"config (internal error: build_plan() is not a pure function "
            f"of the config)"
        )
    return plan
