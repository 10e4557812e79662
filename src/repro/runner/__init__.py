"""Crash-safe, resumable experiment execution.

Every experiment declares its work as deterministic, seed-addressed shards
(:class:`~repro.runner.shards.ExperimentPlan`); the
:class:`~repro.runner.engine.ExperimentRunner` executes the plan under a
run directory with per-shard atomic checkpoints, a manifest guarding
``--resume`` against mixing incompatible runs, wall-clock deadlines, retry
with backoff, and graceful SIGINT/SIGTERM handling. A run killed after *k*
shards resumes with the remaining shards and produces output byte-identical
to an uninterrupted run with the same seed.

The shards run on a supervised worker pool (:mod:`repro.runner.parallel`),
``jobs`` wide in :class:`~repro.runner.engine.RunnerOptions` (one worker
by default), that survives worker crashes, hangs, and kills — retrying
against the same budget, quarantining repeat offenders, and keeping every
byte-identical resume guarantee, since checkpoints are written by the
parent only and ``jobs`` never enters the manifest.

Like every ``repro`` package, this one re-exports nothing: importing
:mod:`repro.runner.shards` (as every experiment module does) loads no
engine, store or worker pool. Import from the submodules.
"""
