"""Simulation utilities: epoch samplers, seeded RNG streams, user sample points."""

from repro.simulation.sampler import EpochSampler, seeded_rng, user_sample_points

__all__ = ["EpochSampler", "seeded_rng", "user_sample_points"]
