"""Simulation utilities: epoch samplers, seeded RNG streams, user sample points."""
