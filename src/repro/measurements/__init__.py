"""Measurement simulation: the synthetic AIM dataset and NetMet web model."""
