"""Workload generation: popularity distributions and request streams."""
