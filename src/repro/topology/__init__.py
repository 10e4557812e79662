"""Constellation topology: ISL wiring, snapshot graphs, routing, ground segment.

A snapshot has one representation, the vectorised CSR core of
:mod:`repro.topology.fastcore`; every routing query calls its kernels
directly.
"""
