"""Overload protection for the serve path (paper §5 capacity discipline).

Explicit per-satellite request capacity per snapshot slot, priority
admission control with graduated load shedding, M/M/1 queue-delay inflation,
per-target circuit breakers, and end-to-end deadline budgets. Attach an
:class:`~repro.overload.model.OverloadModel` to a
:class:`~repro.spacecdn.system.SpaceCdnSystem` to enable all of it;
systems without one are untouched.
"""
