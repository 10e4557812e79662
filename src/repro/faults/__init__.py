"""Fault injection: seeded fault processes, schedules, and retry policy.

The paper's §5 operational picture has satellites constantly leaving the
cache fleet (thermal duty-cycling, failures, deorbits); this package turns
that into a deterministic simulation input. Compose outage windows,
flash-crowd load and transient attempt loss into a :class:`FaultSchedule`,
hand it to :class:`~repro.spacecdn.system.SpaceCdnSystem`, and every
snapshot is served through the compiled satellite mask — injection costs a
mask swap over the CSR core, never a graph rebuild.
"""

from repro.faults.processes import (
    FlashCrowdProcess,
    OutageWindow,
    TransientAttemptLoss,
)
from repro.faults.retry import DeadlineBudget, RetryPolicy
from repro.faults.schedule import FaultSchedule, FaultView, apply_fault_view

__all__ = [
    "FaultSchedule",
    "FaultView",
    "apply_fault_view",
    "RetryPolicy",
    "DeadlineBudget",
    "FlashCrowdProcess",
    "OutageWindow",
    "TransientAttemptLoss",
]
