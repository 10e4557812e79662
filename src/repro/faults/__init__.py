"""Fault injection: seeded fault processes, schedules, and retry policy.

The paper's §5 operational picture has satellites constantly leaving the
cache fleet (thermal duty-cycling, failures, deorbits); this package turns
that into a deterministic simulation input. Compose outage windows,
flash-crowd load and transient attempt loss into a
:class:`~repro.faults.schedule.FaultSchedule`, hand it to
:class:`~repro.spacecdn.system.SpaceCdnSystem`, and every snapshot is
served through the compiled satellite mask — injection costs a mask swap
over the CSR core, never a graph rebuild.
"""
