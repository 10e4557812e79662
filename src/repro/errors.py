"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A constellation, network, or experiment was configured inconsistently."""


class GeodesyError(ReproError):
    """Invalid geographic input (latitude/longitude out of range, etc.)."""


class RoutingError(ReproError):
    """No route exists between two endpoints in the current topology."""


class VisibilityError(ReproError):
    """No satellite is visible from the requested location at the given time."""


class CacheError(ReproError):
    """Invalid cache operation (e.g. object larger than the cache)."""


class ContentNotFoundError(ReproError):
    """Requested content is not present in any reachable cache or origin."""


class UnavailableError(ContentNotFoundError):
    """No serving path exists at all under the active fault state.

    Raised when no live access satellite is visible, or when the retry
    budget runs out on failed/timed-out attempts down the whole fallback
    ladder, bent-pipe ground rung included. Subclass
    of :class:`ContentNotFoundError` so degraded-mode callers can treat
    "content unreachable" uniformly while the CLI distinguishes the two.
    """


class OverloadedError(UnavailableError):
    """The request was refused by overload protection, not by a fault.

    Raised when admission control sheds the request (every surviving rung
    was at capacity for the request's priority class) or when the request's
    end-to-end deadline budget ran out before any rung could complete.
    Subclass of :class:`UnavailableError` so degraded-mode callers that
    tolerate unavailability tolerate shedding too, while the CLI reports
    overload with its own exit code.
    """


class FaultConfigError(ConfigurationError):
    """A fault schedule or fault process was configured inconsistently."""


class DatasetError(ReproError):
    """A lookup into the embedded gazetteer failed."""


class PlacementError(ReproError):
    """A replica-placement request could not be satisfied."""


class ObsError(ReproError):
    """An observability artifact (metrics, trace) is malformed or unwritable.

    Never raised from the disabled (no-op recorder) path: with
    observability off the instrumented code cannot fail differently than
    the uninstrumented code did.
    """


class RunnerError(ReproError):
    """The crash-safe experiment runner could not execute a run."""


class CheckpointError(RunnerError):
    """A checkpoint store operation failed (unwritable directory, etc.).

    A *corrupt* checkpoint file never raises this: the store quarantines it
    and recomputes the shard instead.
    """


class ManifestMismatchError(RunnerError):
    """``--resume`` pointed at a run directory with an incompatible manifest
    (different experiment, configuration, or package version)."""


class DeadlineExceededError(RunnerError):
    """The whole-run wall-clock budget expired; completed shards are on disk."""


class ShardQuarantinedError(RunnerError):
    """One or more shards were quarantined by the worker pool.

    A shard that keeps raising, killing, hanging, or failing its worker
    through the whole retry budget is set aside (recorded in
    ``quarantine.json`` under the run directory) so the rest of the run
    can complete; every healthy shard is checkpointed. Raised after the pool drains, carrying the list
    of quarantined shard ids."""


class RunInterruptedError(RunnerError):
    """The run stopped early (SIGINT/SIGTERM or an explicit shard budget)
    after flushing every completed shard; resume with ``--resume``."""
