"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from bad
call sites, ``KeyError`` from internal bugs) propagate unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Sequence, Union

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InfeasibleError",
    "ScheduleValidationError",
    "ConvergenceError",
    "SimulationError",
    "UnknownExperimentError",
    "ServiceError",
    "JournalError",
    "JournalWriteError",
    "SnapshotError",
    "RecoveryError",
    "ReplayDivergenceError",
    "LiveJournalError",
    "ShardFailedError",
    "ShardUnavailableError",
    "ClockError",
    "TaskFailedError",
    "InjectedFaultError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A model object was constructed with invalid parameters.

    Raised eagerly at construction time (e.g. a negative energy demand, a
    charger with zero efficiency) so that bad configurations fail close to
    their source rather than deep inside a solver.
    """


class InfeasibleError(ReproError):
    """The problem instance admits no feasible schedule.

    For example: total charger slot capacity is smaller than the number of
    devices that must be charged in one round.
    """


class ScheduleValidationError(ReproError):
    """A schedule violates the CCS feasibility rules.

    Raised by :func:`repro.core.schedule.validate_schedule` when a schedule
    does not partition the device set, exceeds a charger's slot capacity,
    or references unknown devices/chargers.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget.

    Carries the iteration count reached so callers can report how far the
    algorithm got before giving up.
    """

    def __init__(self, message: str, iterations: int = 0) -> None:
        super().__init__(message)
        self.iterations = iterations


class SimulationError(ReproError):
    """The discrete-event testbed simulator reached an inconsistent state."""


class ServiceError(ReproError):
    """The charging-service daemon was driven into an invalid operation.

    For example: recovering a journal against a service constructed with a
    different configuration, or submitting a request whose device
    identifier is already being served.
    """


class JournalError(ServiceError):
    """The durable service journal cannot be written or adopted.

    Note that *reading* a damaged journal is not an error: recovery
    silently keeps the longest valid record prefix (see
    :meth:`repro.service.journal.Journal.read`).
    """


class JournalWriteError(JournalError):
    """An append to the durable journal failed at the OS level.

    Raised instead of letting a half-written record sit behind the
    checksum: the append path captures the file offset before writing and
    truncates back to it on ``OSError`` (ENOSPC, EIO, …), so the on-disk
    journal stays a valid record prefix.  The daemon that catches this is
    expected to stop and be recovered from the journal.
    """


class SnapshotError(JournalError):
    """A kernel state snapshot is unreadable, corrupt, or version-skewed.

    Raised by :func:`repro.service.snapshot.load_snapshot` when a snapshot
    file fails its checksum, carries an unsupported schema version, or is
    structurally damaged (e.g. a half-written file left by a crash during
    the snapshot write).  Recovery treats this as "snapshot does not
    exist" and falls back to the next older snapshot, then to full
    journal replay — a bad snapshot must never poison recovery.
    """


class RecoveryError(JournalError):
    """Recovery cannot proceed at all — corruption beyond repair.

    Raised when no recovery path exists: the journal does not exist, the
    journal's retained prefix starts past seq 0 (it was compacted) and no
    valid snapshot covers the gap, or a shard manifest carries an
    unsupported schema version.
    Unlike a torn tail (silently dropped) this is not survivable by
    replay; the operator must restore files from elsewhere.  ``ccs-serve``
    turns this into a one-line structured error and a nonzero exit.
    """


class ReplayDivergenceError(RecoveryError):
    """Recovery's replay disagrees with the valid journal on disk.

    The journal was not written by this kernel from its inputs, or was
    edited under valid checksums.  Nothing is rewritten: the file stays
    as it was found, for the operator to inspect.
    """


class LiveJournalError(JournalError):
    """Recovery was attempted on a journal that is still being written.

    A :class:`~repro.shard.service.ShardedService` registers its journal
    directory while open and deregisters it on :meth:`close`; recovering
    a directory another live service object in this process still owns
    would interleave two writers on the same files.  A daemon killed by a
    crash never deregisters cleanly — but its process is gone, so a fresh
    process recovering the same directory proceeds normally.
    """


class ShardFailedError(ServiceError):
    """A shard kernel died mid-call (its journal append failed or a crash
    was injected).  Carries the shard id, the shard's logical clock at
    failure, and the underlying cause so a supervisor can recover exactly
    that kernel and retry the interrupted input.
    """

    def __init__(self, shard: int, at: float, cause: BaseException) -> None:
        self.shard = int(shard)
        self.at = float(at)
        self.cause = cause
        super().__init__(
            f"shard {self.shard} failed at t={self.at!r}: "
            f"{type(cause).__name__}: {cause}"
        )


class ShardUnavailableError(ServiceError):
    """No live shard can serve a request (degraded-mode routing).

    Raised by the router when every candidate shard of a request is down,
    or when its sticky shard is down (stickiness is preserved across the
    outage, so the request is *not* silently reassigned).  The facade
    turns this into a typed ``rejected.shard_unavailable`` outcome.
    """

    def __init__(self, request_id: str, shards: Sequence[int]) -> None:
        self.request_id = str(request_id)
        self.shards = list(shards)
        super().__init__(
            f"request {self.request_id!r}: no live shard among candidates "
            f"{self.shards}"
        )


class ClockError(ServiceError):
    """The logical service clock was asked to move backwards.

    Carries both timestamps so the offending call site is identifiable
    from the error alone.
    """

    def __init__(self, target: float, current: float) -> None:
        self.target = float(target)
        self.current = float(current)
        super().__init__(
            f"cannot advance the logical clock backwards: target "
            f"{self.target!r} < current {self.current!r}"
        )


class TaskFailedError(ReproError):
    """One or more executor tasks failed terminally (after retries).

    Raised by the executors *after* every other task has finished (and
    been cached), so a partial run is never stranded.  ``failures`` maps
    the task's index in the submitted sequence to the terminal exception;
    ``results`` is the full result list with ``None`` at failed slots.
    """

    def __init__(
        self,
        failures: Mapping[int, BaseException],
        results: Sequence[Any],
    ) -> None:
        self.failures = dict(failures)
        self.results = list(results)
        parts = [
            f"task {k}: {type(exc).__name__}: {exc}"
            for k, exc in sorted(self.failures.items())
        ]
        shown = "; ".join(parts[:5])
        if len(parts) > 5:
            shown += f"; … and {len(parts) - 5} more"
        super().__init__(f"{len(parts)} task(s) failed terminally: {shown}")


class InjectedFaultError(ReproError):
    """A deliberately injected fault fired (see :mod:`repro.faults`).

    Simulates a failure no ``except OSError`` cleanup would see — e.g. a
    ``kill -9`` tearing a journal record mid-write.  Production code never
    raises this; test harnesses catch it where they would observe a dead
    process.
    """


class UnknownExperimentError(ReproError, KeyError):
    """An experiment id was requested that the runner does not know.

    Also a :class:`KeyError` because the runner registry is mapping-like;
    callers that caught ``KeyError`` from :func:`repro.experiments.run_experiment`
    keep working.
    """

    def __init__(self, unknown: Union[str, Iterable[str]], available: Iterable[str]) -> None:
        self.unknown: List[object] = (
            sorted(unknown) if isinstance(unknown, (list, tuple, set)) else [unknown]
        )
        self.available = sorted(available)
        super().__init__(
            f"unknown experiment ids {self.unknown}; available: {self.available}"
        )
