"""Feed a request stream *and* a fault plan into a charging service.

:func:`merge_timeline` interleaves submissions, kernel fault events, and
shard chaos events into one deterministic, time-sorted timeline
(submissions first at equal times, so a same-instant ``no_show``
cancellation finds its request; shard chaos last, so a killed shard has
processed every same-instant input).  :func:`drive` feeds that timeline
into a :class:`~repro.service.kernel.ChargingService` or a
:class:`~repro.shard.service.ShardedService` — directly, or through a
:class:`~repro.shard.supervisor.ShardSupervisor`, which is the only
consumer of shard chaos events and the only path that recovers a shard.

:func:`drive_with_recovery` is the full crash loop: the service journals
through a :class:`~repro.faults.journal.FaultyJournal`, and whenever an
injected write failure "kills the daemon"
(:class:`~repro.errors.JournalWriteError` for a clean ``ENOSPC``,
:class:`~repro.errors.InjectedFaultError` for a torn mid-record write),
the dead service object is abandoned,
:meth:`~repro.service.kernel.ChargingService.recover` rebuilds a fresh
one from the longest valid journal prefix, and the *entire* timeline is
re-fed from the start — every kernel input is idempotent (known request
ids, applied fault keys), so the re-feed no-ops through everything
already journaled and continues from the crash point.  The surviving
``fail_at`` dict is shared across journal instances, so multi-fault plans
arm correctly: fired faults stay fired, later faults stay armed (record
numbering is stable because recovery is byte-identical).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    ServiceError,
)
from ..service.kernel import ChargingService, ServiceConfig
from ..service.request import ChargingRequest
from .journal import FaultyJournal
from .plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only; shard imports faults
    from ..shard.supervisor import ShardSupervisor

__all__ = ["apply_event", "drive", "drive_with_recovery", "merge_timeline"]

#: One timeline item: ``("submit", t, ChargingRequest)``,
#: ``("fault", t, FaultEvent)`` for a kernel fault, or ``(kind, t,
#: FaultEvent)`` for a :data:`~repro.faults.plan.SUPERVISOR_KINDS` event.
TimelineItem = Tuple[str, float, Any]


def merge_timeline(
    requests: Sequence[ChargingRequest], plan: FaultPlan
) -> List[TimelineItem]:
    """Interleave submissions, kernel faults, and shard chaos, time-sorted.

    At equal times submissions come first (priority 0), then kernel
    faults (1), then supervisor chaos events (2, tagged with their kind);
    then kind, then id — a total, deterministic order.  Journal, worker,
    and recovery faults are not timeline items; they key on seq, task
    index, or recovery attempt, not time.
    """
    items: List[Tuple[Tuple[float, int, str, str], TimelineItem]] = []
    for req in requests:
        key = (float(req.submitted_at), 0, "submit", req.request_id)
        items.append((key, ("submit", float(req.submitted_at), req)))
    for event in plan.kernel_events():
        key = (float(event.t), 1, event.kind, event.target)
        items.append((key, ("fault", float(event.t), event)))
    for event in plan.supervisor_events():
        key = (float(event.t), 2, event.kind, event.target)
        items.append((key, (event.kind, float(event.t), event)))
    items.sort(key=lambda pair: pair[0])
    return [item for _key, item in items]


def apply_event(service: Any, item: TimelineItem) -> None:
    """Apply one submission or kernel fault to *service*.

    A shard chaos item raises :class:`~repro.errors.ConfigurationError`:
    only a :class:`~repro.shard.supervisor.ShardSupervisor` can kill and
    heal a shard, so dropping the item would silently run a different
    plan.
    """
    tag, t, payload = item
    if tag == "submit":
        service.submit(payload)
        return
    event: FaultEvent = payload
    if tag != "fault":
        raise ConfigurationError(
            f"{tag!r} is a shard chaos event; drive it through a "
            "ShardSupervisor (drive(..., supervisor=...))"
        )
    if event.kind == "charger_down":
        service.fail_charger(event.target, at=t)
    elif event.kind == "charger_up":
        service.restore_charger(event.target, at=t)
    elif event.kind == "cancel":
        service.cancel(event.target, at=t, reason=event.reason or "cancelled")
    elif event.kind == "no_show":
        service.cancel(event.target, at=t, reason=event.reason or "no-show")
    else:  # pragma: no cover - merge_timeline filters to kernel kinds
        raise ServiceError(f"not a kernel fault kind: {event.kind!r}")


def drive(
    target: Any,
    requests: Sequence[ChargingRequest],
    plan: Optional[FaultPlan] = None,
    *,
    supervisor: Optional["ShardSupervisor"] = None,
    drain: bool = True,
    advance_to: Optional[float] = None,
) -> Any:
    """Feed *requests* interleaved with *plan* into *target*; returns it.

    *target* is a :class:`~repro.service.kernel.ChargingService` or a
    :class:`~repro.shard.service.ShardedService`.  Without a
    *supervisor* each item goes straight through :func:`apply_event`;
    with one (it must supervise *target*) each item goes through
    :meth:`~repro.shard.supervisor.ShardSupervisor.apply`, which also
    consumes the shard chaos events, and the plan's ``recovery_crash``
    faults are armed against its recovery journals first.  Any shard
    death the run provokes heals in place; the kill and recovery tally
    lands in ``supervisor.stats``.

    ``advance_to`` optionally drives the clock past the last event before
    the drain (the ``ccs-serve --duration`` knob).  Journal/worker faults
    in the plan are ignored here — use :func:`drive_with_recovery`
    (journal) or :class:`~repro.faults.executor.FaultyExecutor` (workers).
    """
    plan = plan if plan is not None else FaultPlan()
    if supervisor is not None:
        if supervisor.service is not target:
            raise ConfigurationError("the supervisor must supervise the driven service")
        supervisor.arm(plan)
    for item in merge_timeline(requests, plan):
        if supervisor is None:
            apply_event(target, item)
        else:
            supervisor.apply(item)

    def call(method: str, *args: Any) -> None:
        if supervisor is None:
            getattr(target, method)(*args)
        else:
            supervisor.call(method, *args)

    if advance_to is not None:
        call("advance", advance_to)
    if drain:
        call("drain")
    return target


def drive_with_recovery(
    journal_path: Union[str, Path],
    chargers: Sequence[Any],
    requests: Sequence[ChargingRequest],
    plan: FaultPlan,
    mobility: Optional[Any] = None,
    scheme: Optional[Any] = None,
    config: Optional[ServiceConfig] = None,
    drain: bool = True,
    advance_to: Optional[float] = None,
) -> Tuple[ChargingService, Dict[str, Any]]:
    """Run the full crash → recover → re-feed loop (module docstring).

    Returns ``(service, stats)`` where *stats* counts the injected
    crashes and successful recoveries and lists the fired journal faults
    as ``(seq, mode)``.

    A fault can fire *during recovery* too: replay re-derives past the
    crash point (the input that was mid-derivation when the daemon died
    is itself in the journal prefix), so a later armed seq can be reached
    while replaying — exactly like a disk that keeps failing while the
    daemon restarts.  Recovery is simply retried; each crash consumes one
    armed fault, so the loop is bounded by the plan.
    """
    fail_at = plan.journal_faults()  # shared; FaultyJournal pops fired entries
    budget = len(fail_at)  # every crash fires (and disarms) exactly one fault
    timeline = merge_timeline(requests, plan)
    journals: List[FaultyJournal] = []
    stats: Dict[str, Any] = {"crashes": 0, "recoveries": 0}

    def factory(path: Union[str, Path]) -> FaultyJournal:
        journal = FaultyJournal(path, truncate=True, sync=False, fail_at=fail_at)
        journals.append(journal)
        return journal

    def crashed() -> None:
        stats["crashes"] += 1
        if stats["crashes"] > budget:
            raise ServiceError(
                f"fault plan still crashing after {budget} armed faults; "
                "a journal fault seq is being re-armed or re-hit"
            )
        journals[-1].close()

    service = ChargingService(
        chargers, mobility=mobility, scheme=scheme, config=config,
        journal=factory(journal_path),
    )
    while True:
        try:
            for item in timeline:
                apply_event(service, item)
            if advance_to is not None:
                service.advance(advance_to)
            if drain:
                service.drain()
            break
        except (InjectedFaultError, JournalWriteError):
            # The "daemon" is dead: abandon its in-memory state entirely
            # and rebuild from the longest valid journal prefix, retrying
            # if the disk fails again mid-replay.
            crashed()
            while True:
                try:
                    service = ChargingService.recover(
                        journal_path, chargers, mobility=mobility,
                        scheme=scheme, config=config, journal_factory=factory,
                    )
                    stats["recoveries"] += 1
                    break
                except (InjectedFaultError, JournalWriteError):
                    crashed()
    stats["journal_faults_fired"] = sorted(
        entry for journal in journals for entry in journal.fired
    )
    stats["journal_faults_unfired"] = sorted(fail_at.items())
    return service, stats
