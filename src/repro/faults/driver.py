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

The crash → recover → re-feed loop is the supervisor's: journal write
faults armed by :meth:`~repro.shard.supervisor.ShardSupervisor.arm` kill
the shard mid-input, and the supervisor rebuilds it from the longest
valid journal prefix and re-feeds its history — every kernel input is
idempotent (known request ids, applied fault keys), so the re-feed no-ops
through everything already journaled and continues from the crash point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ServiceError
from ..service.request import ChargingRequest
from .plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only; shard imports faults
    from ..shard.supervisor import ShardSupervisor

__all__ = ["apply_event", "drive", "merge_timeline"]

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
    consumes the shard chaos events, and the plan's ``journal_write`` and
    ``recovery_crash`` faults are armed first
    (:meth:`~repro.shard.supervisor.ShardSupervisor.arm`).  Any shard
    death the run provokes heals in place; the kill and recovery tally
    lands in ``supervisor.stats``.

    ``advance_to`` optionally drives the clock past the last event before
    the drain (the ``ccs-serve --duration`` knob).  Without a supervisor
    the plan's journal faults are ignored; worker faults always are — use
    :class:`~repro.faults.executor.FaultyExecutor` for those.
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
