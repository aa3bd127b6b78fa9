"""The charging-service daemon kernel.

:class:`ChargingService` is a deterministic, event-driven state machine:
customers :meth:`submit` requests, the admission controller answers
immediately, and an epoch-grid event loop folds admitted batches into the
live coalition plan (via the PR-1 incremental engine — never a batch
re-solve), departs sessions once their commitment window elapses, expires
requests that miss their deadlines, and completes sessions when the pads
finish transmitting.

Time is *logical* (:class:`~repro.service.clock.ServiceClock`): the kernel
touches no wall clock and no ambient randomness, so a fixed input stream
always produces byte-identical journals, metrics snapshots, and session
logs — the property the crash-recovery tests assert literally.

Epoch timeline (``epoch`` = fold period, ``window`` = commitment window)::

    t=0        e          2e         3e
    |----------|----------|----------|---->
       submit──┤ fold      │ depart (opened + window elapsed)
               └ admitted requests enter the live plan, improve, repair

At each boundary the order is fixed (and pinned by tests): completions →
departures → expirations → fold.  A deadline exactly on a boundary is
therefore *met* if its session departs at that boundary.

Failure semantics (see docs/FAULTS.md).  Three more input events join
``submit``/``advance``/``drain``:

- :meth:`fail_charger` — the charger goes dark: its coalitions are
  *evacuated* (``EVACUATING``) and at the next boundary each displaced
  request is re-quoted over the surviving chargers against its original
  quote (the price ceiling).  Ceiling holds → re-folded; ceiling broken →
  ``REJECTED`` with reason ``charger_failed``.  No full re-solve either
  way.
- :meth:`restore_charger` — the charger is quotable/placeable again.
- :meth:`cancel` — a customer withdraws (or never shows up).  A queued
  request just leaves; a planned one is removed through the blessed
  coalition paths and its session cost re-shares among the survivors,
  who are repaired back under their own ceilings (evicting them to
  ``EVACUATING`` if a concurrent outage makes that impossible).

Request lifecycle with the failure states::

    SUBMITTED ─> ADMITTED ─> GROUPED ─> CHARGING ─> DONE
        │            │          │  ^
        │            │          │  └──────────────┐
        └> REJECTED  ├> EXPIRED ├> EXPIRED        │ re-fold (ceiling holds)
                     └> CANCELLED > CANCELLED     │
                                 └> EVACUATING ───┤
                                       │          └> (next epoch re-quote)
                                       ├> REJECTED (charger_failed)
                                       └> EXPIRED / CANCELLED

Durability: every transition is appended to a checksummed JSONL journal;
an input is durable when its call returns, and its records share one
fsync.
``submit``/``advance``/``drain``/``charger_down``/``charger_up``/``cancel``
records are the *inputs*; :meth:`recover` replays them through a fresh
kernel, re-deriving everything else, and atomically rewrites the journal
to the canonical form — after which re-feeding the original stream
(idempotent per request id, per fault-event key) converges on the exact
bytes an uninterrupted run would have produced.
"""

from __future__ import annotations

import functools
import heapq
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar, Union,
)

import numpy as np

from ..core import Device
from ..core.costsharing import CostSharingScheme, EgalitarianSharing
from ..errors import ConfigurationError, RecoveryError, ReplayDivergenceError, ServiceError, SnapshotError
from ..geometry import Point
from ..io import POSIX, Storage
from ..mobility import MobilityModel
from ..wpt import Charger
from .admission import REASON_CHARGER_FAILED, AdmissionController
from .clock import ServiceClock
from .journal import INPUT_EVENTS, JOURNAL_SCHEMA, Journal
from .metrics import Metrics
from .plan import IncrementalPlanner
from .request import ChargingRequest, RequestRecord, RequestState
from .snapshot import list_snapshots, load_snapshot, prune_snapshots, remove_snapshots, write_snapshot

__all__ = ["ServiceConfig", "ChargingService"]

#: Fixed histogram buckets (seconds / ratios / sizes) — part of the
#: snapshot contract, so recovery comparisons bin identically.
_LATENCY_BUCKETS = (30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0)
_CHARGE_BUCKETS = (300.0, 600.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0)
_RATIO_BUCKETS = (0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)
_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

_TIME_EPS = 1e-9

_Input = TypeVar("_Input", bound=Callable[..., Any])


def _durable_input(method: _Input) -> _Input:
    """Make one public input one journal fsync barrier.

    Every record the input writes is flushed on its own, and the batch
    fsyncs them together before the call returns — on every return path,
    no-ops included (those wrote nothing and take no fsync).
    """

    @functools.wraps(method)
    def wrapper(self: "ChargingService", *args: Any, **kwargs: Any) -> Any:
        with self.journal.batch() if self.journal is not None else nullcontext():
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the daemon (all logical-time seconds).

    Parameters
    ----------
    epoch:
        Replanning period: admitted requests buffered since the last grid
        point ``k·epoch`` are folded into the plan at the next one.
    window:
        Commitment window: a coalition departs (freezes and starts
        charging) at the first grid point at least *window* after it was
        opened.
    queue_limit:
        Bound on the admitted-but-not-yet-planned queue; submissions
        beyond it are rejected (``queue-full``), never silently buffered.
    max_active:
        Optional cap on devices concurrently queued or in the live plan
        (``capacity`` rejections); ``None`` = unbounded.
    improvement_sweeps / repair_rounds / tol:
        Replanner bounds, passed to
        :class:`~repro.service.plan.IncrementalPlanner`.
    """

    epoch: float = 60.0
    window: float = 120.0
    queue_limit: int = 256
    max_active: Optional[int] = None
    improvement_sweeps: int = 2
    repair_rounds: int = 3
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.epoch <= 0:
            raise ConfigurationError(f"epoch must be positive, got {self.epoch}")
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.max_active is not None and self.max_active < 1:
            raise ConfigurationError(
                f"max_active must be >= 1 or None, got {self.max_active}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form, pinned into the journal's ``open`` record."""
        return {
            "epoch": float(self.epoch),
            "window": float(self.window),
            "queue_limit": int(self.queue_limit),
            "max_active": None if self.max_active is None else int(self.max_active),
            "improvement_sweeps": int(self.improvement_sweeps),
            "repair_rounds": int(self.repair_rounds),
            "tol": float(self.tol),
        }


class ChargingService:
    """A long-lived charging-as-a-service daemon (see module docstring)."""

    def __init__(
        self,
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        config: Optional[ServiceConfig] = None,
        journal_path: Optional[Union[str, Path]] = None,
        storage: Storage = POSIX,
        journal_sync: bool = True,
        snapshot_every: Optional[int] = None,
        snapshot_keep: int = 2,
        compact: bool = True,
    ):
        """``journal_path`` opens a fresh journal there, first deleting
        any snapshots an older history left beside it; ``storage`` holds
        the journal and its snapshots.  ``journal_sync`` turns on the
        journal's fsync: an input is durable when its call returns, and
        its records share one fsync.  It is an
        operational knob, deliberately *not* part of :class:`ServiceConfig`
        (which is pinned into the journal header), so a daemon and its
        recovery can differ on it.  ``snapshot_every`` (operational too,
        same reason) turns on automatic state snapshots roughly every that
        many journal records — taken only at quiescent points, i.e. at the
        end of a public input method; ``snapshot_keep`` bounds how many
        snapshot files survive pruning, and ``compact`` lets a successful
        snapshot truncate the journal prefix the oldest retained snapshot
        covers.
        """
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}"
            )
        if snapshot_keep < 1:
            raise ConfigurationError(
                f"snapshot_keep must be >= 1, got {snapshot_keep}"
            )
        self.config = config if config is not None else ServiceConfig()
        self.scheme: CostSharingScheme = (
            scheme if scheme is not None else EgalitarianSharing()
        )
        self.planner = IncrementalPlanner(
            chargers,
            mobility=mobility,
            scheme=self.scheme,
            tol=self.config.tol,
            improvement_sweeps=self.config.improvement_sweeps,
            repair_rounds=self.config.repair_rounds,
        )
        self.chargers = self.planner.instance.chargers
        self._charger_index = {
            c.charger_id: j for j, c in enumerate(self.chargers)
        }
        self.admission = AdmissionController(
            epoch=self.config.epoch,
            window=self.config.window,
            queue_limit=self.config.queue_limit,
            max_active=self.config.max_active,
        )
        self.clock = ServiceClock()
        self.metrics = Metrics()
        self.requests: Dict[str, RequestRecord] = {}
        self._queue: List[str] = []
        #: Request id -> the admission quote's ``(moving-cost,
        #: singleton-price)`` rows, while the request waits in the queue:
        #: the fold reuses them instead of pricing the device again.  Never
        #: snapshotted — a request still queued after a restore is priced
        #: again at its fold, bit-identically.
        self._queued_rows: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._rid_of_index: Dict[int, str] = {}
        self._opened_at: Dict[int, float] = {}
        self._completions: List[tuple] = []
        self._sessions: List[Dict[str, Any]] = []
        self._session_seq = 0
        self._epoch_index = 0  # boundaries processed so far: epoch * index
        #: Request ids displaced from the plan (charger outage / repair
        #: eviction), awaiting re-quote at the next boundary.
        self._evacuating: List[str] = []
        #: ``(event, target, t)`` keys of fault inputs already applied —
        #: replaying a journaled fault event is a no-op, exactly like
        #: resubmitting a known request id.
        self._fault_keys: Set[Tuple[str, str, float]] = set()
        #: Set when availability shrank since the last fold; queued
        #: requests then get re-validated against their ceilings too.
        self._avail_dirty = False
        #: Device id -> live requests (queued, planned or evacuating) for
        #: it; the duplicate-device admission check.  Derived, so it is
        #: rebuilt on restore rather than snapshotted.
        self._live_devices: Dict[str, int] = {}
        self.journal: Optional[Journal] = None
        if journal_path is not None:
            remove_snapshots(journal_path, storage)
            self.journal = Journal(journal_path, sync=journal_sync, storage=storage)
            self.journal.append("open", 0.0, self._open_payload())
        #: Automatic snapshot cadence (None = off); see :meth:`write_snapshot`.
        self.snapshot_every = snapshot_every
        self.snapshot_keep = int(snapshot_keep)
        self.compact = bool(compact)
        self._last_snapshot_seq = 0
        #: Set during recovery replay: a snapshot taken mid-replay would
        #: compact the very file the replay is being checked against, so
        #: auto-snapshots wait until the replay ends.
        self._snapshots_paused = False
        # Pre-register every metric so empty snapshots are fully shaped.
        for name in (
            "submitted", "admitted", "rejected", "grouped", "expired",
            "completed", "sessions_departed", "cancelled", "evacuated",
            "refolded", "charger_failures", "charger_recoveries",
        ):
            self.metrics.counter(name)
        # Observability-only instruments: fault-history dependent, so they
        # stay out of the deterministic snapshot (see Metrics docstring).
        for name in (
            "journal.recovered_bytes_dropped",
            "journal.compacted_records",
            "snapshots_written",
            "recovery.snapshot_used",
            "recovery.snapshot_fallbacks",
            "recovery.records_replayed",
        ):
            self.metrics.counter(name, operational=True)
        self.metrics.histogram("admission_latency", _LATENCY_BUCKETS)
        self.metrics.histogram("time_to_charge", _CHARGE_BUCKETS)
        self.metrics.histogram("cost_vs_quote", _RATIO_BUCKETS)
        self.metrics.histogram("session_size", _SIZE_BUCKETS)
        self._update_gauges()

    def _open_payload(self) -> Dict[str, Any]:
        return {
            "schema": JOURNAL_SCHEMA,
            "config": self.config.to_dict(),
            "chargers": [c.charger_id for c in self.chargers],
            "scheme": self.scheme.name,
            "mobility": type(self.planner.instance.mobility).__name__,
        }

    def _journal(self, event: str, t: float, data: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event, t, data)

    # ------------------------------------------------------------------ #
    # input events

    @_durable_input
    def submit(self, request: ChargingRequest) -> str:
        """Process one submission; returns the request's resulting state.

        Idempotent per ``request_id``: resubmitting a known id is a no-op
        returning the current state (this is what makes re-feeding an
        event stream after crash recovery safe).
        """
        known = self.requests.get(request.request_id)
        if known is not None:
            return known.state
        self._advance_to(request.submitted_at)
        now = self.clock.now
        self._journal("submit", request.submitted_at, request.to_dict())
        self.metrics.counter("submitted").inc()

        record = RequestRecord(request)
        self.requests[request.request_id] = record
        try:
            rows = self.planner.instance.quote_rows(request.device)
            quote, quote_charger = self.planner.quote(request.device, rows)
        except ServiceError:
            # Every charger is down: nothing can even quote this device.
            record.state = RequestState.REJECTED
            record.reason = REASON_CHARGER_FAILED
            self._journal(
                "reject",
                now,
                {"id": request.request_id, "reason": REASON_CHARGER_FAILED},
            )
            self.metrics.counter("rejected").inc()
            self.metrics.counter(f"rejected.{REASON_CHARGER_FAILED}").inc()
            self._update_gauges()
            self._maybe_snapshot()
            return record.state
        record.quote, record.quote_charger = quote, quote_charger
        duplicate = request.device.device_id in self._live_devices
        decision = self.admission.decide(
            request,
            now=now,
            queue_depth=len(self._queue),
            active_devices=len(self._rid_of_index) + len(self._queue),
            quote=quote,
            duplicate=duplicate,
        )
        if not decision:
            record.state = RequestState.REJECTED
            record.reason = decision.reason
            self._journal(
                "reject", now, {"id": request.request_id, "reason": decision.reason}
            )
            self.metrics.counter("rejected").inc()
            self.metrics.counter(f"rejected.{decision.reason}").inc()
        else:
            record.state = RequestState.ADMITTED
            self._queue.append(request.request_id)
            self._queued_rows[request.request_id] = rows
            self._hold_device(record)
            self._journal(
                "admit",
                now,
                {
                    "id": request.request_id,
                    "quote": float(quote),
                    "charger": self.chargers[quote_charger].charger_id,
                },
            )
            self.metrics.counter("admitted").inc()
        self._update_gauges()
        self._maybe_snapshot()
        return record.state

    @_durable_input
    def advance(self, to: float) -> None:
        """Drive the event loop forward to logical time *to*.

        Time movement is an *input*: the target is journaled (like
        ``submit``/``drain``) so recovery can replay the epoch boundaries
        it triggers.  Targets at or before the current clock are complete
        no-ops — not even journaled — which keeps re-feeding a stream
        after recovery idempotent.
        """
        t = float(to)
        if t <= self.clock.now + _TIME_EPS:
            return
        self._journal("advance", t, {})
        self._advance_to(t)
        self._maybe_snapshot()

    # ------------------------------------------------------------------ #
    # fault inputs (see docs/FAULTS.md)

    @_durable_input
    def fail_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        """Charger outage at logical time *at* (default: now); an input event.

        The charger stops quoting and receiving placements, and every
        coalition bound to it is *evacuated*: its members move to
        ``EVACUATING`` and are re-quoted against their original ceilings
        at the next epoch boundary.  Idempotent per ``(charger, at)`` key
        on the *requested* time (the clamped time depends on how far the
        clock has run, so only the raw time is stable across a recovery
        re-feed); the raw time is journaled in ``data["at"]`` so replay
        reconstructs the same key.  A no-op (not journaled) while the
        charger is already down.  Returns whether the outage was applied.
        """
        j = self._charger_of(charger_id)
        raw = self.clock.now if at is None else float(at)
        t = max(raw, self.clock.now)
        key = ("charger_down", charger_id, raw)
        if key in self._fault_keys or not self.planner.is_available(j):
            return False
        self._advance_to(t)
        self._fault_keys.add(key)
        self._journal("charger_down", t, {"charger": charger_id, "at": raw})
        self.metrics.counter("charger_failures").inc()
        self.planner.fail_charger(j)
        self._avail_dirty = True
        for index in self.planner.evacuate_charger(j):
            self._evacuate(index, t, cause=charger_id)
        self._update_gauges()
        self._maybe_snapshot()
        return True

    @_durable_input
    def restore_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        """Charger recovery at logical time *at*; an input event.

        The charger quotes and receives placements again from the next
        fold on.  Requests rejected during the outage stay rejected
        (terminal states never un-happen).  Idempotent like
        :meth:`fail_charger`; returns whether the recovery was applied.
        """
        j = self._charger_of(charger_id)
        raw = self.clock.now if at is None else float(at)
        t = max(raw, self.clock.now)
        key = ("charger_up", charger_id, raw)
        if key in self._fault_keys or self.planner.is_available(j):
            return False
        self._advance_to(t)
        self._fault_keys.add(key)
        self._journal("charger_up", t, {"charger": charger_id, "at": raw})
        self.metrics.counter("charger_recoveries").inc()
        self.planner.restore_charger(j)
        self._update_gauges()
        self._maybe_snapshot()
        return True

    @_durable_input
    def cancel(
        self,
        request_id: str,
        at: Optional[float] = None,
        reason: str = "cancelled",
    ) -> Optional[str]:
        """Customer withdrawal (or no-show) of *request_id*; an input event.

        Queued and evacuating requests simply leave; a planned request is
        removed from its coalition through the blessed incremental paths,
        the session cost re-shares among the survivors, and they are
        repaired back under their own ceilings.  A request that already
        departed (``CHARGING``) or reached a terminal state is past the
        point of no return — the cancel is ignored (and not journaled).
        Idempotent per ``(request, at)`` key on the *requested* time
        (journaled in ``data["at"]``, like :meth:`fail_charger`).
        Returns the request's resulting state, or ``None`` for an
        unknown id.
        """
        record = self.requests.get(request_id)
        if record is None:
            return None
        raw = self.clock.now if at is None else float(at)
        t = max(raw, self.clock.now)
        key = ("cancel", request_id, raw)
        if key in self._fault_keys:
            return record.state
        if record.state == RequestState.CHARGING or (
            record.state in RequestState.TERMINAL
        ):
            return record.state
        self._advance_to(t)
        self._fault_keys.add(key)
        # Journal the input *before* re-checking: the advance above already
        # journaled the boundary events it derived, and replay must re-feed
        # this cancel to re-derive that same advance.
        self._journal("cancel", t, {"id": request_id, "reason": reason, "at": raw})
        # Boundary processing during the advance may have resolved the
        # request (expired, departed); then the cancel came too late and
        # changes nothing.
        if record.state == RequestState.CHARGING or (
            record.state in RequestState.TERMINAL
        ):
            return record.state
        if record.state == RequestState.ADMITTED:
            self._queue.remove(request_id)
            self._queued_rows.pop(request_id, None)
        elif record.state == RequestState.EVACUATING:
            self._evacuating.remove(request_id)
            if record.device_index is not None:
                self.planner.ceiling.pop(record.device_index, None)
        elif record.state == RequestState.GROUPED:
            index = record.device_index
            assert index is not None
            del self._rid_of_index[index]
            evicted = self.planner.remove(index)
            for other in evicted:
                self._evacuate(other, t, cause="ceiling")
        self._release_device(record)
        record.state = RequestState.CANCELLED
        record.reason = reason
        self.metrics.counter("cancelled").inc()
        self.metrics.counter(f"cancelled.{reason}").inc()
        self._update_gauges()
        self._maybe_snapshot()
        return record.state

    def _charger_of(self, charger_id: str) -> int:
        try:
            return self._charger_index[charger_id]
        except KeyError:
            raise ServiceError(f"unknown charger {charger_id!r}") from None

    def _evacuate(self, index: int, t: float, cause: str) -> None:
        """Move the planned device at *index* to ``EVACUATING``.

        *cause* is the failed charger id, or ``"ceiling"`` when repair
        evicted the device because no available placement met its quote.
        The ceiling is kept for the next boundary's re-quote.
        """
        rid = self._rid_of_index.pop(index)
        record = self.requests[rid]
        record.state = RequestState.EVACUATING
        self._evacuating.append(rid)
        self._journal("evacuate", t, {"id": rid, "cause": cause})
        self.metrics.counter("evacuated").inc()

    def _advance_to(self, to: float) -> None:
        """Advance without journaling (``submit``/``drain`` carry their own
        time; replaying them re-derives the same boundary processing).

        Processes every epoch boundary up to *to* (completions →
        departures → expirations → fold, in that order at each boundary)
        and any session completions due.  Earlier targets are clamped to
        "now" (a no-op): the kernel is lenient at its *input* boundary so
        re-fed streams stay idempotent, while :class:`ServiceClock` itself
        treats a backward move as a hard :class:`~repro.errors.ClockError`.

        Boundaries that can do no observable work are skipped (see
        :meth:`_next_wake`): the cost of an advance is bounded by the
        events it causes, not by how far the clock jumps.
        """
        t = max(float(to), self.clock.now)
        epoch = self.config.epoch
        # The last boundary at or before t, by the grid's own predicate
        # (the float estimate can be off by one either way).
        last = max(self._epoch_index, int((t + _TIME_EPS) // epoch))
        while (last + 1) * epoch <= t + _TIME_EPS:
            last += 1
        while last > self._epoch_index and last * epoch > t + _TIME_EPS:
            last -= 1
        while self._epoch_index < last:
            k = self._next_wake()
            if k is None or k > last:
                break
            self._run_epoch(k * epoch)
            self._epoch_index = k
        self._epoch_index = last
        self._process_completions(t)
        self.clock.advance(t)
        self._update_gauges()

    @_durable_input
    def drain(self) -> None:
        """Flush the service: fold the queue, depart everything, complete.

        An input event (journaled) marking end-of-stream: advances to the
        next epoch boundary so queued requests get planned, force-departs
        every live coalition regardless of window age, and runs all
        resulting sessions to completion.  After ``drain`` every request
        is in a terminal state.

        Draining an already-drained service is a complete no-op (not even
        journaled) — the drain analogue of idempotent ``submit``, so
        re-feeding a recovered daemon its original input stream converges
        on the identical journal.
        """
        if not (
            self._queue or self._rid_of_index or self._completions
            or self._evacuating
        ):
            return
        t0 = self.clock.now
        self._journal("drain", t0, {})
        boundary = (self._epoch_index + 1) * self.config.epoch
        self._advance_to(boundary)
        # A fold can evict freshly displaced requests (charger outage);
        # each needs one more boundary to resolve (re-fold or reject), and
        # an eviction chain is at most two boundaries deep — bounded here
        # only as a belt against a livelocking regression.
        extra = 0
        while self._evacuating or self._queue:
            extra += 1
            if extra > 1000:
                raise ServiceError(
                    f"drain did not converge: {len(self._evacuating)} "
                    f"evacuating / {len(self._queue)} queued after {extra} "
                    "extra epochs"
                )
            boundary = (self._epoch_index + 1) * self.config.epoch
            self._advance_to(boundary)
        for cid in self.planner.live_cids():
            self._depart(cid, boundary)
        while self._completions:
            self._process_completions(self._completions[0][0])
        self.clock.advance(max(self.clock.now, t0, boundary))
        self._update_gauges()
        self._maybe_snapshot()

    # ------------------------------------------------------------------ #
    # the epoch machine

    def _next_wake(self) -> Optional[int]:
        """Index of the next boundary that may do observable work.

        A boundary with nothing queued, evacuating or dirty, no coalition
        born or dead since the last fold, no window elapsing and no
        planned deadline coming due writes no record, touches no
        deterministic metric and changes no state, so it can be skipped.
        Completions need no boundary: the next processed one (or the
        advance's own target) runs them in the same order.  The estimate
        may only wake early, never late — an empty boundary is always
        safe to process.  ``None``: no boundary has work until the next
        input.
        """
        nxt = self._epoch_index + 1
        if self._queue or self._evacuating or self._avail_dirty:
            return nxt
        if set(self._opened_at) != set(self.planner.live_cids()):
            return nxt
        epoch = self.config.epoch
        # A check that fires from logical time x on fires at boundary
        # ~x/epoch; one boundary of slack absorbs every rounding error.
        due = [opened + self.config.window for opened in self._opened_at.values()]
        for rid in self._rid_of_index.values():
            deadline = self.requests[rid].request.deadline
            if deadline is not None:
                due.append(deadline - epoch)
        first = min(due, default=math.inf)
        if not math.isfinite(first):
            return None
        return max(nxt, math.floor(first / epoch) - 1)

    def _run_epoch(self, boundary: float) -> None:
        self._process_completions(boundary)
        self._process_departures(boundary)
        self._process_expirations(boundary)
        self._fold(boundary)
        # Completions can outrun the epoch grid (a drain runs sessions far
        # past the last boundary); catching the grid up must not move the
        # strict clock backwards.
        self.clock.advance(max(boundary, self.clock.now))

    def _process_departures(self, boundary: float) -> None:
        # A coalition can die between boundaries — evacuated by a charger
        # outage, or emptied by cancellations/expiries.  Its window
        # commitment dies with it (cids are never reused, so a stale
        # entry can only ever point at a tombstone).
        live = set(self.planner.live_cids())
        for cid in list(self._opened_at):
            if cid not in live:
                del self._opened_at[cid]
        due = sorted(
            cid
            for cid, opened in self._opened_at.items()
            if boundary - opened >= self.config.window - _TIME_EPS
        )
        for cid in due:
            self._depart(cid, boundary)

    def _depart(self, cid: int, boundary: float) -> None:
        opened = self._opened_at.pop(cid, boundary)
        info = self.planner.retire(cid)
        seq = self._session_seq
        self._session_seq += 1
        charger = self.chargers[info["charger"]]
        completes = boundary + charger.session_duration(info["demands"])
        devices = self.planner.instance.devices
        member_ids = [devices[i].device_id for i in info["members"]]
        request_ids, costs = [], {}
        for i, device_id in zip(info["members"], member_ids):
            rid = self._rid_of_index.pop(i)
            request_ids.append(rid)
            record = self.requests[rid]
            realized = info["shares"][i] + info["moving"][i]
            self._release_device(record)
            record.state = RequestState.CHARGING
            record.departed_at = boundary
            record.session_seq = seq
            record.realized_cost = realized
            costs[device_id] = float(realized)
            if record.quote:
                self.metrics.histogram("cost_vs_quote").observe(realized / record.quote)
        session = {
            "seq": seq,
            "charger": charger.charger_id,
            "members": member_ids,
            "requests": request_ids,
            "price": float(info["price"]),
            "costs": costs,
            "opened": float(opened),
            "departed": float(boundary),
            "completes": float(completes),
        }
        self._sessions.append(session)
        heapq.heappush(self._completions, (completes, seq))
        self._journal("depart", boundary, session)
        self.metrics.counter("sessions_departed").inc()
        self.metrics.histogram("session_size").observe(len(member_ids))

    def _process_expirations(self, boundary: float) -> None:
        still_queued: List[str] = []
        for rid in self._queue:
            record = self.requests[rid]
            deadline = record.request.deadline
            if deadline is not None and deadline <= boundary + _TIME_EPS:
                self._queued_rows.pop(rid, None)
                self._expire(record, boundary, where="queue")
            else:
                still_queued.append(rid)
        self._queue = still_queued
        # Planned requests are checked *forward*: departures for this
        # boundary have already run, so the next chance to depart is
        # ``boundary + epoch`` — a member whose deadline falls before that
        # is doomed and expires now (a deadline exactly on a boundary can
        # still be met by departing at that boundary, which happens first).
        horizon = boundary + self.config.epoch - _TIME_EPS
        for index in self.planner.active_indices():
            if index not in self._rid_of_index:
                # Evicted by a repair cascade earlier in this sweep.
                continue
            rid = self._rid_of_index[index]
            record = self.requests[rid]
            deadline = record.request.deadline
            if deadline is not None and deadline < horizon:
                del self._rid_of_index[index]
                evicted = self.planner.remove(index)
                self._expire(record, boundary, where="plan")
                for other in evicted:
                    self._evacuate(other, boundary, cause="ceiling")
        # Evacuated requests wait for the fold below; one that cannot make
        # any future departure is doomed just like a planned one.
        still_evacuating: List[str] = []
        for rid in self._evacuating:
            record = self.requests[rid]
            deadline = record.request.deadline
            if deadline is not None and deadline < horizon:
                if record.device_index is not None:
                    self.planner.ceiling.pop(record.device_index, None)
                self._expire(record, boundary, where="evacuating")
            else:
                still_evacuating.append(rid)
        self._evacuating = still_evacuating

    def _expire(self, record: RequestRecord, boundary: float, where: str) -> None:
        self._release_device(record)
        record.state = RequestState.EXPIRED
        record.reason = where
        self._journal(
            "expire", boundary, {"id": record.request.request_id, "where": where}
        )
        self.metrics.counter("expired").inc()
        self.metrics.counter(f"expired.{where}").inc()

    def _requote_holds(
        self,
        record: RequestRecord,
        rows: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> bool:
        """Does a fresh quote still fit under the request's original one?

        The original quote is the binding price ceiling; a re-quote never
        replaces it.  *rows* are the device's already-priced rows (only
        availability changed since), or ``None`` to price it again.  False
        when no available charger can quote at all.
        """
        if record.quote is None:
            return False
        try:
            quote, _ = self.planner.quote(record.request.device, rows)
        except ServiceError:
            return False
        return quote <= record.quote + self.planner.tol

    def _reject_charger_failed(self, record: RequestRecord, t: float) -> None:
        """Terminal rejection of an admitted request after an outage."""
        if record.device_index is not None:
            self.planner.ceiling.pop(record.device_index, None)
        self._release_device(record)
        record.state = RequestState.REJECTED
        record.reason = REASON_CHARGER_FAILED
        self._journal(
            "reject", t,
            {"id": record.request.request_id, "reason": REASON_CHARGER_FAILED},
        )
        self.metrics.counter("rejected").inc()
        self.metrics.counter(f"rejected.{REASON_CHARGER_FAILED}").inc()

    def _fold(self, boundary: float) -> None:
        evacuees, self._evacuating = self._evacuating, []
        queued, self._queue = self._queue, []
        queued_rows, self._queued_rows = self._queued_rows, {}
        #: ``(rid, refold)`` — evacuated requests keep their device index
        #: and ceiling; fresh ones enter the plan instance here.
        batch: List[Tuple[str, bool]] = []
        for rid in evacuees:
            record = self.requests[rid]
            assert record.device_index is not None
            rows = self.planner.instance.device_rows(record.device_index)
            if self._requote_holds(record, rows):
                batch.append((rid, True))
            else:
                self._reject_charger_failed(record, boundary)
        check_queue = self._avail_dirty
        self._avail_dirty = False
        for rid in queued:
            record = self.requests[rid]
            # Queued quotes only need re-validation when availability
            # shrank since they were issued; recoveries can only make
            # quotes cheaper.
            if check_queue and not self._requote_holds(record, queued_rows.get(rid)):
                self._reject_charger_failed(record, boundary)
            else:
                batch.append((rid, False))
        if batch:
            indices: List[int] = []
            for rid, refold in batch:
                record = self.requests[rid]
                if refold:
                    index = record.device_index
                    assert index is not None
                else:
                    index = self.planner.add(
                        record.request.device,
                        ceiling=record.quote,
                        rows=queued_rows.get(rid),
                    )
                    record.device_index = index
                self._rid_of_index[index] = rid
                indices.append(index)
            _placements, evicted = self.planner.fold(indices)
            for other in evicted:
                self._evacuate(other, boundary, cause="ceiling")
            for rid, refold in batch:
                record = self.requests[rid]
                if not self.planner.structure.is_placed(record.device_index):
                    continue  # evicted again by this very fold's repair
                coalition = self.planner.structure.coalition_of(record.device_index)
                record.state = RequestState.GROUPED
                record.grouped_at = boundary
                self._journal(
                    "plan",
                    boundary,
                    {
                        "id": rid,
                        "charger": self.chargers[coalition.charger].charger_id,
                    },
                )
                if refold:
                    self.metrics.counter("refolded").inc()
                else:
                    self.metrics.counter("grouped").inc()
                    self.metrics.histogram("admission_latency").observe(
                        boundary - record.request.submitted_at
                    )
        # Coalitions born this epoch (fresh folds, or singletons split off
        # by improvement/repair moves) start their commitment window now.
        live = set(self.planner.live_cids())
        for cid in list(self._opened_at):
            if cid not in live:
                del self._opened_at[cid]
        for cid in sorted(live):
            if cid not in self._opened_at:
                self._opened_at[cid] = boundary

    def _process_completions(self, t: float) -> None:
        while self._completions and self._completions[0][0] <= t + _TIME_EPS:
            completes, seq = heapq.heappop(self._completions)
            session = self._sessions[seq]
            self._journal("complete", completes, {"session": seq})
            for rid in session["requests"]:
                record = self.requests[rid]
                record.state = RequestState.DONE
                record.completed_at = completes
                self.metrics.counter("completed").inc()
                self.metrics.histogram("time_to_charge").observe(
                    completes - record.request.submitted_at
                )
            self.clock.advance(max(completes, self.clock.now))

    # ------------------------------------------------------------------ #
    # introspection

    def _hold_device(self, record: RequestRecord) -> None:
        """*record* became live (admitted): its device is in service."""
        device_id = record.request.device.device_id
        self._live_devices[device_id] = self._live_devices.get(device_id, 0) + 1

    def _release_device(self, record: RequestRecord) -> None:
        """*record* left the live states (departed, or went terminal)."""
        device_id = record.request.device.device_id
        left = self._live_devices[device_id] - 1
        if left:
            self._live_devices[device_id] = left
        else:
            del self._live_devices[device_id]

    def _update_gauges(self) -> None:
        self.metrics.gauge("queue_depth").set(len(self._queue))
        self.metrics.gauge("active_devices").set(len(self._rid_of_index))
        self.metrics.gauge("live_coalitions").set(self.planner.structure.n_coalitions)
        self.metrics.gauge("charging_sessions").set(len(self._completions))
        self.metrics.gauge("evacuating").set(len(self._evacuating))
        self.metrics.gauge("chargers_available").set(
            len(self.planner.available_chargers())
        )
        self.metrics.gauge("clock").set(self.clock.now)

    def request_state(self, request_id: str) -> str:
        """Current lifecycle state of *request_id*."""
        return self.requests[request_id].state

    def counts(self) -> Dict[str, int]:
        """Requests per lifecycle state (from the records — ground truth).

        At any instant each request is in exactly one state, so
        ``submitted total == sum of every bucket`` — the conservation law
        the property tests check against the metrics counters.
        """
        buckets = {
            RequestState.ADMITTED: 0,
            RequestState.GROUPED: 0,
            RequestState.EVACUATING: 0,
            RequestState.CHARGING: 0,
            RequestState.DONE: 0,
            RequestState.REJECTED: 0,
            RequestState.EXPIRED: 0,
            RequestState.CANCELLED: 0,
        }
        for record in self.requests.values():
            buckets[record.state] += 1
        return buckets

    def final_schedule(self) -> List[Dict[str, Any]]:
        """Departed sessions in departure order — the service's output.

        Plain JSON data; byte-identical across reruns and recovery for a
        fixed input stream.
        """
        return [dict(session) for session in self._sessions]

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-dict snapshot of every metric."""
        return self.metrics.snapshot()

    def observability_snapshot(self) -> Dict[str, Any]:
        """Every metric *including* the operational (fault-history) ones.

        For human-facing reports only — two byte-identical runs can differ
        here (one crashed and recovered, the other did not).
        """
        return self.metrics.snapshot(operational=True)

    # ------------------------------------------------------------------ #
    # state snapshots (see docs/RECOVERY.md)

    def state(self) -> Dict[str, Any]:
        """The kernel's exact deterministic state as plain JSON data.

        Everything replay would reconstruct, captured directly —
        including history-accumulated floats like the structure's running
        total cost, which must be restored bit-exactly because switch
        decisions compare against it (JSON round-trips finite floats
        exactly, so storing them is safe).  Operational metrics are
        excluded; they describe fault history, not kernel state.  Only
        meaningful at a quiescent point (between input events).
        """
        st = self.planner.structure
        inst = self.planner.instance
        return {
            "open": self._open_payload(),
            "clock": self.clock.now,
            "epoch_index": self._epoch_index,
            "session_seq": self._session_seq,
            "avail_dirty": self._avail_dirty,
            "queue": list(self._queue),
            "evacuating": list(self._evacuating),
            "completions": [list(pair) for pair in sorted(self._completions)],
            "sessions": [dict(s) for s in self._sessions],
            "opened_at": [[cid, t] for cid, t in sorted(self._opened_at.items())],
            "rid_of_index": [
                [i, rid] for i, rid in sorted(self._rid_of_index.items())
            ],
            "fault_keys": sorted(list(key) for key in self._fault_keys),
            "requests": [
                {
                    "request": record.request.to_dict(),
                    "state": record.state,
                    "quote": record.quote,
                    "quote_charger": record.quote_charger,
                    "reason": record.reason,
                    "device_index": record.device_index,
                    "grouped_at": record.grouped_at,
                    "departed_at": record.departed_at,
                    "completed_at": record.completed_at,
                    "session_seq": record.session_seq,
                    "realized_cost": record.realized_cost,
                }
                for record in self.requests.values()
            ],
            "planner": {
                "devices": [
                    {
                        "id": d.device_id,
                        "x": float(d.position.x),
                        "y": float(d.position.y),
                        "demand": float(d.demand),
                        "moving_rate": float(d.moving_rate),
                        "speed": float(d.speed),
                    }
                    for d in inst.devices
                ],
                "up": list(inst._up),
                "ceiling": [
                    [i, c] for i, c in sorted(self.planner.ceiling.items())
                ],
                "ops": dict(self.planner.ops),
                "coalitions": [
                    [cid, st._coalitions[cid].charger,
                     sorted(st._coalitions[cid].members)]
                    for cid in sorted(st._coalitions)
                ],
                "next_cid": st._next_cid,
                "total_cost": st._total_cost,
                "version": st._version,
            },
            "metrics": self.metrics.state(),
        }

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Overwrite this (freshly constructed) kernel from a :meth:`state`.

        Derived structures — matrix rows, coalition aggregates, Zobrist
        hashes — are *recomputed* through the same deterministic paths the
        live run used (the plan's pricing, ``_create``); only irreducible
        history is copied verbatim, with the structure's accumulated
        ``_total_cost`` overwritten last because ``+=``/``-=`` history
        makes it bit-different from a fresh recomputation.  Every device
        is priced at once, as one matrix (``PlanInstance.add_devices``).
        """
        planner_state = state["planner"]
        inst = self.planner.instance
        st = self.planner.structure
        devices = [
            Device(
                device_id=dev["id"],
                position=Point(float(dev["x"]), float(dev["y"])),
                demand=float(dev["demand"]),
                moving_rate=float(dev["moving_rate"]),
                speed=float(dev["speed"]),
            )
            for dev in planner_state["devices"]
        ]
        for index in inst.add_devices(devices):
            st.register_device(index)
        for j, up in enumerate(planner_state["up"]):
            inst.set_available(j, bool(up))
        for cid, charger, members in planner_state["coalitions"]:
            st._next_cid = int(cid)
            st._create(int(charger), set(int(i) for i in members))
        st._next_cid = int(planner_state["next_cid"])
        st._total_cost = float(planner_state["total_cost"])
        st._version = int(planner_state["version"])
        self.planner.ceiling = {
            int(i): float(c) for i, c in planner_state["ceiling"]
        }
        self.planner.ops = {k: int(v) for k, v in planner_state["ops"].items()}
        self.clock = ServiceClock(float(state["clock"]))
        self._epoch_index = int(state["epoch_index"])
        self._session_seq = int(state["session_seq"])
        self._avail_dirty = bool(state["avail_dirty"])
        self._queue = [str(rid) for rid in state["queue"]]
        self._evacuating = [str(rid) for rid in state["evacuating"]]
        self._completions = [
            (float(completes), int(seq)) for completes, seq in state["completions"]
        ]
        heapq.heapify(self._completions)
        self._sessions = [dict(s) for s in state["sessions"]]
        self._opened_at = {int(cid): float(t) for cid, t in state["opened_at"]}
        self._rid_of_index = {int(i): str(rid) for i, rid in state["rid_of_index"]}
        self._fault_keys = {
            (str(event), str(target), float(t))
            for event, target, t in state["fault_keys"]
        }
        self.requests = {}
        for entry in state["requests"]:
            record = RequestRecord(ChargingRequest.from_dict(entry["request"]))
            record.state = entry["state"]
            record.quote = entry["quote"]
            record.quote_charger = entry["quote_charger"]
            record.reason = entry["reason"]
            record.device_index = entry["device_index"]
            record.grouped_at = entry["grouped_at"]
            record.departed_at = entry["departed_at"]
            record.completed_at = entry["completed_at"]
            record.session_seq = entry["session_seq"]
            record.realized_cost = entry["realized_cost"]
            self.requests[record.request.request_id] = record
        self._live_devices = {}
        for rid in (
            self._queue + self._evacuating + list(self._rid_of_index.values())
        ):
            self._hold_device(self.requests[rid])
        self.metrics.restore(state["metrics"])
        self._update_gauges()

    # ccs-lint: ignore[CCS011] -- deliberately unjournaled: a snapshot is an
    # *observation* of kernel state, not an input; `_last_snapshot_seq` only
    # paces the next observation, and recovery rebuilds deterministic state
    # without it (byte-identity is asserted by the recovery tests).
    def write_snapshot(self) -> Path:
        """Persist the current state, prune old snapshots, maybe compact.

        Pins the snapshot to the journal's next append seq (``state ==
        replay of records < seq``), keeps the newest :attr:`snapshot_keep`
        snapshot files, and — when :attr:`compact` — truncates the journal
        prefix the *oldest surviving* snapshot covers, so every retained
        snapshot still has its replay suffix on disk.  Compaction needs at
        least *two* surviving snapshots: the truncated journal's base is
        only replayable from a snapshot, so there must be a second one to
        fall back to when the newest turns out corrupt — one bad snapshot
        must never cost the whole journal (with ``snapshot_keep=1`` the
        journal is simply never compacted).  Pure observability from the
        determinism contract's point of view: nothing here is journaled,
        and the deterministic state is untouched.
        """
        if self.journal is None:
            raise ServiceError("snapshots need a journal to pin against")
        # The records a snapshot covers reach the disk before it does, so
        # a durable snapshot never pins a seq the journal may lose.
        self.journal.barrier()
        seq = self.journal.seq
        storage = self.journal.storage
        path = write_snapshot(self.journal.path, seq, self.state(), storage)
        self._last_snapshot_seq = seq
        self.metrics.counter("snapshots_written", operational=True).inc()
        prune_snapshots(self.journal.path, self.snapshot_keep, storage)
        if self.compact:
            remaining = list_snapshots(self.journal.path, storage)
            if len(remaining) >= 2:
                oldest = min(s for s, _p in remaining)
                dropped = self.journal.truncate_prefix(oldest)
                if dropped:
                    self.metrics.counter(
                        "journal.compacted_records", operational=True
                    ).inc(dropped)
        return path

    def _maybe_snapshot(self) -> None:
        """Auto-snapshot at a quiescent point when the cadence is due."""
        if (
            self.snapshot_every is None
            or self.journal is None
            or self._snapshots_paused
        ):
            return
        if self.journal.seq - self._last_snapshot_seq >= self.snapshot_every:
            self.write_snapshot()

    # ------------------------------------------------------------------ #
    # durability

    def _replay(self, record: Dict[str, Any]) -> None:
        """Re-feed one journaled input record."""
        event = record["event"]
        if event == "submit":
            self.submit(ChargingRequest.from_dict(record["data"]))
        elif event == "advance":
            self.advance(record["t"])
        elif event == "charger_down":
            data = record["data"]
            self.fail_charger(data["charger"], at=data.get("at", record["t"]))
        elif event == "charger_up":
            data = record["data"]
            self.restore_charger(data["charger"], at=data.get("at", record["t"]))
        elif event == "cancel":
            data = record["data"]
            self.cancel(
                data["id"],
                at=data.get("at", record["t"]),
                reason=data.get("reason", "cancelled"),
            )
        else:
            self.drain()

    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        config: Optional[ServiceConfig] = None,
        journal_sync: bool = True,
        storage: Storage = POSIX,
        snapshot_every: Optional[int] = None,
        snapshot_keep: int = 2,
        compact: bool = True,
    ) -> "ChargingService":
        """Rebuild a killed daemon from its journal, exactly.

        Reads the longest valid record prefix (a torn tail from ``kill
        -9`` is dropped and surfaced via the operational
        ``journal.recovered_bytes_dropped`` counter), then takes the
        cheapest sound path back:

        1. **Snapshot fast path** — the newest valid snapshot whose seq
           falls inside the surviving prefix restores the kernel state
           directly, and only the *suffix* inputs are replayed.  Recovery
           cost is O(events since that snapshot).
        2. **Fallback chain** — a snapshot that fails its checksum,
           schema, or range check is skipped (never trusted, never
           repaired) and the next older one is tried.
        3. **Full replay** — with no usable snapshot, every input record
           replays through a fresh kernel, exactly as before snapshots
           existed.  If the journal was *compacted* (its first record's
           seq is past 0) this rung is gone, and a typed
           :class:`~repro.errors.RecoveryError` says so.

        A *journal_path* that does not exist raises
        :class:`~repro.errors.RecoveryError` before anything is created:
        an opened service always has a journal, so a missing one means
        its history is lost, never an empty service.

        Whichever path runs, the journal is recovered in place
        (:meth:`~repro.service.journal.Journal.replay`): a disagreement
        with the disk raises :class:`~repro.errors.ReplayDivergenceError`,
        and the returned service is byte-equivalent (journal, metrics
        snapshot, session log) to one that processed the same inputs
        without interruption.  A failed attempt closes its journal.

        Construction arguments are code, not data: pass the same chargers
        and configuration the dead daemon ran with.  The journal's
        ``open`` header (or the snapshot's embedded copy) is checked
        against them and a :class:`~repro.errors.ServiceError` is raised
        on mismatch.

        The recovered journal keeps *storage*, so faults armed on a
        wrapping storage stay armed across a recovery.
        """
        if not Path(journal_path).exists():
            raise RecoveryError(
                f"no journal at {journal_path}: there is no history to "
                "recover (a fresh service starts with ChargingService(...))"
            )
        read = Journal.read(journal_path, storage)
        records = read.records
        end = read.base_seq + len(records)

        chosen: Optional[Tuple[int, Dict[str, Any]]] = None
        fallbacks = 0
        for sseq, spath in list_snapshots(journal_path, storage):
            if sseq > end or sseq < read.base_seq:
                # Ahead of the surviving prefix (its suffix records are
                # lost for good) or behind the compaction point (its
                # suffix is incomplete): unusable regardless of integrity.
                continue
            try:
                _seq, sstate = load_snapshot(spath, storage)
            except SnapshotError:
                fallbacks += 1
                continue
            chosen = (sseq, sstate)
            break
        if chosen is None and read.base_seq > 0:
            raise RecoveryError(
                f"journal {journal_path} was compacted to seq "
                f"{read.base_seq} and no usable snapshot covers the gap; "
                "full replay is impossible"
            )

        service = cls(
            chargers,
            mobility=mobility,
            scheme=scheme,
            config=config,
            snapshot_every=snapshot_every,
            snapshot_keep=snapshot_keep,
            compact=compact,
        )
        ours = service._open_payload()
        if chosen is not None:
            what, theirs = "snapshot", chosen[1].get("open")
        elif records and records[0]["event"] == "open":
            what, theirs = "journal", records[0]["data"]
        else:
            what, theirs = "journal", ours
        if theirs != ours:
            raise ServiceError(
                f"{what} was written by a differently configured "
                f"service: {theirs} != {ours}"
            )
        start = chosen[0] if chosen is not None else 0
        replay = [r for r in records if r["event"] in INPUT_EVENTS and r["seq"] >= start]
        journal = Journal(journal_path, truncate=False, sync=journal_sync, storage=storage)
        service.journal = journal
        service._snapshots_paused = True
        try:
            journal.seed(read.lines, read.base_seq)
            with journal.replay(start):
                if chosen is None:
                    journal.append("open", 0.0, ours)
                else:
                    service._restore_state(chosen[1])
                    service.metrics.counter(
                        "recovery.snapshot_used", operational=True
                    ).inc()
                for record in replay:
                    service._replay(record)
                # Records past the replay are the boundaries an input
                # journals before its own record, which was lost: they
                # lie after the replayed clock and are cut with the tail.
                for r in records[journal.seq - read.base_seq:]:
                    if r["t"] <= service.clock.now:
                        raise ReplayDivergenceError(
                            f"journal {journal_path}: record seq={r['seq']} lies "
                            f"past the replay, not after its clock"
                        )
        except BaseException:
            journal.close()
            raise
        service._snapshots_paused = False
        service._last_snapshot_seq = start
        if read.dropped_bytes:
            service.metrics.counter(
                "journal.recovered_bytes_dropped", operational=True
            ).inc(read.dropped_bytes)
        if fallbacks:
            service.metrics.counter(
                "recovery.snapshot_fallbacks", operational=True
            ).inc(fallbacks)
        service.metrics.counter(
            "recovery.records_replayed", operational=True
        ).inc(len(replay))
        return service
