"""The fault model: what breaks, and exactly when.

A :class:`FaultPlan` is an immutable, sorted schedule of
:class:`FaultEvent`\\ s.  Plans are either authored explicitly (tests
pinning one scenario), loaded from JSON (``ccs-serve --fault-plan
plan.json``), or *generated* from a seed
(:meth:`FaultPlan.generate`, ``--fault-plan seed:N``) — generation draws
every coin through :func:`repro.rng.derive_seed` spawn keys, so the same
seed over the same request stream yields the same chaos on every machine,
with no wall-clock or global-RNG dependence (CCS001/CCS002 stay clean).

Event kinds:

======================  ================================================
``charger_down``        charger *target* fails at ``t`` (kernel input)
``charger_up``          charger *target* recovers at ``t`` (kernel input)
``cancel``              request *target* withdraws at ``t`` (kernel input)
``no_show``             request *target* never arrives; cancelled at its
                        own submission time (kernel input)
``journal_write``       the journal append writing record seq *target*
                        fails; ``mode`` picks a clean ``enospc`` error or
                        a ``torn`` mid-record crash
``worker_crash``        executor task index *target* dies (``os._exit``)
                        on its first ``count`` attempts
``shard_kill``          shard *target* (id as str) is killed at ``t`` and
                        immediately recovered from its journal; ``mode``
                        ``"torn"`` first damages the journal tail
``snapshot_corrupt``    shard *target*'s newest state snapshot file is
                        garbled at ``t`` — recovery must detect the
                        checksum failure and fall back (older snapshot,
                        then full replay), never trust it
``crash_in_snapshot``   shard *target* "dies mid-snapshot-write" at
                        ``t``: a half-written ``*.tmp`` sibling is left
                        next to the journal and the shard is killed;
                        recovery must ignore the litter
``recovery_crash``      shard *target*'s *recovery itself* crashes on its
                        first ``count`` attempts (each attempt's first
                        replay-journal write fails, whatever its seq);
                        ``mode`` picks ``enospc``/``torn`` — the
                        supervisor's crash-loop backoff/escalation path
======================  ================================================

Kernel events land at logical-clock times; journal faults key on the
record sequence number (stable across recovery, because recovery is
byte-identical); worker crashes key on the task index; shard chaos
events (:data:`SUPERVISOR_KINDS`) key on the shard id and are consumed,
with ``recovery_crash``, by :class:`repro.shard.supervisor.ShardSupervisor`
under ``repro.faults.drive(..., supervisor=...)``.

:meth:`FaultPlan.generate` draws from *shared* per-kind streams, so the
set of entities present changes every draw — fine for single-kernel
chaos, wrong for shard-stability tests.  :meth:`FaultPlan.generate_keyed`
instead keys each draw by entity id (``derive_seed(seed, "outage", cid)``,
``derive_seed(seed, "cancel", rid)``), making each entity's fate a pure
function of ``(seed, entity)`` — stable under any subsetting, including
spatial sharding.  :meth:`FaultPlan.generate_supervised` does the same
per shard via ``derive_seed(seed, "supervised", shard_id)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..rng import derive_seed, ensure_rng

__all__ = ["FAULT_KINDS", "SUPERVISOR_KINDS", "FaultEvent", "FaultPlan"]

FAULT_KINDS = (
    "charger_down",
    "charger_up",
    "cancel",
    "no_show",
    "journal_write",
    "worker_crash",
    "shard_kill",
    "snapshot_corrupt",
    "crash_in_snapshot",
    "recovery_crash",
)

#: Kinds the shard supervisor consumes as timeline items (``recovery_crash`` is armed per shard instead — it keys on
#: recovery attempts, not on a time).
SUPERVISOR_KINDS = frozenset(
    {"shard_kill", "snapshot_corrupt", "crash_in_snapshot"}
)

#: Kinds the service kernel consumes as input events.
KERNEL_KINDS = frozenset({"charger_down", "charger_up", "cancel", "no_show"})

#: Namespace constants for seed derivation (arbitrary, fixed forever).
_NS_OUTAGE = 101
_NS_CANCEL = 102
_NS_JOURNAL = 103
_NS_WORKER = 104


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (see module docstring for the kinds).

    ``target`` is a charger id, request id, journal record seq (as str),
    or task index (as str) depending on ``kind``.  ``mode`` is only
    meaningful for ``journal_write`` (``"enospc"`` / ``"torn"``);
    ``count`` only for ``worker_crash`` (crashes before succeeding) and
    ``cancel``/``no_show`` carry an optional human ``reason``.
    """

    t: float
    kind: str
    target: str
    mode: Optional[str] = None
    count: int = 1
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ConfigurationError(
                f"fault time must be finite and nonnegative, got {self.t}"
            )
        if self.kind == "journal_write" and self.mode not in ("enospc", "torn"):
            raise ConfigurationError(
                f"journal_write mode must be 'enospc' or 'torn', got {self.mode!r}"
            )
        if self.kind == "shard_kill" and self.mode not in (None, "torn"):
            raise ConfigurationError(
                f"shard_kill mode must be None (clean) or 'torn', got {self.mode!r}"
            )
        if self.kind == "recovery_crash" and self.mode not in (None, "enospc", "torn"):
            raise ConfigurationError(
                f"recovery_crash mode must be None, 'enospc', or 'torn', "
                f"got {self.mode!r}"
            )
        if self.kind in ("snapshot_corrupt", "crash_in_snapshot") and self.mode is not None:
            raise ConfigurationError(
                f"{self.kind} takes no mode, got {self.mode!r}"
            )
        if self.count < 1:
            raise ConfigurationError(f"fault count must be >= 1, got {self.count}")

    def sort_key(self) -> Tuple[float, str, str]:
        return (self.t, self.kind, self.target)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "t": float(self.t),
            "kind": self.kind,
            "target": self.target,
        }
        if self.mode is not None:
            doc["mode"] = self.mode
        if self.count != 1:
            doc["count"] = int(self.count)
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultEvent":
        return cls(
            t=float(doc["t"]),
            kind=doc["kind"],
            target=str(doc["target"]),
            mode=doc.get("mode"),
            count=int(doc.get("count", 1)),
            reason=doc.get("reason"),
        )


class FaultPlan:
    """An immutable, time-sorted schedule of faults."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent.sort_key)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds: Dict[str, int] = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        return f"FaultPlan({len(self.events)} events: {kinds})"

    # ------------------------------------------------------------------ #
    # views by consumer

    def kernel_events(self) -> List[FaultEvent]:
        """Events the service kernel consumes, in time order."""
        return [e for e in self.events if e.kind in KERNEL_KINDS]

    def journal_faults(self) -> Dict[int, str]:
        """``{record seq: mode}`` for :class:`~repro.faults.storage.FaultyStorage`."""
        return {
            int(e.target): str(e.mode)
            for e in self.events
            if e.kind == "journal_write"
        }

    def worker_crashes(self) -> Dict[int, int]:
        """``{task index: crash count}`` for :class:`~repro.faults.executor.FaultyExecutor`."""
        return {
            int(e.target): int(e.count)
            for e in self.events
            if e.kind == "worker_crash"
        }

    def supervisor_events(self) -> List[FaultEvent]:
        """Timeline events the shard supervisor consumes
        (``shard_kill`` / ``snapshot_corrupt`` / ``crash_in_snapshot``),
        in time order."""
        return [e for e in self.events if e.kind in SUPERVISOR_KINDS]

    def recovery_crashes(self) -> Dict[int, List[str]]:
        """``{shard id: [mode, ...]}`` arming per-shard *recovery* crashes.

        A ``recovery_crash`` event with ``count=N`` arms N crashes of that
        shard's recovery (:class:`~repro.faults.storage.FaultyStorage`'s
        ``crashes``): each recovery attempt fails on the first record
        its replay journal writes, whatever that record's seq (a snapshot
        recovery starts at the compacted journal's base seq), consuming
        one armed mode — so the shard's recovery fails N times and then
        succeeds, the crash-loop shape the supervisor's backoff and
        escalation are built against.  Mode defaults to ``"enospc"``.
        """
        armed: Dict[int, List[str]] = {}
        for e in self.events:
            if e.kind == "recovery_crash":
                armed.setdefault(int(e.target), []).extend(
                    [e.mode or "enospc"] * int(e.count)
                )
        return armed

    # ------------------------------------------------------------------ #
    # (de)serialization

    def to_dict(self) -> Dict[str, Any]:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        return cls([FaultEvent.from_dict(e) for e in doc.get("events", [])])

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------ #
    # seeded generation

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        charger_ids: Sequence[str] = (),
        requests: Sequence[Any] = (),
        horizon: Optional[float] = None,
        outage_prob: float = 0.5,
        mean_outage: float = 300.0,
        cancel_prob: float = 0.1,
        no_show_prob: float = 0.05,
        cancel_window: float = 240.0,
        journal_faults: int = 1,
        journal_records: Optional[int] = None,
        n_tasks: int = 0,
        worker_crash_prob: float = 0.3,
        max_worker_crashes: int = 2,
    ) -> "FaultPlan":
        """Draw a random plan, reproducibly, from *seed*.

        *requests* are :class:`~repro.service.request.ChargingRequest`
        objects (only ``request_id`` / ``submitted_at`` are read).  Each
        charger suffers an outage with ``outage_prob``, lasting an
        exponential ``mean_outage`` seconds; each request cancels with
        ``cancel_prob`` (some time into its wait) or never shows with
        ``no_show_prob``.  ``journal_faults`` append failures land on
        record seqs in ``[1, journal_records)`` (estimated from the
        stream when not given), alternating clean/torn modes.  With
        ``n_tasks`` > 0, executor task indices crash with
        ``worker_crash_prob``, up to ``max_worker_crashes`` times each.

        At least one charger is always left standing: a plan that takes
        the whole field down only tests the trivial all-rejected path.
        """
        events: List[FaultEvent] = []
        horizon = _horizon(requests, horizon)

        rng = ensure_rng(derive_seed(int(seed), _NS_OUTAGE))
        downed = 0
        for cid in charger_ids:
            if downed >= max(0, len(charger_ids) - 1):
                break
            outage = _draw_outage(rng, cid, horizon, outage_prob, mean_outage)
            events.extend(outage)
            downed += bool(outage)

        rng = ensure_rng(derive_seed(int(seed), _NS_CANCEL))
        for req in requests:
            events.extend(
                _draw_cancel(rng, req, cancel_prob, no_show_prob, cancel_window)
            )

        if journal_faults > 0:
            if journal_records is None:
                journal_records = 6 * max(1, len(requests)) + 2
            rng = ensure_rng(derive_seed(int(seed), _NS_JOURNAL))
            hi = max(2, int(journal_records))
            seqs = sorted(
                int(s) for s in rng.choice(
                    range(1, hi), size=min(journal_faults, hi - 1), replace=False
                )
            )
            for i, s in enumerate(seqs):
                events.append(
                    FaultEvent(
                        t=0.0,
                        kind="journal_write",
                        target=str(s),
                        mode="enospc" if i % 2 == 0 else "torn",
                    )
                )

        if n_tasks > 0:
            rng = ensure_rng(derive_seed(int(seed), _NS_WORKER))
            for k in range(n_tasks):
                if rng.random() < worker_crash_prob:
                    events.append(
                        FaultEvent(
                            t=0.0,
                            kind="worker_crash",
                            target=str(k),
                            count=int(rng.integers(1, max_worker_crashes + 1)),
                        )
                    )

        return cls(events)

    @classmethod
    def generate_keyed(
        cls,
        seed: int,
        *,
        charger_ids: Sequence[str] = (),
        requests: Sequence[Any] = (),
        horizon: Optional[float] = None,
        outage_prob: float = 0.5,
        mean_outage: float = 300.0,
        cancel_prob: float = 0.1,
        no_show_prob: float = 0.05,
        cancel_window: float = 240.0,
    ) -> "FaultPlan":
        """Draw a plan whose every coin is keyed by the entity it affects.

        Charger *cid*'s outage comes from ``derive_seed(seed, "outage",
        cid)`` and request *rid*'s cancel/no-show from ``derive_seed(seed,
        "cancel", rid)``, so each entity's fate is a pure function of
        ``(seed, entity id)`` — independent of which *other* entities are
        in the lists or in what order.  Restricting the plan to any subset
        of chargers/requests (e.g. those a spatial shard owns) therefore
        yields exactly the faults :meth:`generate_keyed` would have drawn
        for that subset alone; the 2→4 shard-stability regression test is
        built on this.

        The price of per-entity independence is that no cross-entity
        guarantee is possible: unlike :meth:`generate`, nothing stops
        every charger from drawing an outage, so callers pick
        ``outage_prob`` (or the charger layout) to keep the field alive.
        Journal and worker faults are positional, not entity-keyed, and
        deliberately absent here.
        """
        events: List[FaultEvent] = []
        horizon = _horizon(requests, horizon)
        for cid in charger_ids:
            rng = ensure_rng(derive_seed(int(seed), "outage", cid))
            events.extend(_draw_outage(rng, cid, horizon, outage_prob, mean_outage))
        for req in requests:
            rng = ensure_rng(derive_seed(int(seed), "cancel", req.request_id))
            events.extend(
                _draw_cancel(rng, req, cancel_prob, no_show_prob, cancel_window)
            )
        return cls(events)

    @classmethod
    def generate_supervised(
        cls,
        seed: int,
        n_shards: int,
        horizon: float,
        *,
        kill_prob: float = 0.5,
        torn_prob: float = 0.5,
        snapshot_corrupt_prob: float = 0.3,
        snapshot_crash_prob: float = 0.2,
        recovery_crash_prob: float = 0.3,
        max_recovery_crashes: int = 2,
    ) -> "FaultPlan":
        """Draw the self-healing chaos mix, one keyed stream per shard.

        Each shard independently draws a kill (torn or clean), a
        snapshot corruption shortly before it, a
        crash-during-snapshot-write, and up to ``max_recovery_crashes``
        crashes of its recovery replay.  Every coin comes from
        ``derive_seed(seed, "supervised", shard)``, so the plan for shard
        *s* is a pure function of ``(seed, s)`` — stable under any shard
        count.
        """
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ConfigurationError(
                f"horizon must be finite and positive, got {horizon}"
            )
        events: List[FaultEvent] = []
        for sid in range(n_shards):
            rng = ensure_rng(derive_seed(int(seed), "supervised", sid))
            if rng.random() < kill_prob:
                t_kill = float(rng.uniform(horizon * 0.25, horizon))
                events.append(
                    FaultEvent(
                        t=t_kill,
                        kind="shard_kill",
                        target=str(sid),
                        mode="torn" if rng.random() < torn_prob else None,
                    )
                )
                if rng.random() < snapshot_corrupt_prob:
                    events.append(
                        FaultEvent(
                            t=float(rng.uniform(0.0, t_kill)),
                            kind="snapshot_corrupt",
                            target=str(sid),
                        )
                    )
                if rng.random() < recovery_crash_prob:
                    events.append(
                        FaultEvent(
                            t=0.0,
                            kind="recovery_crash",
                            target=str(sid),
                            count=int(rng.integers(1, max_recovery_crashes + 1)),
                            mode="enospc" if rng.random() < 0.5 else "torn",
                        )
                    )
            if rng.random() < snapshot_crash_prob:
                events.append(
                    FaultEvent(
                        t=float(rng.uniform(0.0, horizon)),
                        kind="crash_in_snapshot",
                        target=str(sid),
                    )
                )
        return cls(events)


# ---------------------------------------------------------------------- #
# per-entity draws shared by generate (one stream per kind) and
# generate_keyed (one stream per entity)


def _horizon(requests: Sequence[Any], horizon: Optional[float]) -> float:
    """*horizon*, defaulting to 600 s past the last submission."""
    if horizon is not None:
        return horizon
    return max((float(r.submitted_at) for r in requests), default=0.0) + 600.0


def _draw_outage(
    rng: Any, cid: str, horizon: float, outage_prob: float, mean_outage: float
) -> List[FaultEvent]:
    """Charger *cid*'s outage coin: no events, or a down/up pair."""
    if not rng.random() < outage_prob:
        return []
    t_down = float(rng.uniform(0.0, horizon))
    t_up = t_down + float(rng.exponential(mean_outage))
    return [
        FaultEvent(t=t_down, kind="charger_down", target=cid),
        FaultEvent(t=t_up, kind="charger_up", target=cid),
    ]


def _draw_cancel(
    rng: Any, req: Any, cancel_prob: float, no_show_prob: float, cancel_window: float
) -> List[FaultEvent]:
    """Request *req*'s coin: a cancellation some time into its wait, a
    no-show at submission, or neither (both numbers are always drawn)."""
    u = rng.random()
    delay = float(rng.uniform(0.0, cancel_window))
    rid, t = req.request_id, float(req.submitted_at)
    if u < cancel_prob:
        return [FaultEvent(t=t + delay, kind="cancel", target=rid, reason="cancelled")]
    if u < cancel_prob + no_show_prob:
        return [FaultEvent(t=t, kind="no_show", target=rid, reason="no-show")]
    return []
