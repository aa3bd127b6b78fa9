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
                        first ``count`` attempts (each attempt's tail cut,
                        made before it replays, fails); ``mode`` picks
                        ``enospc``/``torn`` — the supervisor's crash-loop
                        backoff/escalation path
======================  ================================================

Kernel events land at logical-clock times; journal faults key on the
record sequence number (stable across recovery, because recovery is
byte-identical); worker crashes key on the task index; shard chaos
events (:data:`SUPERVISOR_KINDS`) key on the shard id and are consumed,
with ``recovery_crash``, by :class:`repro.shard.supervisor.ShardSupervisor`
under ``repro.faults.drive(..., supervisor=...)``.

:meth:`FaultPlan.generate`, the generator the daemon's drivers use, draws
outages, cancellations, journal faults and worker crashes from *shared*
per-kind streams (the set of entities present changes every draw, fine
for one kernel's chaos) and, with ``n_shards`` > 0, shard *s*'s chaos mix
from ``derive_seed(seed, "supervised", s)``, the same at any shard count.
:meth:`FaultPlan.generate_keyed` keys every draw by entity id
(``derive_seed(seed, "outage", cid)``, ``derive_seed(seed, "cancel",
rid)``), so each entity's fate is a pure function of ``(seed, entity)``,
stable under any subsetting, including spatial sharding.
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

#: The modes each kind admits (kinds not listed take any mode).
_MODES: Dict[str, Tuple[Optional[str], ...]] = {
    "journal_write": ("enospc", "torn"),
    "shard_kill": (None, "torn"),
    "recovery_crash": (None, "enospc", "torn"),
    "snapshot_corrupt": (None,),
    "crash_in_snapshot": (None,),
}

#: Kinds whose target is an index written in decimal: a journal record
#: seq, an executor task index, or a shard id.
_INDEX_KINDS = frozenset({"journal_write", "worker_crash", "recovery_crash"} | SUPERVISOR_KINDS)

#: Namespace constants for seed derivation (arbitrary, fixed forever).
_NS_OUTAGE = 101
_NS_CANCEL = 102
_NS_JOURNAL = 103
_NS_WORKER = 104

#: Generator constants: a cancellation lands up to ``_CANCEL_WINDOW`` s
#: into its request's wait; an executor task crashes with
#: ``_WORKER_CRASH_PROB``, 1 to ``_MAX_WORKER_CRASHES`` times; the rest
#: are the shard chaos mix's coins (:func:`_draw_shard_chaos`).
_CANCEL_WINDOW = 240.0
_WORKER_CRASH_PROB = 0.3
_MAX_WORKER_CRASHES = 2
_KILL_PROB = 0.5
_TORN_PROB = 0.5
_SNAPSHOT_CORRUPT_PROB = 0.3
_SNAPSHOT_CRASH_PROB = 0.2
_RECOVERY_CRASH_PROB = 0.3
_MAX_RECOVERY_CRASHES = 2


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (see module docstring for the kinds).

    ``target`` is a charger id, request id, or, written in decimal, a
    journal record seq, task index or shard id, depending on ``kind``.
    ``mode`` picks how a journal write, shard kill or recovery crash
    fails; ``count`` is how many times a worker or a recovery crashes
    before succeeding, and ``cancel``/``no_show`` carry an optional
    human ``reason``.
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
        modes = _MODES.get(self.kind, (self.mode,))
        if self.mode not in modes:
            raise ConfigurationError(
                f"{self.kind} mode must be one of {modes}, got {self.mode!r}"
            )
        if self.kind in _INDEX_KINDS and not (
            isinstance(self.target, str) and self.target.isascii() and self.target.isdigit()
        ):
            raise ConfigurationError(
                f"{self.kind} target must be a nonnegative decimal integer, got {self.target!r}"
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
        ``crashes``): each recovery attempt fails at the cut of its
        journal's torn tail, which every attempt makes before it replays
        (compacted or not, torn or not), consuming one armed mode — so
        the shard's recovery fails N times and then succeeds, the
        crash-loop shape the supervisor's backoff and escalation are
        built against.  Mode defaults to ``"enospc"``.
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
        """The plan *doc* describes; a malformed document is a
        :class:`~repro.errors.ConfigurationError`."""
        try:
            return cls([FaultEvent.from_dict(e) for e in doc.get("events", [])])
        except ConfigurationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed fault plan: {type(exc).__name__}: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a saved plan; an unreadable file or a malformed document
        is a :class:`~repro.errors.ConfigurationError`."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_dict(doc)

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
        journal_faults: int = 1,
        n_tasks: int = 0,
        n_shards: int = 0,
    ) -> "FaultPlan":
        """Draw a random plan, reproducibly, from *seed*.

        *requests* are :class:`~repro.service.request.ChargingRequest`
        objects (only ``request_id`` / ``submitted_at`` are read).  Each
        charger suffers an outage with ``outage_prob``, lasting an
        exponential ``mean_outage`` seconds; each request cancels with
        ``cancel_prob`` (some time into its wait) or never shows with
        ``no_show_prob``.  ``journal_faults`` append failures land on
        record seqs estimated from the stream's length, alternating
        clean/torn modes.  With ``n_tasks`` > 0, executor task indices
        crash.  With ``n_shards`` > 0, each shard draws the self-healing
        chaos mix (:func:`_draw_shard_chaos`) from its own keyed stream,
        so shard *s*'s chaos is the same at any shard count.

        At least one charger is always left standing: a plan that takes
        the whole field down only tests the trivial all-rejected path.
        """
        if n_shards < 0:
            raise ConfigurationError(f"n_shards must be >= 0, got {n_shards}")
        events: List[FaultEvent] = []
        horizon = _horizon(requests, horizon)
        if n_shards > 0 and not (math.isfinite(horizon) and horizon > 0.0):
            raise ConfigurationError(f"horizon must be finite and positive, got {horizon}")

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
            events.extend(_draw_cancel(rng, req, cancel_prob, no_show_prob))

        if journal_faults > 0:
            rng = ensure_rng(derive_seed(int(seed), _NS_JOURNAL))
            hi = 6 * max(1, len(requests)) + 2  # about the stream's record count
            picks = rng.choice(range(1, hi), size=min(journal_faults, hi - 1), replace=False)
            for i, s in enumerate(sorted(int(s) for s in picks)):
                mode = "enospc" if i % 2 == 0 else "torn"
                events.append(FaultEvent(t=0.0, kind="journal_write", target=str(s), mode=mode))

        rng = ensure_rng(derive_seed(int(seed), _NS_WORKER))
        for k in range(n_tasks):
            if rng.random() < _WORKER_CRASH_PROB:
                count = int(rng.integers(1, _MAX_WORKER_CRASHES + 1))
                events.append(FaultEvent(t=0.0, kind="worker_crash", target=str(k), count=count))

        for sid in range(n_shards):
            rng = ensure_rng(derive_seed(int(seed), "supervised", sid))
            events.extend(_draw_shard_chaos(rng, str(sid), horizon))

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
        Journal, worker and shard faults are positional, not keyed by a
        charger or a request, and deliberately absent here.
        """
        events: List[FaultEvent] = []
        horizon = _horizon(requests, horizon)
        for cid in charger_ids:
            rng = ensure_rng(derive_seed(int(seed), "outage", cid))
            events.extend(_draw_outage(rng, cid, horizon, outage_prob, mean_outage))
        for req in requests:
            rng = ensure_rng(derive_seed(int(seed), "cancel", req.request_id))
            events.extend(_draw_cancel(rng, req, cancel_prob, no_show_prob))
        return cls(events)


# ---------------------------------------------------------------------- #
# per-entity draws shared by generate (one stream per kind, one per
# shard) and generate_keyed (one stream per entity)


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
    rng: Any, req: Any, cancel_prob: float, no_show_prob: float
) -> List[FaultEvent]:
    """Request *req*'s coin: a cancellation some time into its wait, a
    no-show at submission, or neither (both numbers are always drawn)."""
    u = rng.random()
    delay = float(rng.uniform(0.0, _CANCEL_WINDOW))
    rid, t = req.request_id, float(req.submitted_at)
    if u < cancel_prob:
        return [FaultEvent(t=t + delay, kind="cancel", target=rid, reason="cancelled")]
    if u < cancel_prob + no_show_prob:
        return [FaultEvent(t=t, kind="no_show", target=rid, reason="no-show")]
    return []


def _draw_shard_chaos(rng: Any, sid: str, horizon: float) -> List[FaultEvent]:
    """Shard *sid*'s chaos coins: a kill (torn or clean) in the last
    three quarters of the horizon, with a snapshot corruption before it
    and a crash-looping recovery after it, and, independently, a crash
    mid-snapshot-write."""
    events: List[FaultEvent] = []
    if rng.random() < _KILL_PROB:
        t_kill = float(rng.uniform(horizon * 0.25, horizon))
        mode = "torn" if rng.random() < _TORN_PROB else None
        events.append(FaultEvent(t=t_kill, kind="shard_kill", target=sid, mode=mode))
        if rng.random() < _SNAPSHOT_CORRUPT_PROB:
            t = float(rng.uniform(0.0, t_kill))
            events.append(FaultEvent(t=t, kind="snapshot_corrupt", target=sid))
        if rng.random() < _RECOVERY_CRASH_PROB:
            count = int(rng.integers(1, _MAX_RECOVERY_CRASHES + 1))
            mode = "enospc" if rng.random() < 0.5 else "torn"
            events.append(
                FaultEvent(t=0.0, kind="recovery_crash", target=sid, count=count, mode=mode)
            )
    if rng.random() < _SNAPSHOT_CRASH_PROB:
        t = float(rng.uniform(0.0, horizon))
        events.append(FaultEvent(t=t, kind="crash_in_snapshot", target=sid))
    return events
