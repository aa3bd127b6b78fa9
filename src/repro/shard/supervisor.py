"""Self-healing shard supervision: detect, back off, recover, re-feed.

:class:`ShardSupervisor` sits between a driver and a
:class:`~repro.shard.service.ShardedService` and turns shard kernel
deaths into recoveries instead of exceptions.  The loop, per failure:

1. **Detect** — the facade raises
   :class:`~repro.errors.ShardFailedError` when a kernel's journal
   append fails or an injected crash fires (:meth:`ShardedService._call_shard`);
   an exogenous ``kill -9`` is delivered through :meth:`kill_shard`.
2. **Back off** — before each restart attempt the supervisor charges a
   *logical* backoff (exponential in the attempt, jittered from
   ``derive_seed(seed, "backoff", shard, attempt)``).  Nothing sleeps:
   the service clock is input-driven (CCS002), so backoff is pure
   bookkeeping — journaled, summed in :attr:`stats`, asserted
   deterministic by the tests.
3. **Recover** — :meth:`ShardedService.recover_shard` (the supervisor
   is its only caller) rebuilds exactly the dead kernel from its journal
   (snapshot fast path included).  A crash *during* recovery counts as a
   failed attempt and the loop retries, up to ``max_restarts``.
4. **Escalate** — past the restart budget the shard is marked down
   (:meth:`ShardedService.mark_shard_down`): the router degrades around
   it and the supervisor stops fighting.  :meth:`reset_shard` is the
   operator's way back.
5. **Re-feed** — after a successful recovery the supervisor replays its
   input history through the facade.  Every kernel input is idempotent,
   so the re-feed no-ops through surviving state and regenerates exactly
   what a torn journal tail lost.

Every step appends a record to the **supervision journal**
(``supervisor.jsonl`` next to the shard journals, same checksummed
format): failures, restart attempts with their backoff, recoveries,
escalations.  Because backoff is seed-derived and every decision is a
pure function of ``(seed, failure sequence)``, re-running the same
timeline against the same fault plan reproduces the supervision journal
byte-for-byte — the supervise→recover→re-feed loop is itself replayable.

The supervisor is also the chaos harness's only crash loop:
``drive(service, requests, plan, supervisor=supervisor)``
(:func:`repro.faults.driver.drive`) arms the plan's ``journal_write`` and
``recovery_crash`` faults (:meth:`arm`) and feeds every timeline item
through :meth:`apply`, which turns ``shard_kill`` / ``snapshot_corrupt`` /
``crash_in_snapshot`` items into kills and on-disk damage — converging
byte-identical to a fault-free run with zero operator calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    ServiceError,
    ShardFailedError,
)
from ..faults.driver import TimelineItem, apply_event
from ..faults.plan import SUPERVISOR_KINDS, FaultEvent, FaultPlan
from ..faults.storage import FaultyStorage, corrupt_newest_snapshot, litter_snapshot_tmp, tear_tail
from ..rng import derive_seed, ensure_rng
from ..service.journal import Journal
from .service import ShardedService, shard_journal_name

__all__ = ["SUPERVISOR_JOURNAL_NAME", "ShardSupervisor"]

#: The supervision journal's file name inside the journal directory.
SUPERVISOR_JOURNAL_NAME = "supervisor.jsonl"

#: Exceptions that mean "this recovery attempt crashed; retry" — anything
#: else (config mismatch, unrecoverable corruption) propagates to the
#: operator, because retrying cannot fix it.
_RETRYABLE = (JournalWriteError, InjectedFaultError)


class ShardSupervisor:
    """Automatic failover for one :class:`ShardedService` (module docstring)."""

    def __init__(
        self,
        service: ShardedService,
        seed: int = 0,
        max_restarts: int = 3,
        backoff_base: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 60.0,
        journal_sync: bool = False,
    ) -> None:
        """``journal_sync`` is the supervision journal's fsync knob."""
        if max_restarts < 1:
            raise ConfigurationError(
                f"max_restarts must be >= 1, got {max_restarts}"
            )
        if backoff_base <= 0.0 or backoff_factor < 1.0 or backoff_cap <= 0.0:
            raise ConfigurationError(
                "backoff needs base > 0, factor >= 1, cap > 0; got "
                f"base={backoff_base}, factor={backoff_factor}, cap={backoff_cap}"
            )
        self.service = service
        self.seed = int(seed)
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap = float(backoff_cap)
        #: ``recovery_crash`` modes :meth:`arm` put on each shard's
        #: storage, consumed in place (one per recovery attempt).
        self.recovery_crashes: Dict[int, List[str]] = {}
        #: Timeline items successfully applied, in order — the re-feed
        #: source after a recovery.
        self.history: List[TimelineItem] = []
        self.stats: Dict[str, Any] = {
            "failures": 0,
            "restarts": 0,
            "recoveries": 0,
            "escalations": 0,
            "refeeds": 0,
            "total_backoff": 0.0,
            "kills": 0,
            "torn_kills": 0,
            "skipped_kills": 0,
            "snapshot_corruptions": 0,
            "snapshot_crashes": 0,
        }
        self._refeeding = False
        self.journal: Optional[Journal] = None
        if service.journal_dir is not None:
            self.journal = Journal(
                service.journal_dir / SUPERVISOR_JOURNAL_NAME,
                sync=journal_sync,
                storage=service.storage,
            )

    # ------------------------------------------------------------------ #
    # the supervision loop

    def backoff(self, shard: int, attempt: int) -> float:
        """Logical backoff before restart *attempt* (1-based) of *shard*.

        Exponential ``base * factor**(attempt-1)`` capped at ``cap``,
        jittered into ``[0.5, 1.5)`` of itself by a generator keyed
        ``derive_seed(seed, "backoff", shard, attempt)`` — a pure
        function of its arguments, so two runs (or a run and its replay)
        charge identical backoffs.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt is 1-based, got {attempt}")
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        rng = ensure_rng(derive_seed(self.seed, "backoff", int(shard), int(attempt)))
        return float(base * (0.5 + rng.random()))

    def handle_failure(self, exc: ShardFailedError) -> bool:
        """Recover the failed shard; returns ``True`` on success.

        Runs the restart loop — backoff, recover, retry on a crash
        during recovery — and either brings the shard back (re-feeding
        the processed history) or escalates after ``max_restarts``
        attempts: the shard is marked down and ``False`` returned, with
        the facade degrading around it.
        """
        sid = exc.shard
        self.stats["failures"] += 1
        self._log("shard_failed", exc.at, {
            "shard": sid, "cause": type(exc.cause).__name__,
        })
        for attempt in range(1, self.max_restarts + 1):
            pause = self.backoff(sid, attempt)
            self.stats["total_backoff"] += pause
            self.stats["restarts"] += 1
            self._log("restart", exc.at, {
                "shard": sid, "attempt": attempt, "backoff": pause,
            })
            try:
                self.service.recover_shard(sid)
            except _RETRYABLE as retry_exc:
                self._log("restart_failed", exc.at, {
                    "shard": sid,
                    "attempt": attempt,
                    "cause": type(retry_exc).__name__,
                })
                continue
            self.service.mark_shard_up(sid)
            self.stats["recoveries"] += 1
            self._log("recovered", exc.at, {"shard": sid, "attempt": attempt})
            if not self._refeeding:
                self.refeed()
            return True
        self.stats["escalations"] += 1
        self._log("escalated", exc.at, {
            "shard": sid, "attempts": self.max_restarts,
        })
        self.service.mark_shard_down(sid)
        return False

    def kill_shard(self, shard: int, torn: bool = False) -> bool:
        """An exogenous ``kill -9`` of one shard, healed through the loop.

        Closes the kernel's journal (the "crash" — nothing more lands),
        optionally tears its tail, then runs :meth:`handle_failure` as if
        the facade had detected the death.  Returns whether the shard
        came back (``False`` = escalated).
        """
        try:
            kernel = self.service.kernels[shard]
        except KeyError:
            raise ServiceError(f"no kernel for shard {shard}") from None
        at = kernel.clock.now
        if kernel.journal is not None:
            kernel.journal.close()
            if torn:
                tear_tail(self.service.storage, kernel.journal.path)
        return self.handle_failure(
            ShardFailedError(shard, at, InjectedFaultError("shard killed"))
        )

    def reset_shard(self, shard: int) -> bool:
        """Operator reset of an escalated shard: one fresh restart budget.

        Re-runs the supervision loop for *shard* (which :meth:`handle_failure`
        escalated and marked down).  On success the shard rejoins routing
        and the history is re-fed; on another exhausted budget it stays
        down and ``False`` returns.
        """
        kernel = self.service.kernels.get(shard)
        at = kernel.clock.now if kernel is not None else 0.0
        self._log("reset", at, {"shard": shard})
        return self.handle_failure(
            ShardFailedError(shard, at, ServiceError("operator reset"))
        )

    # ------------------------------------------------------------------ #
    # driving

    def apply(self, item: TimelineItem) -> None:
        """Apply one timeline item, healing any shard death it provokes.

        The item is retried after each recovery — inputs are idempotent,
        and after an *escalation* the retry terminates through the
        degraded paths (rejected ``shard_unavailable``, skipped clock
        advance) instead of failing again.  Shard chaos items
        (:data:`~repro.faults.plan.SUPERVISOR_KINDS`) go to
        :meth:`_inject` instead and never join the re-feed history.
        """
        if item[0] in SUPERVISOR_KINDS:
            self._inject(item[0], item[2])
            return
        self._healed(apply_event, self.service, item)
        self.history.append(item)

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a facade method (``advance``, ``drain``, …) supervised."""
        return self._healed(getattr(self.service, method), *args, **kwargs)

    def refeed(self) -> None:
        """Re-apply the processed history through the facade (idempotent).

        Regenerates whatever journal records a torn tail lost; everything
        still journaled no-ops.  A shard death *during* the re-feed runs
        the restart loop again but not a nested re-feed — the outer pass
        already covers the remaining history.
        """
        self.stats["refeeds"] += 1
        self._refeeding = True
        try:
            for item in self.history:
                self._healed(apply_event, self.service, item)
        finally:
            self._refeeding = False

    def _healed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call *fn*, recovering and retrying after each shard death."""
        while True:
            try:
                return fn(*args, **kwargs)
            except ShardFailedError as exc:
                self.handle_failure(exc)

    # ------------------------------------------------------------------ #
    # chaos

    def arm(self, plan: FaultPlan) -> None:
        """Arm *plan*'s journal-keyed faults: the crash → recover → re-feed loop.

        Both kinds go on the shard's journal storage, wrapped from then on
        in a :class:`~repro.faults.storage.FaultyStorage` that the live
        journal and every recovery of the shard write through.
        ``recovery_crash`` faults crash each recovery attempt at its tail
        cut until :attr:`recovery_crashes` for that shard is used up.
        A plan without one kind leaves that kind's armed faults as they
        are.

        Raises :class:`~repro.errors.ConfigurationError` for
        ``journal_write`` faults on a facade with more than one kernel
        (kill shards with ``shard_kill`` instead) or without journals, at
        seqs already written, or on a shard also armed with
        ``recovery_crash``.
        """
        crashes = plan.recovery_crashes()
        fail_at = plan.journal_faults()
        if fail_at:
            ((sid, kernel), *others) = self.service.kernels.items()
            if others:
                raise ConfigurationError(
                    "journal_write faults are per-kernel; a facade with "
                    f"{len(self.service.kernels)} kernels takes shard_kill "
                    "events instead"
                )
            if kernel.journal is None:
                raise ConfigurationError("journal_write faults need a journal")
            if sid in crashes:
                raise ConfigurationError(
                    f"shard {sid} is armed with both journal_write and "
                    "recovery_crash faults"
                )
            written = sorted(seq for seq in fail_at if seq < kernel.journal.seq)
            if written:
                raise ConfigurationError(
                    f"journal_write faults at seqs {written} target records "
                    "already written"
                )
            self._faulty(sid).fail_at = fail_at
        for sid, modes in crashes.items():
            self.recovery_crashes[sid] = modes
            if self.service.journal_dir is not None and sid in self.service.kernels:
                self._faulty(sid).crashes = modes

    def _inject(self, kind: str, event: FaultEvent) -> None:
        """Land one shard chaos event: damage the shard's files, then kill.

        ``snapshot_corrupt`` garbles the newest snapshot (no kill);
        ``crash_in_snapshot`` strands a half-written snapshot tmp, then
        kills cleanly; ``shard_kill`` kills, tearing the journal tail
        when ``mode="torn"``.  Events against a shard with no kernel, or
        a service with no journals, are counted as skipped — the
        partition decides which shards exist, not the plan.
        """
        sid = int(event.target)
        if sid not in self.service.kernels or self.service.journal_dir is None:
            self.stats["skipped_kills"] += 1
            return
        storage = self.service.storage
        journal_path = self.service.journal_dir / shard_journal_name(sid)
        if kind == "snapshot_corrupt":
            if corrupt_newest_snapshot(storage, journal_path):
                self.stats["snapshot_corruptions"] += 1
            return
        if kind == "crash_in_snapshot":
            litter_snapshot_tmp(
                storage, journal_path, self.service.kernels[sid].journal.seq  # type: ignore[union-attr]
            )
            self.stats["snapshot_crashes"] += 1
        torn = event.mode == "torn"
        self.kill_shard(sid, torn=torn)
        self.stats["kills"] += 1
        if torn:
            self.stats["torn_kills"] += 1

    # ------------------------------------------------------------------ #
    # plumbing

    def _faulty(self, shard: int) -> FaultyStorage:
        """*shard*'s journal storage, wrapped for fault injection once."""
        journal = self.service.kernels[shard].journal
        assert journal is not None
        if not isinstance(journal.storage, FaultyStorage):
            journal.storage = FaultyStorage(journal.storage)
        return journal.storage

    def _log(self, event: str, t: float, data: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event, t, data)

    def close(self) -> None:
        """Close the supervision journal (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
