"""The sharded charging service: N independent kernels, one facade.

:class:`ShardedService` runs one full
:class:`~repro.service.kernel.ChargingService` kernel — its own journal,
logical clock, incremental planner, and metrics registry — per
charger-owning cell of a :class:`~repro.shard.partition.GridPartition`,
behind a :class:`~repro.shard.router.SpatialRouter`.  The facade exposes
the same ``submit`` / ``advance`` / ``drain`` / fault-input API as the
single kernel, so drivers, load generators, and the chaos harness run
unchanged against it.

Degenerate-case guarantee (asserted byte-for-byte by the test suite):
with ``n_shards=1`` the lone kernel receives the same chargers in the
same order and the same input stream as an unsharded ``ChargingService``
would, so its journal bytes, metrics snapshot, and final schedule are
*identical* — sharding at 1 is the unsharded service, which is why
``ccs-serve`` runs every daemon, one shard included, through this facade.

Durability: each shard journals independently under ``journal_dir``
(``shard-0000.jsonl``, …) next to a ``manifest.json`` recording the
partition, and :meth:`ShardedService.recover` rebuilds every kernel from
its own journal — including the router's sticky request→shard assignment,
recovered from the ``submit`` records each journal holds.  Recovering a
*single* shard (:meth:`recover_shard`) leaves the other kernels
untouched; :class:`~repro.shard.supervisor.ShardSupervisor` is its only
caller and the loop that kills, heals, and re-feeds shards.

Semantics that genuinely relax under ``n_shards > 1`` (documented in
docs/SHARDING.md): border devices are only quoted against their candidate
shards' chargers rather than the whole field, and the duplicate-device
admission check applies per shard.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.costsharing import CostSharingScheme
from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    LiveJournalError,
    RecoveryError,
    ServiceError,
    ShardFailedError,
    ShardUnavailableError,
)
from ..geometry import Field
from ..io import POSIX, Storage
from ..mobility import MobilityModel
from ..service.kernel import ChargingService, ServiceConfig
from ..service.metrics import Metrics, merge_snapshots
from ..service.request import ChargingRequest, RequestState
from ..wpt import Charger
from .partition import GridPartition
from .router import SpatialRouter

__all__ = ["ShardedService", "merge_final_schedules", "shard_journal_name"]

#: Manifest format version; bump on layout changes.
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"

#: Resolved journal directories owned by live :class:`ShardedService`
#: objects in this process.  Registered at construction, released by
#: :meth:`ShardedService.close`; construction, fresh or recovered,
#: refuses a registered directory (:class:`~repro.errors.LiveJournalError`)
#: before touching a file — another in-process writer still appends
#: there.  A crashed *process* never deregisters, but its registry died
#: with it, so post-crash recovery is unaffected.
_LIVE_DIRS: Set[str] = set()


def shard_journal_name(shard: int) -> str:
    """Journal file name of shard *shard* inside the journal directory."""
    return f"shard-{shard:04d}.jsonl"


def merge_final_schedules(
    per_shard: Mapping[int, List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Merge per-shard session logs into one deterministic schedule.

    Each session gains a ``"shard"`` key (per-shard ``seq`` values
    collide across shards) and the merge sorts by ``(departed, shard,
    seq)`` — a total order, so the result is byte-stable however the
    shards were driven.
    """
    merged: List[Dict[str, Any]] = []
    for sid in sorted(per_shard):
        for session in per_shard[sid]:
            doc = dict(session)
            doc["shard"] = sid
            merged.append(doc)
    merged.sort(key=lambda s: (s["departed"], s["shard"], s["seq"]))
    return merged


def _manifest_payload(
    partition: GridPartition, owned: Mapping[int, List[Charger]]
) -> Dict[str, Any]:
    """The manifest a service over *partition* with shard chargers *owned*
    publishes, and the one :meth:`ShardedService.recover` requires."""
    return {
        "schema": MANIFEST_SCHEMA,
        "n_shards": partition.n_shards,
        "halo": float(partition.halo),
        "field": {
            "width": float(partition.field.width),
            "height": float(partition.field.height),
        },
        "shards": {
            str(sid): [c.charger_id for c in chargers]
            for sid, chargers in owned.items()
        },
    }


def _field_for(chargers: Sequence[Charger], field: Optional[Field]) -> Field:
    """Default the partition field to a square covering every charger."""
    if field is not None:
        return field
    side = max(
        [1.0]
        + [max(c.position.x, c.position.y) for c in chargers]
    )
    return Field.square(side)


class ShardedService:
    """N charging-service kernels behind a deterministic spatial router."""

    #: Holds the journals, snapshots, manifest and supervision log; a
    #: subclass may move the whole service to another storage.
    storage: Storage = POSIX

    def __init__(
        self,
        chargers: Sequence[Charger],
        n_shards: int,
        field: Optional[Field] = None,
        halo: float = 0.0,
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        config: Optional[ServiceConfig] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        journal_sync: bool = True,
        snapshot_every: Optional[int] = None,
        snapshot_keep: int = 2,
        _recover: bool = False,
    ):
        """Partition *field* (default: a square covering the chargers)
        into *n_shards* cells and start one kernel per charger-owning
        cell.  ``journal_dir``, when given, holds one journal per shard
        plus a partition manifest; ``None`` runs journal-less (``ccs-serve``
        without ``--journal``).  ``snapshot_every`` / ``snapshot_keep`` are
        handed to every kernel (see :class:`~repro.service.kernel.ChargingService`):
        each shard snapshots and compacts its own journal independently.
        """
        if not chargers:
            raise ConfigurationError("a sharded service needs at least one charger")
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        if self.journal_dir is not None and str(self.journal_dir.resolve()) in _LIVE_DIRS:
            raise LiveJournalError(
                f"journal directory {self.journal_dir} is owned by a live "
                "service in this process; close() it first"
            )
        self.n_shards = int(n_shards)
        self.field = _field_for(chargers, field)
        self.partition = GridPartition(self.field, self.n_shards, halo=halo)
        self.mobility = mobility
        self.scheme = scheme
        self.config = config
        self.journal_sync = bool(journal_sync)
        self.snapshot_every = snapshot_every
        self.snapshot_keep = int(snapshot_keep)
        self.shard_chargers: Dict[int, List[Charger]] = (
            self.partition.assign_chargers(chargers)
        )
        self._owner: Dict[str, int] = {
            c.charger_id: sid for sid, owned in self.shard_chargers.items() for c in owned
        }
        self.kernels: Dict[int, ChargingService] = {
            sid: self._open_kernel(sid, _recover, self.storage)
            for sid in sorted(self.shard_chargers)
            if self.shard_chargers[sid]
        }
        # Published last: under a manifest a missing journal is loss.
        if self.journal_dir is not None and not _recover:
            self._write_manifest()
        self.router = SpatialRouter(
            self.partition,
            {sid: kernel.planner for sid, kernel in self.kernels.items()},
        )
        for sid in sorted(self.kernels):
            for rid in self.kernels[sid].requests:
                self.router.assignment[rid] = sid
        #: Request ids rejected while no live shard could take them,
        #: mapped to why (``"sticky"`` / ``"unrouted"``).  Their terminal
        #: answer stays ``rejected`` even after the shard returns —
        #: facade-level bookkeeping, never journaled (these requests
        #: reached no kernel).
        self._unrouted: Dict[str, str] = {}
        #: Facade-level operational metrics (degraded-mode outcomes,
        #: shard failures).  Like the kernels' operational instruments,
        #: these depend on fault history and stay out of
        #: :meth:`metrics_snapshot`; see :meth:`observability_snapshot`.
        self.ops = Metrics()
        for name in (
            "rejected.shard_unavailable",
            "rejected.shard_unavailable.sticky",
            "rejected.shard_unavailable.unrouted",
            "inputs.dropped_shard_down",
            "shard_failures",
        ):
            self.ops.counter(name, operational=True)
        self._closed = False
        if self.journal_dir is not None:
            _LIVE_DIRS.add(str(self.journal_dir.resolve()))

    def _open_kernel(self, sid: int, recover: bool, storage: Storage) -> ChargingService:
        """Start shard *sid*'s kernel over its chargers, journaling on
        *storage*: fresh, or rebuilt from its journal when *recover*."""
        path = (
            self.journal_dir / shard_journal_name(sid)
            if self.journal_dir is not None
            else None
        )
        kwargs: Dict[str, Any] = dict(
            chargers=self.shard_chargers[sid],
            journal_path=path,
            mobility=self.mobility,
            scheme=self.scheme,
            config=self.config,
            storage=storage,
            journal_sync=self.journal_sync,
            snapshot_every=self.snapshot_every,
            snapshot_keep=self.snapshot_keep,
        )
        if recover:
            return ChargingService.recover(**kwargs)
        return ChargingService(**kwargs)

    # ------------------------------------------------------------------ #
    # manifest

    def _write_manifest(self) -> None:
        """Publish the manifest durably (:meth:`~repro.io.Storage.publish`);
        its directory fsync also makes the shard journals' entries durable."""
        assert self.journal_dir is not None
        payload = _manifest_payload(self.partition, self.shard_chargers)
        text = json.dumps(payload, indent=2, sort_keys=True)
        self.storage.publish(self.journal_dir / MANIFEST_NAME, [text.encode() + b"\n"])

    # ------------------------------------------------------------------ #
    # the kernel-compatible input API

    def _call_shard(self, sid: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke one kernel method, converting its death into a typed error.

        A kernel whose journal append fails (``JournalWriteError``) or
        that hits an injected crash (``InjectedFaultError``) is *dead* —
        its in-memory state ran ahead of its journal.  The facade
        surfaces that as :class:`~repro.errors.ShardFailedError` carrying
        the shard id, its logical clock, and the cause, so a
        :class:`~repro.shard.supervisor.ShardSupervisor` can recover
        exactly that kernel and retry the interrupted input.
        """
        kernel = self.kernels[sid]
        try:
            return getattr(kernel, method)(*args, **kwargs)
        except (JournalWriteError, InjectedFaultError) as exc:
            self.ops.counter("shard_failures", operational=True).inc()
            raise ShardFailedError(sid, kernel.clock.now, exc) from exc

    # ccs-lint: ignore[CCS011] -- the degraded-mode rejection record
    # (self._unrouted) is deliberately unjournaled: a rejected-unavailable
    # request reached no kernel, so there is no journal to own it.  The
    # answer is facade-local operational state — lost on whole-service
    # recovery by design, never part of the byte-identical replay contract.
    def submit(self, request: ChargingRequest) -> str:
        """Route and submit one request; returns its resulting state.

        Idempotent like the kernel's ``submit``: a known request id
        re-routes to its sticky shard, whose kernel no-ops.  While no
        live shard can take the request (its shard is down, or every
        candidate is), the answer is a typed ``rejected`` — counted under
        ``rejected.shard_unavailable`` — and that answer is terminal:
        re-submitting after the shard returns still rejects, because the
        original decision must be stable under recovery re-feeds.
        """
        rid = request.request_id
        if rid in self._unrouted:
            return RequestState.REJECTED
        priced: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        try:
            sid = self.router.route(request, priced)
        except ShardUnavailableError:
            reason = (
                "sticky" if self.router.shard_of(rid) is not None else "unrouted"
            )
            self._unrouted[rid] = reason
            self.ops.counter("rejected.shard_unavailable", operational=True).inc()
            self.ops.counter(
                f"rejected.shard_unavailable.{reason}", operational=True
            ).inc()
            return RequestState.REJECTED
        return self._call_shard(sid, "submit", request, priced.get(sid))

    def advance(self, to: float) -> None:
        """Advance every *live* shard's logical clock to *to*, in shard
        order.  Down shards are skipped; recovery advances them when they
        rejoin (their journals carry their own clocks)."""
        for sid in sorted(self.kernels):
            if sid in self.router.down:
                continue
            self._call_shard(sid, "advance", to)

    def drain(self) -> None:
        """Drain every live shard (fold, depart, complete), in shard order."""
        for sid in sorted(self.kernels):
            if sid in self.router.down:
                continue
            self._call_shard(sid, "drain")

    def fail_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        """Charger outage, delivered to the owning shard's kernel.

        Returns ``False`` without delivering when that shard is down
        (see :meth:`_deliver`)."""
        return bool(self._deliver(self._owner_of(charger_id), "fail_charger", charger_id, at=at))

    def restore_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        """Charger recovery, delivered to the owning shard's kernel."""
        return bool(self._deliver(self._owner_of(charger_id), "restore_charger", charger_id, at=at))

    def cancel(
        self,
        request_id: str,
        at: Optional[float] = None,
        reason: str = "cancelled",
    ) -> Optional[str]:
        """Cancel *request_id* wherever it was routed (``None`` if unknown)."""
        sid = self.router.shard_of(request_id)
        if sid is None:
            return None
        return self._deliver(sid, "cancel", request_id, at=at, reason=reason)

    def _deliver(self, sid: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Deliver one fault input to shard *sid*'s kernel.

        While the shard is down there is no kernel to journal the input:
        it is dropped (counted under ``inputs.dropped_shard_down``) and
        the answer is ``None``."""
        if sid in self.router.down:
            self.ops.counter("inputs.dropped_shard_down", operational=True).inc()
            return None
        return self._call_shard(sid, method, *args, **kwargs)

    def _owner_of(self, charger_id: str) -> int:
        try:
            return self._owner[charger_id]
        except KeyError:
            raise ServiceError(f"unknown charger {charger_id!r}") from None

    # ------------------------------------------------------------------ #
    # introspection (kernel-compatible)

    def request_state(self, request_id: str) -> str:
        """Lifecycle state of *request_id* (KeyError when never routed)."""
        if request_id in self._unrouted:
            return RequestState.REJECTED
        sid = self.router.shard_of(request_id)
        if sid is None:
            raise KeyError(request_id)
        return self.kernels[sid].request_state(request_id)

    def counts(self) -> Dict[str, int]:
        """Requests per lifecycle state, summed across shards.

        Requests rejected because no live shard could take them reached
        no kernel; they are counted into ``rejected`` here so the totals
        match what :meth:`submit` answered."""
        total: Dict[str, int] = {}
        for sid in sorted(self.kernels):
            for state, n in self.kernels[sid].counts().items():
                total[state] = total.get(state, 0) + n
        if self._unrouted:
            total[RequestState.REJECTED] = (
                total.get(RequestState.REJECTED, 0) + len(self._unrouted)
            )
        return total

    def final_schedule(self) -> List[Dict[str, Any]]:
        """Departed sessions across all shards, in departure order.

        With one shard this is exactly the kernel's schedule (the
        byte-identity contract).  With several, sessions carry an extra
        ``"shard"`` key (per-shard ``seq`` values collide) and merge
        sorted by ``(departed, shard, seq)`` — a total, deterministic
        order.
        """
        if self.n_shards == 1:
            (kernel,) = self.kernels.values()
            return kernel.final_schedule()
        return merge_final_schedules(
            {sid: kernel.final_schedule() for sid, kernel in self.kernels.items()}
        )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Aggregated metrics: the lone kernel's snapshot at one shard
        (byte-identity), the :func:`~repro.service.metrics.merge_snapshots`
        merge — counters summed, gauges keyed ``shard-NNNN``, histograms
        added bucket-wise — otherwise.
        """
        if self.n_shards == 1:
            (kernel,) = self.kernels.values()
            return kernel.metrics_snapshot()
        return merge_snapshots(
            {
                f"shard-{sid:04d}": self.kernels[sid].metrics_snapshot()
                for sid in sorted(self.kernels)
            }
        )

    def observability_snapshot(self) -> Dict[str, Any]:
        """Everything — deterministic *and* operational — for humans.

        Merges every kernel's full snapshot (including its operational
        recovery/snapshot counters) with the facade's own instruments
        under the ``facade`` label.  Never byte-stable across fault
        histories; use :meth:`metrics_snapshot` for that.
        """
        labeled = {
            f"shard-{sid:04d}": self.kernels[sid].observability_snapshot()
            for sid in sorted(self.kernels)
        }
        labeled["facade"] = self.ops.snapshot(operational=True)
        return merge_snapshots(labeled)

    def close(self) -> None:
        """Close every shard journal and release the journal directory.

        Idempotent: the first call does the work, every later call is a
        no-op — so ``finally: service.close()`` blocks compose and a
        close after :meth:`mark_shard_down` / partial failure is safe.
        """
        if self._closed:
            return
        self._closed = True
        for kernel in self.kernels.values():
            if kernel.journal is not None:
                kernel.journal.close()
        if self.journal_dir is not None:
            _LIVE_DIRS.discard(str(self.journal_dir.resolve()))

    # ------------------------------------------------------------------ #
    # degraded mode

    def mark_shard_down(self, shard: int) -> None:
        """Take *shard* out of routing and clock advancement.

        The supervisor escalates to this after its restart budget; an
        operator can call it directly.  Interior submissions for the
        shard then reject ``shard_unavailable``; border devices route to
        their surviving candidates; the shard's journal and sticky
        assignments are untouched, ready for :meth:`recover_shard`.
        """
        if shard not in self.kernels:
            raise ServiceError(f"no kernel for shard {shard}")
        self.router.mark_down(shard)

    def mark_shard_up(self, shard: int) -> None:
        """Return *shard* to routing (no-op when it was not down)."""
        self.router.mark_up(shard)

    def shards_down(self) -> List[int]:
        """Sorted ids of the shards currently out of service."""
        return sorted(self.router.down)

    # ------------------------------------------------------------------ #
    # durability

    def recover_shard(self, shard: int) -> ChargingService:
        """Abandon shard *shard*'s kernel and rebuild it from its journal.

        The in-memory kernel's journal is closed and
        :meth:`ChargingService.recover` replays the journal into a fresh
        kernel — the other shards are never touched.  A journal whose tail
        was torn recovers to its longest valid prefix, and the caller must
        re-feed the input stream (idempotent) to converge: the
        :class:`~repro.shard.supervisor.ShardSupervisor` loop, which is
        this method's only caller.  Returns the recovered kernel.

        Recovery runs on the dead kernel's journal storage, where faults
        stay armed.  The dead kernel is replaced only when recovery
        *succeeds* — on a crash mid-recovery the facade still maps the
        shard id, so a supervisor can simply retry this call.  A shard
        journal deleted
        under the running service is lost history: the kernel recovery
        raises :class:`~repro.errors.RecoveryError` and creates nothing.
        """
        if self.journal_dir is None:
            raise ServiceError("cannot recover a journal-less shard")
        try:
            kernel = self.kernels[shard]
        except KeyError:
            raise ServiceError(f"no kernel for shard {shard}") from None
        assert kernel.journal is not None
        kernel.journal.close()
        recovered = self._open_kernel(shard, True, kernel.journal.storage)
        self.kernels[shard] = recovered
        self.router.planners[shard] = recovered.planner
        return recovered

    @classmethod
    def recover(
        cls,
        journal_dir: Union[str, Path],
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        config: Optional[ServiceConfig] = None,
        journal_sync: bool = True,
        snapshot_every: Optional[int] = None,
        snapshot_keep: int = 2,
    ) -> "ShardedService":
        """Rebuild a killed sharded service from its journal directory.

        Builds the partition from the manifest's shape (``n_shards``,
        ``field``, ``halo``) and *chargers*, and requires the manifest to
        equal the one construction would publish; then recovers every
        shard kernel from its own journal (the single-kernel
        :meth:`ChargingService.recover`, snapshot fast path included) and
        the router's sticky assignment from their ``submit`` records.
        Construction arguments are code, not data — pass the chargers and
        config the dead service ran with; the manifest and each journal's
        ``open`` header are checked against them.

        A directory still owned by a live service object in this process
        raises :class:`~repro.errors.LiveJournalError` (``close()`` it
        first).  A missing, unparsable, malformed or version-skewed
        manifest, one that does not match *chargers* (a charger added,
        dropped or moved to another cell), a file where the directory
        belongs (a single-file journal), or a missing journal of a shard
        that owns chargers (the manifest is published after every shard
        journal, so that history is lost) raises
        :class:`~repro.errors.RecoveryError` before any replay, touching
        no file.
        """
        journal_dir = Path(journal_dir)
        path = journal_dir / MANIFEST_NAME
        try:
            with cls.storage.read(path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError as exc:
            raise RecoveryError(f"no shard manifest at {path}") from exc
        except NotADirectoryError as exc:
            raise RecoveryError(
                f"{journal_dir} is a file, not a journal directory (one "
                f"holding {MANIFEST_NAME} and a shard-NNNN.jsonl journal "
                "per shard)"
            ) from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RecoveryError(f"shard manifest {path} is corrupt: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
            got = manifest.get("schema") if isinstance(manifest, dict) else manifest
            raise RecoveryError(
                f"unsupported shard manifest schema {got!r} "
                f"(supported: {MANIFEST_SCHEMA})"
            )
        try:
            n_shards = int(manifest["n_shards"])
            field = Field(float(manifest["field"]["width"]), float(manifest["field"]["height"]))
            halo = float(manifest["halo"])
            partition = GridPartition(field, n_shards, halo=halo)
            owned = partition.assign_chargers(chargers)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RecoveryError(
                f"shard manifest {path} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
        expected = _manifest_payload(partition, owned)
        if manifest != expected:
            raise RecoveryError(
                f"shard manifest {path} does not match the given chargers "
                "partitioned over its field; recover with the chargers the "
                "service was created with"
            )
        for sid, ids in expected["shards"].items():
            journal = journal_dir / shard_journal_name(int(sid))
            if ids and not journal.exists():
                raise RecoveryError(
                    f"shard {sid} owns chargers {ids} but its journal "
                    f"{journal} is missing; its history is lost"
                )
        return cls(
            chargers, n_shards, field, halo, mobility=mobility, scheme=scheme,
            config=config, journal_dir=journal_dir, journal_sync=journal_sync,
            snapshot_every=snapshot_every, snapshot_keep=snapshot_keep,
            _recover=True,
        )
