"""Sharded replay over the PR 2 executor: one task per shard.

Because routing is a pure function of the merged input timeline (see
:mod:`repro.shard.router`), a whole run can be *partitioned up front*:
:func:`partition_timeline` replays only the routing decisions — cheap
per-shard quote planners, no kernels — and emits each shard's private
input timeline as plain JSON items.  Each shard is then one
``"repro.shard.tasks:shard_replay"`` :class:`~repro.experiments.exec.task.Task`
— a deterministic, fingerprintable unit that rebuilds the shard's kernel
from its serialized chargers and replays its items — so
:func:`replay_sharded` can fan the shards out over any executor.  Serial
and parallel execution produce byte-identical results (the executor
equivalence the PR 2 tests pin), and the same holds against the live
:class:`~repro.shard.service.ShardedService` facade: the facade *is* the
interleaved execution of these per-shard timelines.

The kind is module-qualified so spawned workers resolve it by importing
this module (the :func:`~repro.experiments.exec.task.execute_task`
convention).  Replay tasks support the default mobility model and
cost-sharing scheme only — those are code, not JSON, and the task
boundary ships data.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.exec.executors import Executor, resolve_executor
from ..experiments.exec.task import Task, task_kind
from ..faults.driver import apply_event, merge_timeline
from ..faults.plan import FaultEvent, FaultPlan
from ..geometry import Field
from ..io import charger_from_dict, charger_to_dict
from ..service.kernel import ChargingService, ServiceConfig
from ..service.metrics import merge_snapshots
from ..service.plan import IncrementalPlanner
from ..service.request import ChargingRequest
from ..wpt import Charger
from .partition import GridPartition
from .router import SpatialRouter
from .service import merge_final_schedules

__all__ = ["SHARD_REPLAY_KIND", "partition_timeline", "replay_sharded"]

SHARD_REPLAY_KIND = "repro.shard.tasks:shard_replay"


def partition_timeline(
    chargers: Sequence[Charger],
    requests: Sequence[ChargingRequest],
    partition: GridPartition,
    plan: Optional[FaultPlan] = None,
) -> Tuple[Dict[int, List[Dict[str, Any]]], Dict[str, int]]:
    """Split one merged input timeline into per-shard JSON timelines.

    Replays the routing decisions exactly as the live facade makes them:
    submissions route through a :class:`SpatialRouter` over per-shard
    quote planners, charger outages/recoveries flip those planners'
    availability (so border quotes see the same availability history),
    and cancels/no-shows follow their request's sticky assignment.
    Returns ``(per-shard items, assignment)``; items are
    ``{"op": "submit"|"fault", "t": ..., "request"|"event": {...}}``.
    """
    owned = partition.assign_chargers(chargers)
    planners = {
        sid: IncrementalPlanner(cs) for sid, cs in owned.items() if cs
    }
    index_of = {
        sid: {c.charger_id: j for j, c in enumerate(owned[sid])}
        for sid in planners
    }
    owner = {c.charger_id: sid for sid in planners for c in owned[sid]}
    router = SpatialRouter(partition, planners)
    per_shard: Dict[int, List[Dict[str, Any]]] = {sid: [] for sid in planners}
    for tag, t, payload in merge_timeline(
        requests, plan if plan is not None else FaultPlan()
    ):
        if tag not in ("submit", "fault"):
            # Shard chaos: a healed kill converges to the fault-free run,
            # so the replay of a chaos plan is the replay without it.
            continue
        if tag == "submit":
            sid = router.route(payload)
            per_shard[sid].append(
                {"op": "submit", "t": float(t), "request": payload.to_dict()}
            )
            continue
        event: FaultEvent = payload
        if event.kind in ("charger_down", "charger_up"):
            sid = owner[event.target]
            planner = planners[sid]
            j = index_of[sid][event.target]
            if event.kind == "charger_down":
                planner.fail_charger(j)
            else:
                planner.restore_charger(j)
        else:  # cancel / no_show follow the request's sticky assignment
            maybe = router.shard_of(event.target)
            if maybe is None:
                continue  # unknown request id: a no-op on any kernel
            sid = maybe
        per_shard[sid].append(
            {"op": "fault", "t": float(t), "event": event.to_dict()}
        )
    return per_shard, dict(router.assignment)


@task_kind(SHARD_REPLAY_KIND)
def _shard_replay(params: Mapping[str, Any], seed: int, trial: int) -> Any:
    """Replay one shard's timeline through a fresh kernel (worker-safe).

    ``params``: ``chargers`` (serialized), ``items`` (the shard's
    timeline), optional ``config`` (``ServiceConfig.to_dict`` form),
    ``advance_to``, ``drain`` (default true), and ``journal_path`` — when
    given the kernel journals there (no fsync; replay wants speed, the
    bytes are returned for identity checks).  Returns plain JSON:
    ``counts``, ``schedule``, ``metrics``, and the journal text or
    ``None``.
    """
    chargers = [charger_from_dict(c) for c in params["chargers"]]
    config = (
        ServiceConfig(**params["config"]) if params.get("config") is not None else None
    )
    journal_path = params.get("journal_path")
    service = ChargingService(
        chargers,
        config=config,
        journal_path=journal_path,
        journal_sync=False,
    )
    for item in params["items"]:
        if item["op"] == "submit":
            payload: Any = ChargingRequest.from_dict(item["request"])
        else:
            payload = FaultEvent.from_dict(item["event"])
        apply_event(service, (item["op"], float(item["t"]), payload))
    if params.get("advance_to") is not None:
        service.advance(float(params["advance_to"]))
    if params.get("drain", True):
        service.drain()
    journal_text: Optional[str] = None
    if journal_path is not None and service.journal is not None:
        service.journal.close()
        with open(journal_path, "r", encoding="utf-8") as fh:
            journal_text = fh.read()
    return {
        "counts": service.counts(),
        "schedule": service.final_schedule(),
        "metrics": service.metrics_snapshot(),
        "journal": journal_text,
    }


def replay_sharded(
    chargers: Sequence[Charger],
    requests: Sequence[ChargingRequest],
    n_shards: int,
    field: Field,
    halo: float = 0.0,
    plan: Optional[FaultPlan] = None,
    config: Optional[ServiceConfig] = None,
    executor: Optional[Executor] = None,
    workdir: Optional[str] = None,
    advance_to: Optional[float] = None,
    drain: bool = True,
    seed: int = 0,
) -> Dict[str, Any]:
    """Partition, fan out one replay task per shard, merge the results.

    *executor* defaults to the ambient one
    (:func:`~repro.experiments.exec.executors.resolve_executor`);
    *workdir*, when given, makes each shard journal to
    ``<workdir>/shard-NNNN.jsonl`` and returns the journal text per
    shard.  The merged views use the same rules as the live facade:
    counts sum, schedules merge by ``(departed, shard, seq)``, metrics
    merge via :func:`~repro.service.metrics.merge_snapshots`.
    """
    partition = GridPartition(field, n_shards, halo=halo)
    per_shard, assignment = partition_timeline(
        chargers, requests, partition, plan=plan
    )
    owned = partition.assign_chargers(chargers)
    sids = sorted(per_shard)
    tasks = []
    for sid in sids:
        params: Dict[str, Any] = {
            "chargers": [charger_to_dict(c) for c in owned[sid]],
            "items": per_shard[sid],
            "config": None if config is None else config.to_dict(),
            "advance_to": advance_to,
            "drain": drain,
        }
        if workdir is not None:
            params["journal_path"] = f"{workdir}/shard-{sid:04d}.jsonl"
        tasks.append(Task(kind=SHARD_REPLAY_KIND, params=params, seed=seed, trial=sid))
    results = resolve_executor(executor).run(tasks)
    shards = dict(zip(sids, results))
    counts: Dict[str, int] = {}
    for sid in sids:
        for state, n in shards[sid]["counts"].items():
            counts[state] = counts.get(state, 0) + n
    return {
        "shards": shards,
        "assignment": assignment,
        "counts": counts,
        "schedule": merge_final_schedules(
            {sid: shards[sid]["schedule"] for sid in sids}
        ),
        "metrics": merge_snapshots(
            {f"shard-{sid:04d}": shards[sid]["metrics"] for sid in sids}
        ),
    }
