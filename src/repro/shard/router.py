"""Deterministic spatial routing of requests to shard kernels.

The router decides, for each submission, which shard's
:class:`~repro.service.kernel.ChargingService` kernel serves it:

- an **interior** device (one candidate shard, see
  :meth:`~repro.shard.partition.GridPartition.candidate_shards`) goes to
  its owner shard with *no quoting at all* — its route depends only on
  the partition, never on charger availability or what other requests
  exist, which is what keeps interior outcomes stable when the shard
  count changes (the 2→4 regression test);
- a **border** device is quoted against each candidate shard's planner
  (:meth:`~repro.service.plan.IncrementalPlanner.quote` — the best
  *available* singleton, a pure function of the device and the shard's
  charger availability) and admitted to the cheapest, ties broken toward
  the lower shard id.

Routing is therefore a pure function of ``(request, partition, per-shard
charger availability)`` plus the *sticky assignment*: once a request id
is routed, every later event for it (cancel, idempotent re-submit after
a recovery re-feed) goes to the same shard, recorded in
:attr:`SpatialRouter.assignment` and rebuilt from the shard journals on
recovery.  Byte-identical replay follows: feed the same inputs in the
same order and every route decision recurs exactly.

**Degraded mode.**  A shard marked down (:meth:`SpatialRouter.mark_down`
— supervisor escalation, or an operator) is excluded from routing: a
border device is quoted only against its surviving candidates, and a
request whose *every* candidate is down — or whose sticky shard is down
— raises :class:`~repro.errors.ShardUnavailableError` for the facade to
turn into a typed ``rejected.shard_unavailable`` outcome.  Stickiness is
never broken by an outage: a request already assigned to the down shard
is *not* silently re-routed elsewhere, because its state lives in that
shard's journal and nowhere else.  The down set is explicit input, not
discovered state, so routing stays a pure function of ``(request,
partition, availability, down set)`` and replay stays byte-identical.

The router quotes through each shard's ``planner`` — an
:class:`~repro.service.plan.IncrementalPlanner`, whose ``quote(device,
rows)`` raises :class:`~repro.errors.ServiceError` when no charger is
available.  It prices a border device once per live candidate
(``planner.instance.quote_rows``) and can hand the chosen shard's rows
back to the caller (:meth:`SpatialRouter.route`'s *priced*), so that
shard's kernel admits the device without pricing it again.  The live
facade passes its kernels' planners (so availability stays in one
place); the offline timeline partitioner passes standalone planners.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..errors import ServiceError, ShardUnavailableError
from ..service.request import ChargingRequest
from .partition import GridPartition

__all__ = ["SpatialRouter"]


class SpatialRouter:
    """Route requests over a :class:`GridPartition` (module docstring)."""

    def __init__(
        self,
        partition: GridPartition,
        planners: Mapping[int, object],
    ):
        """*planners* maps shard id → quoting planner; only shards that
        own at least one charger appear (an empty shard cannot serve)."""
        if not planners:
            raise ServiceError("a router needs at least one non-empty shard")
        self.partition = partition
        self.planners: Dict[int, object] = dict(planners)
        #: Sticky request → shard map (the routing history).
        self.assignment: Dict[str, int] = {}
        #: Shards currently out of service (degraded mode); explicit
        #: input via :meth:`mark_down` / :meth:`mark_up`, never inferred.
        self.down: Set[int] = set()

    def shards(self) -> List[int]:
        """Sorted ids of the routable (charger-owning) shards."""
        return sorted(self.planners)

    def mark_down(self, shard: int) -> None:
        """Take *shard* out of routing (it must exist to be down)."""
        if shard not in self.planners:
            raise ServiceError(f"cannot mark unknown shard {shard} down")
        self.down.add(shard)

    def mark_up(self, shard: int) -> None:
        """Return *shard* to routing (a no-op if it was not down)."""
        self.down.discard(shard)

    def candidates(self, request: ChargingRequest) -> List[int]:
        """Routable candidate shards for *request*, sorted.

        The partition's candidates filtered to shards that own chargers;
        when none of them do (the device's whole neighborhood is empty
        cells), every routable shard is a candidate — the unsharded
        service would consider the whole field too.
        """
        cands = [
            s
            for s in self.partition.candidate_shards(request.device.position)
            if s in self.planners
        ]
        return cands if cands else self.shards()

    def route(
        self,
        request: ChargingRequest,
        priced: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> int:
        """The shard serving *request*; records the sticky assignment.

        A border device is admitted to the candidate with the cheapest
        quote (ties → lower shard id).  Candidates whose every charger is
        down cannot quote and are skipped; if *no* candidate can quote,
        the request routes to the lowest candidate so that kernel rejects
        it with ``charger_failed`` — the same terminal answer the
        unsharded service gives when nothing can quote.

        When *priced* is given, the device's quote rows
        (``PlanInstance.quote_rows``) are stored in it by shard id for
        every candidate the router priced; an interior or already routed
        request prices nothing and leaves it empty.

        Degraded mode: shards in :attr:`down` are excluded before any
        quoting; when nothing live survives — or the sticky shard is down
        — :class:`~repro.errors.ShardUnavailableError` is raised and *no*
        assignment is recorded (the request may route normally once the
        shard is back).
        """
        known = self.assignment.get(request.request_id)
        if known is not None:
            if known in self.down:
                raise ShardUnavailableError(request.request_id, [known])
            return known
        cands = self.candidates(request)
        live = [s for s in cands if s not in self.down]
        if not live:
            raise ShardUnavailableError(request.request_id, cands)
        if len(live) == 1:
            sid = live[0]
        else:
            best: Optional[tuple] = None
            for s in live:
                planner = self.planners[s]
                rows = planner.instance.quote_rows(request.device)  # type: ignore[attr-defined]
                if priced is not None:
                    priced[s] = rows
                try:
                    quote, _ = planner.quote(request.device, rows)  # type: ignore[attr-defined]
                except ServiceError:
                    continue
                key = (float(quote), s)
                if best is None or key < best:
                    best = key
            sid = best[1] if best is not None else live[0]
        self.assignment[request.request_id] = sid
        return sid

    def shard_of(self, request_id: str) -> Optional[int]:
        """Where *request_id* was routed, or ``None`` if never seen."""
        return self.assignment.get(request_id)
