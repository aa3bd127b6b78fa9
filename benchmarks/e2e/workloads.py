"""Workloads of the deployed-daemon benchmark and the inputs they feed.

Every workload runs 16 chargers on a 4x4 grid over a 400 m x 400 m field
with the default :class:`~repro.service.kernel.ServiceConfig`; requests
come from :func:`~repro.service.loadgen.generate_keyed_requests` seeded
with the benchmark's ``--seed``.  Why each workload exists:

- ``steady`` — one shard, an arrival every 2 logical seconds (30 per
  60 s epoch) and a long history, so the live state a snapshot
  serializes is large: snapshot writes plus compaction are the heaviest
  layer and epoch stepping costs almost nothing.
- ``sharded_churn`` — eight shards with a 25 m halo, so border devices
  are quoted by the router; deadlines, price caps and a fault plan of
  charger outages, cancels and no-shows exercise planner removal, repair
  and evacuation next to insertion, and rejections next to admissions.
  Its restart replays eight journal suffixes.
- ``sparse`` — eight shards with about one request per 600 logical
  seconds: each kernel steps every empty epoch since its own last input,
  so epoch stepping dominates and folds and snapshots are negligible.

``steady`` and ``sparse`` carry a light cancel stream (2%) so that
planner removal does some work on every workload and its busy time is
measured, not a constant zero.  ``sparse`` never reaches its snapshot
cadence while serving, so its snapshot and compaction times read zero:
restarts still load a snapshot.  Snapshot cadences and rates keep the share of
submits in each slow latency mode (an epoch boundary, a snapshot) at 2%
or more, or at 0.5% or less, so ``submit_p99_us`` never sits on the edge
between the fast and the stalled mode.  Every serving phase holds at
least 1,100 submits, so at least ten lie beyond its p99.

Each workload's timeline is cut in three: the *history* is journaled
before the restart, then every shard snapshots, then the *tail* is
journaled — the suffix every restart replays on top of the snapshots —
and the *serving* phase feeds the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.faults import FaultPlan, apply_event, merge_timeline
from repro.geometry import Field, Point
from repro.service import ServiceConfig, generate_keyed_requests
from repro.shard import ShardedService
from repro.wpt import Charger

FIELD = Field(400.0, 400.0)
GRID = 4
CONFIG = ServiceConfig()
SNAPSHOT_KEEP = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix; sizes are request counts of each timeline phase."""

    name: str
    shards: int
    rate: float
    history: int
    tail: int
    serve: int
    snapshot_every: int
    halo: float = 0.0
    deadline_slack: Optional[float] = None
    max_price_factor: Optional[float] = None
    #: ``FaultPlan.generate`` probabilities (no journal faults: the daemon
    #: under test is deployed, not crash-tested).
    outage_prob: float = 0.0
    cancel_prob: float = 0.0
    no_show_prob: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady", shards=1, rate=0.5, history=2000, tail=40, serve=1200,
            snapshot_every=1000, cancel_prob=0.02,
        ),
        Workload(
            "sharded_churn", shards=8, halo=25.0, rate=1.0, history=4000, tail=200,
            serve=2400, snapshot_every=1000, deadline_slack=600.0,
            max_price_factor=1.2015, outage_prob=0.5, cancel_prob=0.1, no_show_prob=0.05,
        ),
        Workload(
            "sparse", shards=8, rate=1.0 / 600.0, history=400, tail=100, serve=1200,
            snapshot_every=2000, cancel_prob=0.02,
        ),
    )
}


def make_chargers() -> List[Charger]:
    """16 chargers at the cell centers of a 4x4 grid over the field."""
    step = FIELD.width / GRID
    return [
        Charger(
            charger_id=f"c{r * GRID + c:02d}",
            position=Point(step * (c + 0.5), step * (r + 0.5)),
            capacity=10,
        )
        for r in range(GRID)
        for c in range(GRID)
    ]


def canonical(doc: Any) -> str:
    """Byte-exact JSON form used for every equality check."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Inputs:
    """One workload's timeline for one seed, cut into its three phases."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.chargers = make_chargers()
        w = workload
        requests = generate_keyed_requests(
            w.history + w.tail + w.serve, w.rate, seed, field=FIELD,
            deadline_slack=w.deadline_slack, max_price_factor=w.max_price_factor,
        )
        plan = FaultPlan.generate(
            seed,
            charger_ids=[c.charger_id for c in self.chargers],
            requests=requests,
            outage_prob=w.outage_prob,
            cancel_prob=w.cancel_prob,
            no_show_prob=w.no_show_prob,
            journal_faults=0,
        )
        timeline = merge_timeline(requests, plan)
        t_tail = requests[w.history].submitted_at
        t_serve = requests[w.history + w.tail].submitted_at
        self.history = [item for item in timeline if item[1] < t_tail]
        self.tail = [item for item in timeline if t_tail <= item[1] < t_serve]
        self.serving = [item for item in timeline if item[1] >= t_serve]
        #: Indices of the submits among the serving inputs.
        self.submits = [i for i, item in enumerate(self.serving) if item[0] == "submit"]
        self.n_requests = len(requests)

    def open(self, journal_dir: Path) -> ShardedService:
        """A fresh daemon journaling into *journal_dir* (fsync off)."""
        w = self.workload
        return ShardedService(
            self.chargers, n_shards=w.shards, field=FIELD, halo=w.halo,
            config=CONFIG, journal_dir=journal_dir, journal_sync=False,
            snapshot_every=w.snapshot_every, snapshot_keep=SNAPSHOT_KEEP,
        )

    def recover(self, journal_dir: Path, sync: bool = True) -> ShardedService:
        """Restart the daemon from *journal_dir*, as deployed when *sync*."""
        return ShardedService.recover(
            journal_dir, self.chargers, config=CONFIG, journal_sync=sync,
            snapshot_every=self.workload.snapshot_every,
            snapshot_keep=SNAPSHOT_KEEP,
        )

    def build_history(self, journal_dir: Path) -> Tuple[str, str]:
        """Journal history, snapshot every shard, journal the tail.

        Runs with fsync off: sync is operational and changes no journal
        byte.  Returns the canonical final schedule and deterministic
        metrics a restart must reproduce.
        """
        self.history_dir = journal_dir
        service = self.open(journal_dir)
        try:
            for item in self.history:
                apply_event(service, item)
            for sid in sorted(service.kernels):
                service.kernels[sid].write_snapshot()
            for item in self.tail:
                apply_event(service, item)
            return outputs(service)
        finally:
            service.close()


def outputs(service: ShardedService) -> Tuple[str, str]:
    """The daemon's canonical final schedule and deterministic metrics."""
    return canonical(service.final_schedule()), canonical(service.metrics_snapshot())
