"""repro.service — a long-lived charging-as-a-service daemon.

The offline solvers answer "given these n devices, what is the best
coalition structure?"; this package answers the *operational* question
the paper's title poses — charging as a **service**: requests arrive over
time, each gets an immediate admission decision and a price quote, and an
epoch-based replanner folds admitted work into the live plan using the
incremental coalition engine (never a from-scratch re-solve).

Layout:

- :mod:`.clock` / :mod:`.request` — logical time and the request lifecycle;
- :mod:`.admission` — bounded-queue admission with explicit rejection reasons;
- :mod:`.plan` — growable instance + coalition structure + incremental
  replanner (fold / improve / repair);
- :mod:`.kernel` — the :class:`ChargingService` event loop;
- :mod:`.journal` — append-only checksummed JSONL durability, with
  :meth:`ChargingService.recover` crash recovery;
- :mod:`.snapshot` — checksummed, atomically-written state snapshots
  keyed to a journal seq, bounding recovery to the suffix replay (see
  ``docs/RECOVERY.md``);
- :mod:`.metrics` — deterministic counters / gauges / histograms;
- :mod:`.loadgen` — every seeded request stream: Poisson, timed bursts,
  1 h and 24 h diurnal profiles, spatial bursts, keyed and clustered;
- :mod:`.policy` — adapter running the daemon under the online harness.

See ``docs/SERVICE.md`` for the lifecycle, journal format, and recovery
semantics.
"""

from .admission import AdmissionController, AdmissionDecision, earliest_departure
from .clock import ServiceClock
from .journal import Journal, JournalRead, record_checksum
from .kernel import ChargingService, ServiceConfig
from .snapshot import (
    SNAPSHOT_SCHEMA,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_path,
    write_snapshot,
)
from .loadgen import (
    PROFILES,
    burst_arrivals,
    diurnal_arrivals,
    generate_clustered_requests,
    generate_keyed_requests,
    generate_requests,
    read_trace,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, Metrics, merge_snapshots
from .plan import GrowableCoalitionStructure, IncrementalPlanner, PlanInstance
from .policy import ServicePolicy
from .request import ChargingRequest, RequestRecord, RequestState

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "earliest_departure",
    "ServiceClock",
    "Journal",
    "JournalRead",
    "record_checksum",
    "ChargingService",
    "ServiceConfig",
    "SNAPSHOT_SCHEMA",
    "snapshot_path",
    "list_snapshots",
    "write_snapshot",
    "load_snapshot",
    "prune_snapshots",
    "PROFILES",
    "generate_requests",
    "diurnal_arrivals",
    "burst_arrivals",
    "generate_keyed_requests",
    "generate_clustered_requests",
    "read_trace",
    "write_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "merge_snapshots",
    "GrowableCoalitionStructure",
    "IncrementalPlanner",
    "PlanInstance",
    "ServicePolicy",
    "ChargingRequest",
    "RequestRecord",
    "RequestState",
]
