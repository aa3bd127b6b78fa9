"""repro.faults — deterministic fault injection for the charging service.

The paper's model silently assumes chargers stay up and every coalition
member shows up and pays its share; this package drops that assumption.
It supplies a seed-derived fault *model* and the *injection* layer that
lands each fault at a precise logical-clock time, so the failure
semantics in :mod:`repro.service` and :mod:`repro.experiments.exec` can
be exercised — and their invariants asserted — under chaos that is fully
reproducible from a single integer seed.

Layout:

- :mod:`.plan` — :class:`FaultEvent` / :class:`FaultPlan`: the schedule
  of charger outages/recoveries, cancellations, no-shows, journal write
  failures, worker crashes, shard kills, snapshot corruption, crashes
  mid-snapshot-write, and crash-looping recoveries.  Built on
  :func:`repro.rng.derive_seed`; never wall-clock or global RNG.
- :mod:`.storage` — :class:`FaultyStorage`: a storage wrapper whose
  journal record appends fail on cue (clean ``ENOSPC`` or a torn
  mid-record write), and the on-disk damage of shard chaos events
  (torn tails, garbled snapshots, stranded snapshot temps).
- :mod:`.executor` — :class:`FaultyExecutor`: a parallel executor whose
  workers die (``os._exit``) on scheduled attempts.
- :mod:`.tasks` — module-qualified chaos task kinds for spawned workers.
- :mod:`.driver` — feed a request stream *and* a fault plan into a
  :class:`~repro.service.kernel.ChargingService` or a sharded service
  (:func:`drive`, optionally through a shard supervisor — the one
  crash → recover → re-feed loop the chaos suite asserts byte-identity
  over).

See ``docs/FAULTS.md`` for the fault model and the failure-semantics
state diagram.
"""

from .driver import apply_event, drive, merge_timeline
from .executor import FaultyExecutor
from .plan import FAULT_KINDS, SUPERVISOR_KINDS, FaultEvent, FaultPlan
from .storage import FaultyStorage

__all__ = [
    "FAULT_KINDS",
    "SUPERVISOR_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyExecutor",
    "FaultyStorage",
    "apply_event",
    "drive",
    "merge_timeline",
]
