"""repro.shard — the sharded multi-kernel charging service.

A single :class:`~repro.service.kernel.ChargingService` kernel is a
single-process ceiling (``benchmarks/e2e/`` measures both); this package
scales the service *out* by spatial decomposition, the same structure the
multi-charger literature gives the field: N fully independent kernels —
each with its own journal, logical clock, incremental planner, and
metrics — behind a deterministic spatial router.

Layout:

- :mod:`.partition` — :class:`GridPartition`: the field cut into one
  cell per shard (row-major, with a configurable overlap *halo*);
- :mod:`.router` — :class:`SpatialRouter`: interior devices go to their
  owner cell untouched, border devices are quoted against each candidate
  shard and admitted to the cheapest (ties → lower shard id); routing is
  a pure function of the inputs, so replay is byte-identical;
- :mod:`.service` — :class:`ShardedService`: the kernel-compatible
  facade (submit/advance/drain/faults), per-shard journals + manifest,
  merged metrics and schedules, whole-service recovery and
  :meth:`~ShardedService.recover_shard` for one shard;
- :mod:`.supervisor` — :class:`ShardSupervisor`: self-healing and the
  only shard-recovery path — automatic failover with seed-derived
  backoff, crash-loop escalation into degraded-mode routing, a
  checksummed supervision journal, and the consumer of the plan's shard
  chaos under ``repro.faults.drive(service, requests, plan,
  supervisor=...)`` (see ``docs/RECOVERY.md``).

Degenerate-case guarantee: ``n_shards=1`` is byte-identical — journal,
metrics snapshot, final schedule — to the unsharded service on every
input stream.  See ``docs/SHARDING.md``.
"""

from .partition import GridPartition, grid_shape
from .router import SpatialRouter
from .service import ShardedService, merge_final_schedules, shard_journal_name
from .supervisor import ShardSupervisor

__all__ = [
    "GridPartition",
    "grid_shape",
    "SpatialRouter",
    "ShardedService",
    "merge_final_schedules",
    "shard_journal_name",
    "ShardSupervisor",
]
