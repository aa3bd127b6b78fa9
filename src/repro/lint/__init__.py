"""ccs-lint — domain-aware static analysis for the repro codebase.

Generic linters check style; this package checks the *invariants* the
reproduction's correctness guarantees actually rest on.  Per-file rules
check one module at a time:

- **CCS001** — all randomness flows through :mod:`repro.rng` (task
  fingerprints and serial==parallel equivalence);
- **CCS002** — no wall-clock reads in deterministic code (cache/replay
  byte-identity);
- **CCS003** — no float-literal ``==``/``!=`` (intent-visible numeric
  guards via :mod:`repro.numeric`);
- **CCS004** — coalition cached state is only written by the refresh
  APIs in ``game/coalition.py`` (incremental-cost coherence);
- **CCS005** — service and shard files are written, renamed, synced,
  cut and deleted only through ``repro.io``'s storage (crash-order
  durability in one place);
- **CCS006** — no set iteration in canonical-output code
  (fingerprint / golden byte-stability);
- **CCS007** — ``json.dumps`` sorts keys in canonical-output code;
- **CCS008** — no dtype narrowing or unordered float reductions in the
  array engine (bit-identity with the object engine).

Whole-program rules (:mod:`repro.lint.flow`, docs/DETERMINISM.md) follow
call chains across files:

- **CCS009** — no nondeterminism source reachable from a replay-critical
  sink;
- **CCS010** — no per-process shared mutable state reachable from a
  task-kind worker;
- **CCS011** — every state-mutating public service method journals (or
  replays);
- **CCS012** — no nondeterministic value flows into a seed or task
  fingerprint.

Both kinds run over one parse of each file and resolve names through one
import alias map per module.
Run ``ccs-lint --explain CCS00x`` for any rule's full rationale, or see
docs/LINTING.md for the catalog, the suppression policy, and the recipe
for adding a rule.  The analyzer itself is pure stdlib (its only numpy
exposure is the parent package import) and exposes a small library API
used by the test suite.
"""

from __future__ import annotations

from .analyzer import FileReport, analyze_paths, analyze_source, normalize_module
from .baseline import Baseline
from .finding import Finding
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "Baseline",
    "FileReport",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "normalize_module",
    "register",
]
