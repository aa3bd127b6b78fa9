"""CCS012 — wall-clock/RNG-tainted value flows into seed derivation."""

from __future__ import annotations

from typing import Iterator, Tuple

from ..finding import Finding
from ..flow import Program, analyze_program
from ..flow.taint import trace_taint
from ..registry import FlowRule, register

__all__ = ["TaintedSeedRule"]

#: Program functions every argument of which is seed/fingerprint-critical.
SEED_SINKS: Tuple[str, ...] = (
    "repro.rng.derive_seed",
    "repro.rng.ensure_rng",
    "repro.experiments.exec.task.Task.__init__",
    "repro.experiments.exec.task.canonical_json",
)


@register
class TaintedSeedRule(FlowRule):
    """No nondeterministic *value* may feed a seed or a task fingerprint.

    **Invariant.** No value produced by a nondeterminism source — the
    wall clock, the global RNG, OS entropy, UUIDs, environment reads —
    flows (through any chain of assignments, arithmetic, wrapping calls,
    and function returns) into an argument of ``derive_seed`` /
    ``ensure_rng``, a ``Task`` construction, or ``canonical_json``.

    **Why.** CCS009 bans *executing* a source on a sink path; this rule
    bans the sharper failure where the source's *value* becomes the seed.
    ``derive_seed(int(time.time()))`` passes every per-file rule if the
    clock read and the seed call live in different functions — yet it
    poisons the whole derivation tree: every stream, every trial, every
    fingerprint downstream of that seed differs run to run, and replay
    can never match.  Taint survives laundering: ``int()``, ``f"{t}"``,
    arithmetic, a helper that returns the clock — the value is still the
    clock.

    **Approved fix.** Seeds come from declared configuration (CLI flag,
    spec file, ``derive_seed(root, *path)`` over stable labels); task
    identity comes from the payload, never from when or where it was
    built.  If an experiment genuinely wants a fresh seed per run, make
    it explicit input (``--seed``), not ambient time.

    **Whole-program.** Interprocedural: taint propagates through return
    values and parameters to a fixpoint; findings anchor at the call that
    passes the tainted value sinkward and name the source, the sink, and
    the chain between them.
    """

    code = "CCS012"
    title = "nondeterministic value flows into seed/fingerprint derivation"

    def check_program(self, program: Program) -> Iterator[Finding]:
        analysis = analyze_program(program)
        report = trace_taint(analysis.graph, SEED_SINKS)
        for f in report.findings:
            fn = analysis.graph.functions.get(f.fn)
            if fn is None:
                continue
            info = program.get(fn.modname)
            if info is None:
                continue
            path = " -> ".join(_tail(q) for q in f.chain)
            yield self.finding(
                info,
                f.node,
                f"value from {f.source} (line {f.source_line}) flows into "
                f"{_tail(f.sink)} via {path}; seeds and fingerprints must "
                "derive from declared config, not ambient state",
            )


def _tail(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname
