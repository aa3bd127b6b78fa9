"""CCS009 — nondeterminism source reachable from a replay-critical sink."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..finding import Finding
from ..flow import Program, analyze_program
from ..registry import FlowRule, register

__all__ = ["ImpureSinkPathRule"]

#: Functions whose entire call subtree must be free of nondeterminism
#: sources: everything they execute is (or feeds) replayed state.
SINK_ROOTS: Tuple[str, ...] = (
    "repro.service.journal.Journal.append",
    "repro.service.kernel.ChargingService.submit",
    "repro.service.kernel.ChargingService.advance",
    "repro.service.kernel.ChargingService.drain",
    "repro.service.kernel.ChargingService.cancel",
    "repro.service.kernel.ChargingService.fail_charger",
    "repro.service.kernel.ChargingService.restore_charger",
    "repro.service.kernel.ChargingService.metrics_snapshot",
    "repro.shard.service.ShardedService.submit",
    "repro.shard.service.ShardedService.advance",
    "repro.shard.service.ShardedService.drain",
    "repro.shard.service.ShardedService.cancel",
    "repro.shard.service.ShardedService.fail_charger",
    "repro.shard.service.ShardedService.restore_charger",
    "repro.shard.service.ShardedService.metrics_snapshot",
    "repro.service.plan.IncrementalPlanner.quote",
    "repro.service.admission.AdmissionController.decide",
    "repro.experiments.exec.task.Task.fingerprint",
    "repro.experiments.exec.task.canonical_json",
    "repro.rng.derive_seed",
)

#: Classes whose ``append`` overrides are sinks too (subclass journals).
_JOURNAL_BASE = "repro.service.journal.Journal"


@register
class ImpureSinkPathRule(FlowRule):
    """No nondeterminism source on any path below a replay-critical sink.

    **Invariant.** Starting from the replay-critical entry points —
    ``Journal.append`` (and subclass overrides), the public
    ``ChargingService``/``ShardedService`` input methods, planner
    ``quote``, admission ``decide``, ``Task.fingerprint``,
    ``canonical_json``, ``derive_seed`` — no transitively reachable
    program function reads a nondeterminism source: the wall clock, the
    process-global RNG, OS entropy/UUIDs, environment variables, or
    filesystem listing order.

    **Why.** These entry points decide what gets journaled, quoted,
    admitted, fingerprinted, or seeded.  The per-file rules (CCS001,
    CCS002) catch a ``time.time()`` written *in* such a function, but a
    read three calls below — in a helper in another module — corrupts
    replay identically and is invisible to any single-file rule.  One
    impure helper shared by a sink path turns byte-identical replay into
    a race against the clock.

    **Approved fix.** Thread the value in: take the timestamp from the
    :class:`~repro.service.clock.ServiceClock`, the randomness from an
    explicitly seeded ``Generator`` (``repro.rng.ensure_rng``), the
    configuration from a parameter bound before the run starts.  A read
    that is genuinely pinned before any journaled work (e.g. import-time
    engine selection validated bit-identical by the tier-1 gate) takes an
    inline suppression at the read site stating that pinning.

    **Whole-program.** Findings anchor at the offending source read, and
    the message carries the full call chain from the sink that reaches
    it.
    """

    code = "CCS009"
    title = "nondeterminism source reachable from a replay-critical sink"

    def check_program(self, program: Program) -> Iterator[Finding]:
        analysis = analyze_program(program)
        graph, purity = analysis.graph, analysis.purity

        roots: List[str] = [q for q in SINK_ROOTS if q in graph.functions]
        for cls in sorted(graph.classes.values(), key=lambda c: c.qname):
            if cls.qname != _JOURNAL_BASE and graph.is_subclass_of(
                cls, _JOURNAL_BASE
            ):
                append = cls.methods.get("append")
                if append is not None:
                    roots.append(append.qname)

        chains = graph.reachable_from(roots)
        seen: Dict[Tuple[str, int, int, str], bool] = {}
        for qname in sorted(chains):
            fn = graph.functions[qname]
            info = program.get(fn.modname)
            if info is None:
                continue
            for read in purity.effects_of(qname).sources:
                node = read.node
                key = (
                    fn.modname,
                    int(getattr(node, "lineno", 1)),
                    int(getattr(node, "col_offset", 0)),
                    read.dotted,
                )
                if key in seen:
                    continue
                seen[key] = True
                chain = chains[qname]
                path = " -> ".join(_short(q) for q in chain)
                yield self.finding(
                    info,
                    node,
                    f"{read.dotted} ({read.kind}) executes on a replay-critical "
                    f"path: reachable from sink {_short(chain[0])} via {path}; "
                    "thread the value in (ServiceClock / seeded Generator / "
                    "bound config) instead",
                )


def _short(qname: str) -> str:
    """``repro.service.kernel.ChargingService.submit`` → class.method."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname
