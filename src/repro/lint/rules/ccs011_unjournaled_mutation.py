"""CCS011 — public service method mutates state with no journal append."""

from __future__ import annotations

from typing import Iterator, Tuple

from ..finding import Finding
from ..flow import Program, analyze_program
from ..registry import FlowRule, register

__all__ = ["UnjournaledMutationRule"]

#: Service classes whose public methods are the journaled input surface.
SERVICE_CLASSES: Tuple[str, ...] = (
    "repro.service.kernel.ChargingService",
    "repro.shard.service.ShardedService",
)

_JOURNAL_APPEND = "repro.service.journal.Journal.append"
_JOURNAL_BASE = "repro.service.journal.Journal"

#: Public methods that are structurally exempt: lifecycle teardown.
_LIFECYCLE_METHODS = frozenset({"close"})


@register
class UnjournaledMutationRule(FlowRule):
    """Every state-mutating public service method journals (or replays).

    **Invariant.** A public method of ``ChargingService`` or
    ``ShardedService`` (or a subclass) that mutates service state —
    assigns or mutates ``self``-reachable attributes anywhere in its call
    subtree — must, on some path, either append to the journal
    (``Journal.append``) or rebuild the state *from* the journal (a
    ``recover`` replay constructor).  ``close`` is exempt as lifecycle
    teardown.

    **Why.** Crash recovery replays the journal and trusts it to be a
    complete account of every input that moved the kernel.  A public
    method that mutates state without journaling is a side door: calls
    through it exist in the live process but not in the journal, so a
    recovered kernel silently diverges from the one that crashed — the
    exact failure the journal exists to prevent.  Per-file rules cannot
    see this: the mutation, the journal append, and the public entry
    point usually live in three different methods across two files.

    **Approved fix.** Route every externally visible mutation through a
    journaling helper (``_journal`` + apply), or make the method a pure
    query.  Recovery-style methods that rebuild a kernel by replaying its
    journal (``recover_shard``) are recognized automatically —
    replay-derived state needs no second journaling.  A genuinely
    journal-free mutator (none exists today) takes an inline suppression
    at the ``def`` line explaining why divergence is impossible.

    **Whole-program.** Findings anchor at the method definition; the
    message names the mutated attribute and the chain that mutates it.
    """

    code = "CCS011"
    title = "public service method mutates state on a journal-free path"

    def check_program(self, program: Program) -> Iterator[Finding]:
        analysis = analyze_program(program)
        graph, purity = analysis.graph, analysis.purity

        service_qnames = [q for q in SERVICE_CLASSES if q in graph.classes]
        targets = [
            cls
            for cls in sorted(graph.classes.values(), key=lambda c: c.qname)
            if any(graph.is_subclass_of(cls, base) for base in service_qnames)
        ]
        for cls in targets:
            for name in sorted(cls.methods):
                method = cls.methods[name]
                if name.startswith("_") or name in _LIFECYCLE_METHODS:
                    continue
                chains = graph.reachable_from([method.qname])
                mutation: Tuple[str, str, Tuple[str, ...]] = ("", "", ())
                journaled = False
                for qname in sorted(chains):
                    reached = graph.functions[qname]
                    if reached.name == "recover" or (
                        reached.name == "append"
                        and (
                            qname == _JOURNAL_APPEND
                            or (
                                reached.cls is not None
                                and reached.cls in graph.classes
                                and graph.is_subclass_of(
                                    graph.classes[reached.cls], _JOURNAL_BASE
                                )
                            )
                        )
                    ):
                        journaled = True
                        break
                    if reached.cls is not None and any(
                        graph.is_subclass_of(graph.classes[reached.cls], base)
                        for base in service_qnames
                        if reached.cls in graph.classes
                    ):
                        writes = purity.effects_of(qname).self_writes
                        if writes and not mutation[0]:
                            mutation = (qname, writes[0].attr, chains[qname])
                if journaled or not mutation[0]:
                    continue
                info = program.get(method.modname)
                if info is None:
                    continue
                where, attr, chain = mutation
                path = " -> ".join(_tail(q) for q in chain)
                yield self.finding(
                    info,
                    method.node,
                    f"public method {_tail(method.qname)} mutates service state "
                    f"(self.{attr} in {_tail(where)} via {path}) but no path "
                    "appends to the journal or replays one; a recovered kernel "
                    "would diverge — journal the input or make this a query",
                )


def _tail(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname
