"""CCS010 — cross-process shared mutable state reachable from workers."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..finding import Finding
from ..flow import Program, analyze_program
from ..registry import FlowRule, register

__all__ = ["SharedWorkerStateRule"]


@register
class SharedWorkerStateRule(FlowRule):
    """Task-kind workers must not touch per-process mutable state.

    **Invariant.** No function reachable from a ``@task_kind`` worker
    mutates module-level mutable state or carries a mutable default
    argument.  Workers receive everything they need in the task payload
    and return everything they produce in the result.

    **Why.** The executor runs workers in-process, threaded, or in
    spawned processes — and the README promises identical results across
    all three.  Module-level state lives once *per process*: a worker
    that appends to a module dict sees its own process's copy, so the
    observable result depends on which process the scheduler placed the
    task in.  Mutable defaults are the same trap one level down — shared
    across calls within a process, fresh in every spawned one.  Either
    way, results stop being a function of the task payload.

    **Approved fix.** Pass state through the task payload and the return
    value; keep registries (``_KINDS``-style) import-time only, written
    by decorators, never by workers.  A worker-reachable cache that is
    provably derived (recomputable from payload alone, like the
    coalition-value memo) takes an inline suppression saying so.

    **Whole-program.** Roots are functions decorated with ``task_kind``;
    the message names the worker and the call chain to the mutation.
    Import-time registration by the decorator itself is exempt by
    construction (decorator expressions are not part of the worker's
    call-time body).
    """

    code = "CCS010"
    title = "worker-reachable mutation of per-process shared state"

    def check_program(self, program: Program) -> Iterator[Finding]:
        analysis = analyze_program(program)
        graph, purity = analysis.graph, analysis.purity

        workers = [
            fn.qname
            for fn in graph.iter_functions()
            if any(
                d == "task_kind" or d.endswith(".task_kind") for d in fn.decorators
            )
        ]
        chains = graph.reachable_from(workers)
        seen: Dict[Tuple[str, int, int, str], bool] = {}
        for qname in sorted(chains):
            fn = graph.functions[qname]
            info = program.get(fn.modname)
            if info is None:
                continue
            effects = purity.effects_of(qname)
            chain = " -> ".join(_tail(q) for q in chains[qname])
            for default in effects.mutable_defaults:
                key = (
                    fn.modname,
                    int(getattr(default, "lineno", 1)),
                    int(getattr(default, "col_offset", 0)),
                    "default",
                )
                if key in seen:
                    continue
                seen[key] = True
                yield self.finding(
                    info,
                    default,
                    f"mutable default argument on {_tail(qname)} is reachable "
                    f"from @task_kind worker {_tail(chains[qname][0])} "
                    f"(via {chain}); shared across calls in one process, fresh "
                    "in every spawned one — pass the value explicitly",
                )
            for write in effects.global_writes:
                key = (
                    fn.modname,
                    int(getattr(write.node, "lineno", 1)),
                    int(getattr(write.node, "col_offset", 0)),
                    write.name,
                )
                if key in seen:
                    continue
                seen[key] = True
                yield self.finding(
                    info,
                    write.node,
                    f"module-level mutable '{write.name}' is mutated on a "
                    f"@task_kind worker path ({chain}); per-process state makes "
                    "results depend on worker placement — move it into the "
                    "task payload/result",
                )


def _tail(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname
