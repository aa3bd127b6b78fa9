"""Whole-program determinism analysis (the ``repro.lint.flow`` engine).

The per-file rules (CCS001–CCS008) see one module at a time, so they
cannot prove the property the repo's guarantees actually rest on:
*transitive* purity.  A wall-clock read three calls below
``ChargingService.submit`` breaks byte-identical replay just as surely as
one in ``submit`` itself — and no single-file rule can see it.

Over the modules the analyzer parsed once, this package builds, in order:

- :mod:`~repro.lint.flow.program` — the module set, each module's one
  import alias map (shared with the per-file rules), and the import
  graph;
- :mod:`~repro.lint.flow.callgraph` — a name-resolution-based,
  conservative call graph (import aliases, ``self`` dispatch, class
  attribute/parameter type bindings; dynamic dispatch stays unresolved
  and errs toward silence, as the alias map itself does);
- :mod:`~repro.lint.flow.effects` — per-function *direct* effect scans
  (nondeterminism-source reads, global/attribute mutations, calls), and
  the source catalog CCS001 and CCS002 classify with too;
- :mod:`~repro.lint.flow.purity` — transitive purity summaries and
  sink-rooted reachability with witness call chains;
- :mod:`~repro.lint.flow.taint` — value-level taint from source reads
  into seed/fingerprint sinks, propagated interprocedurally through
  return values and parameters.

The cross-file rules CCS009–CCS012 are built on top of these layers and
live with the per-file rules in :mod:`repro.lint.rules`; findings render
through the ordinary :class:`~repro.lint.finding.Finding` machinery.
docs/DETERMINISM.md describes the source → sink model in full.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import CallGraph, CallSite, ClassInfo, FunctionInfo, build_callgraph
from .effects import Effects, SourceRead, scan_effects
from .program import ModuleInfo, Program, dotted_name
from .purity import PuritySummary, summarize
from .taint import TaintFinding, TaintReport, trace_taint


@dataclass
class FlowAnalysis:
    """The shared whole-program layers every flow rule reads."""

    program: Program
    graph: CallGraph
    purity: PuritySummary


def analyze_program(program: Program) -> FlowAnalysis:
    """Build (once) and return the call graph + purity for *program*.

    Memoized on the program itself: four flow rules running over one
    analyzer pass share a single graph construction.
    """
    cached = program.analysis_cache.get("flow")
    if isinstance(cached, FlowAnalysis):
        return cached
    graph = build_callgraph(program)
    analysis = FlowAnalysis(program=program, graph=graph, purity=summarize(graph))
    program.analysis_cache["flow"] = analysis
    return analysis


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "Effects",
    "FlowAnalysis",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "PuritySummary",
    "SourceRead",
    "TaintFinding",
    "TaintReport",
    "analyze_program",
    "build_callgraph",
    "dotted_name",
    "scan_effects",
    "summarize",
    "trace_taint",
]
