"""CCS002 — no wall-clock reads in deterministic code."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..finding import Finding
from ..flow.effects import CLOCK_DEFAULT_MEMBERS, classify_source
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["WallClockRule"]

#: Monotonic/CPU timers: still banned in library code, but *allowed* in
#: the perf-timer scopes below — measuring latency is what benchmarks do.
PERF_TIMER_MEMBERS = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


@register
class WallClockRule(Rule):
    """No ``time.time()`` / ``perf_counter()`` / ``datetime.now()`` in library code.

    **Invariant.** Library code under ``src/repro`` never reads the host
    clock.  The service daemon reads time only through
    :class:`repro.service.clock.ServiceClock` (a logical clock advanced
    by input events), and experiment tasks only through the allowlisted
    ``perf_timer`` in ``repro/experiments/exec/kinds.py`` (which the
    equivalence suite can pin to zero via ``CCS_BENCH_ZERO_TIMER``).

    **Why.** Task results are fingerprinted and cached by content; the
    service journal must replay byte-identically after a crash.  A wall
    -clock read smuggles nondeterminism into both: cached results stop
    matching fresh runs, recovery diverges from the original execution,
    and the golden experiment outputs flap.  Wall-clock *latency* is
    measured outside the kernel by the benchmark harness, exactly so the
    deterministic core stays clock-free.

    **Approved fix.** Inside the service: take ``clock.now`` (a
    :class:`ServiceClock`) as input.  Inside experiment tasks: use
    ``repro.experiments.exec.kinds.perf_timer``.  In ``benchmarks/`` and
    ``examples/`` the monotonic perf timers (``perf_counter`` family) are
    allowed — measuring latency is their job — but wall-*date* reads
    (``time.time``, ``datetime.now``, zero-argument ``gmtime``/
    ``localtime``/``ctime``/``asctime``, format-only ``strftime``) stay
    banned everywhere: a date formatted into a benchmark artifact diffs
    run to run.

    **Allowlisted.** ``repro/experiments/exec/kinds.py`` — the single
    env-gated timer.
    """

    code = "CCS002"
    title = "wall-clock read (time.*/datetime.now) in deterministic library code"
    allow = ("repro/experiments/exec/kinds.py",)
    #: Module-path prefixes where the perf-timer family is fair game.
    perf_timer_scopes: Tuple[str, ...] = ("benchmarks/", "examples/")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        findings: List[Finding] = []
        perf_ok = any(info.module.startswith(p) for p in self.perf_timer_scopes)

        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for item in node.names:
                        # Not a call: only the always-reading members classify.
                        read = classify_source(f"time.{item.name}", node)
                        if read is not None and not (
                            perf_ok and item.name in PERF_TIMER_MEMBERS
                        ):
                            findings.append(
                                self.finding(
                                    info,
                                    node,
                                    f"importing time.{item.name}: wall-clock reads are "
                                    "banned in deterministic code (use ServiceClock or "
                                    "exec.kinds.perf_timer)",
                                )
                            )
            elif isinstance(node, ast.Call):
                dotted = info.resolve_dotted(node.func)
                if dotted is not None and dotted.startswith("time."):
                    member = dotted.split(".", 1)[1]
                    if (
                        member in CLOCK_DEFAULT_MEMBERS
                        and classify_source(dotted, node) is not None
                    ):
                        findings.append(
                            self.finding(
                                info,
                                node,
                                f"{dotted}() with the time argument omitted formats "
                                "*now* — a wall-clock read; pass an explicit "
                                "timestamp (or thread logical time through)",
                            )
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                dotted = info.resolve_dotted(node)
                if dotted is None:
                    continue
                message = self._message_for(dotted, node, perf_ok)
                if message is not None:
                    findings.append(self.finding(info, node, message))

        # De-duplicate chain sub-matches: an Attribute and its inner value
        # can both resolve (e.g. ``datetime.datetime.now`` and
        # ``datetime.datetime``); keep the most specific per location.
        seen: Set[Tuple[int, int]] = set()
        for finding in sorted(findings, key=Finding.sort_key):
            loc = (finding.line, finding.col)
            if loc in seen:
                continue
            seen.add(loc)
            yield finding

    @staticmethod
    def _message_for(dotted: str, node: ast.AST, perf_ok: bool) -> Optional[str]:
        """The message for a clock read named by a non-call reference.

        *node* is never a call here, so the clock-defaulting members
        (whose reads the call branch reports) never classify.
        """
        read = classify_source(dotted, node)
        if read is None or read.kind != "wallclock":
            return None
        if dotted.startswith("time."):
            if perf_ok and dotted.split(".", 1)[1] in PERF_TIMER_MEMBERS:
                return None
            return (
                f"{dotted}() reads the host clock; deterministic code must use "
                "ServiceClock (service) or exec.kinds.perf_timer (tasks)"
            )
        # ``from datetime import datetime`` then ``datetime.now(...)``
        # resolves to datetime.datetime.now via the alias map.
        return (
            f"{dotted}() reads the host clock; thread logical time through "
            "explicitly instead"
        )
