"""Layer spans for the deployed-daemon benchmark's traced run.

:class:`Tracer` wraps the public functions of each daemon layer — the
facade's inputs, the router, the planner, admission, the journal, the
snapshot writer, recovery, and ``os.fsync`` process-wide — with timing
spans, from the benchmark's own files.  A span records its inclusive
time, its self time (inclusive minus its child spans) and its caller, so
the benchmark can say where the time of one ``submit`` went.

Every span belongs to a *group*: the layer a tail-latency share is
reported for (``fold``, ``snapshot``, ``compact``, ``journal``,
``router``, ``kernel``, ``recover``).  Spans without a group of their own
(``quote``, ``admission``, ``fsync``, ``journal.read``) take their
caller's, so an fsync inside a snapshot write counts as snapshot time and
a quote made by the router as router time.

All timings are wall clock (``time.perf_counter``).  The wrappers are
installed only for the traced rounds (:meth:`Tracer.installed`) and
removed afterwards, so untraced rounds run the program unmodified.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.service.kernel as kernel_module
from repro.service.admission import AdmissionController
from repro.service.journal import Journal
from repro.service.kernel import ChargingService
from repro.service.plan import IncrementalPlanner
from repro.shard.router import SpatialRouter
from repro.shard.service import ShardedService

#: Tail-attribution groups, in report order.
TAIL_GROUPS = ("fold", "snapshot", "compact", "journal", "router", "kernel")

#: The public inputs of the facade and of each kernel.
INPUTS = ("submit", "advance", "cancel", "fail_charger", "restore_charger", "drain")


class PhaseStats:
    """Span and count totals of one phase (a restart, or a serving phase)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.group_self: Dict[str, float] = defaultdict(float)
        #: ``(span, caller span)`` call counts.
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Work counts gathered at span boundaries (bytes, records, moves).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Root spans in order: ``(name, seconds, {group: self seconds})``.
        self.roots: List[Tuple[str, float, Dict[str, float]]] = []


class Tracer:
    """Wraps layer functions with spans while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.stats = PhaseStats()
        #: Open spans: ``[name, group, child seconds]``.
        self._stack: List[List[Any]] = []
        self._root_groups: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> PhaseStats:
        """Start a new phase; returns the finished phase's totals."""
        done, self.stats = self.stats, PhaseStats()
        return done

    # ------------------------------------------------------------------ #
    # span bookkeeping

    def _open(self, name: str, group: Optional[str]) -> List[Any]:
        if group is None:
            group = self._stack[-1][1] if self._stack else "kernel"
        if not self._stack:
            self._root_groups = defaultdict(float)
        frame = [name, group, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any], seconds: float) -> None:
        self._stack.pop()
        name, group, child = frame
        own = seconds - child
        st = self.stats
        st.calls[name] += 1
        st.incl[name] += seconds
        st.self_s[name] += own
        st.group_self[group] += own
        self._root_groups[group] += own
        if self._stack:
            parent = self._stack[-1]
            parent[2] += seconds
            st.nested[(name, parent[0])] += 1
        else:
            st.roots.append((name, seconds, dict(self._root_groups)))

    # ------------------------------------------------------------------ #
    # installation

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: Optional[str],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        kind: str = "function",
    ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(*args) if before is not None else None
            frame = tracer._open(name, group)
            t0 = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter() - t0)
            if after is not None:
                after(tracer.stats.counts, token, args, result)
            return result

        replacement: Any = staticmethod(traced) if kind == "static" else traced
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def _count_bytes(self) -> None:
        """Count journal bytes at the one write hook appends and seeds share."""
        raw = Journal.__dict__["_write"]
        tracer = self

        @functools.wraps(raw)
        def write(journal: Journal, line: str) -> None:
            tracer.stats.counts["journal.bytes"] += len(line)
            raw(journal, line)

        Journal._write = write
        self._undo.append((Journal, "_write", raw))

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer for the duration of the ``with`` block."""
        wrap = self._wrap
        for method in INPUTS:
            wrap(ShardedService, method, f"facade.{method}", "kernel")
            wrap(ChargingService, method, f"kernel.{method}", "kernel")
        wrap(SpatialRouter, "route", "router.route", "router")
        wrap(IncrementalPlanner, "quote", "planner.quote", None)
        wrap(
            IncrementalPlanner, "fold", "planner.fold", "fold",
            before=lambda planner, *_: dict(planner.ops), after=_after_fold,
        )
        wrap(IncrementalPlanner, "remove", "planner.remove", "fold")
        wrap(AdmissionController, "decide", "admission.decide", None, after=_after_decide)
        wrap(Journal, "append", "journal.append", "journal")
        wrap(Journal, "seed", "journal.seed", "journal", after=_after_seed)
        wrap(Journal, "read", "journal.read", None, kind="static")
        wrap(
            Journal, "truncate_prefix", "journal.truncate_prefix", "compact",
            after=_after_truncate,
        )
        wrap(ChargingService, "write_snapshot", "snapshot.write", "snapshot")
        wrap(ChargingService, "state", "snapshot.state", "snapshot")
        wrap(
            kernel_module, "write_snapshot", "snapshot.file", "snapshot",
            after=_after_snapshot_file,
        )
        wrap(kernel_module, "load_snapshot", "snapshot.load", "recover")
        wrap(ShardedService, "recover", "recover.service", "recover", kind="static")
        wrap(ChargingService, "recover", "recover.kernel", "recover", kind="static")
        wrap(os, "fsync", "os.fsync", None)
        self._count_bytes()
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, raw = self._undo.pop()
                setattr(owner, attr, raw)


def _after_fold(counts: Dict[str, int], before: Dict[str, int], args: Any, result: Any) -> None:
    planner, indices = args[0], args[1]
    ops = planner.ops
    counts["fold.devices"] += len(indices)
    counts["fold.moves"] += ops["moves"] - before["moves"]
    counts["fold.repair_moves"] += ops["repair_moves"] - before["repair_moves"]
    counts["fold.candidates"] += (
        ops["insert_candidates"] + ops["scan_candidates"]
        - before["insert_candidates"] - before["scan_candidates"]
    )


def _after_decide(counts: Dict[str, int], _token: Any, _args: Any, decision: Any) -> None:
    if not decision:
        counts["admission.rejects"] += 1


def _after_seed(counts: Dict[str, int], _token: Any, args: Any, _result: Any) -> None:
    counts["journal.records_seeded"] += len(args[1])


def _after_truncate(counts: Dict[str, int], _token: Any, _args: Any, dropped: int) -> None:
    counts["compact.records_dropped"] += int(dropped)


def _after_snapshot_file(counts: Dict[str, int], _token: Any, _args: Any, path: Any) -> None:
    counts["snapshot.bytes"] += Path(path).stat().st_size
