"""Built-in service observability: counters, gauges, fixed-bucket histograms.

Deliberately dependency-free and *deterministic*: every observed value is
a function of the input event stream (logical times, costs, sizes), never
of wall time, so a metrics snapshot is byte-reproducible across runs and
across crash recovery — which the recovery tests assert literally.

:meth:`Metrics.snapshot` returns plain nested dicts (sorted keys when
JSON-dumped) — the one format shared by tests, the CLI report, and the
``--metrics-json`` export.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "Metrics", "merge_snapshots"]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (must be nonnegative) to the counter."""
        if n < 0:
            raise ValueError(f"counters only go up, got increment {n}")
        self.value += n


class Gauge:
    """A point-in-time measurement (queue depth, live coalitions, clock)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative-style snapshot output.

    ``bounds`` are the finite upper bucket edges; an implicit ``+inf``
    bucket catches the rest.  Buckets are fixed at construction so two
    runs (or a run and its recovery) always bin identically.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float]):
        edges: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"bucket bounds must be strictly increasing, got {edges}")
        self.bounds = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Bin one observation (``value <= bound`` lands in that bucket)."""
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.total += 1
        self.sum += v

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form: per-bucket counts keyed by upper bound."""
        buckets = {f"le_{bound:g}": count for bound, count in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {"buckets": buckets, "count": self.total, "sum": self.sum}

    def state(self) -> Dict[str, Any]:
        """Exact internal state, losslessly restorable (unlike ``snapshot``,
        whose ``le_%g`` bucket keys drop bound precision)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite this histogram's contents from a :meth:`state` dict.

        The stored bounds must match this histogram's — buckets are fixed
        at construction, so skew means the snapshot belongs to different
        code and must not be silently rebinned.
        """
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"histogram state bounds {list(bounds)} != registered "
                f"bounds {list(self.bounds)}"
            )
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram state has {len(counts)} buckets, expected "
                f"{len(self.counts)}"
            )
        self.counts = counts
        self.total = int(state["total"])
        self.sum = float(state["sum"])


class Metrics:
    """A registry of named counters, gauges, and histograms.

    Instruments registered with ``operational=True`` are *observability*
    metrics — counts of crash recoveries, dropped journal bytes, snapshot
    writes — whose values depend on fault history rather than on the
    input event stream alone.  They are excluded from :meth:`snapshot`
    (the byte-reproducibility contract) and from :meth:`state` (the crash
    snapshot payload), and show up only in ``snapshot(operational=True)``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._operational: Set[str] = set()

    def counter(self, name: str, operational: bool = False) -> Counter:
        """Get (or lazily create) the counter *name*."""
        if operational:
            self._operational.add(name)
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str, operational: bool = False) -> Gauge:
        """Get (or lazily create) the gauge *name*."""
        if operational:
            self._operational.add(name)
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge()
            return g

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = (),
        operational: bool = False,
    ) -> Histogram:
        """Get the histogram *name*, creating it with *bounds* on first use."""
        if operational:
            self._operational.add(name)
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(bounds)
            return h

    def _keep(self, name: str, operational: bool) -> bool:
        return operational or name not in self._operational

    def snapshot(self, operational: bool = False) -> Dict[str, Any]:
        """Everything deterministic, as plain nested dicts.

        Pass ``operational=True`` to include the observability instruments
        too (for human-facing reports, never for byte-identity checks).
        """
        return {
            "counters": {
                k: c.value
                for k, c in sorted(self._counters.items())
                if self._keep(k, operational)
            },
            "gauges": {
                k: g.value
                for k, g in sorted(self._gauges.items())
                if self._keep(k, operational)
            },
            "histograms": {
                k: h.snapshot()
                for k, h in sorted(self._histograms.items())
                if self._keep(k, operational)
            },
        }

    def state(self) -> Dict[str, Any]:
        """Exact deterministic contents for a crash snapshot.

        Operational instruments are omitted: their values describe the
        *previous process's* fault history, which a restored kernel does
        not inherit (and must not, or snapshot-restored and fully-replayed
        kernels would diverge).
        """
        return {
            "counters": {
                k: c.value
                for k, c in sorted(self._counters.items())
                if k not in self._operational
            },
            "gauges": {
                k: g.value
                for k, g in sorted(self._gauges.items())
                if k not in self._operational
            },
            "histograms": {
                k: h.state()
                for k, h in sorted(self._histograms.items())
                if k not in self._operational
            },
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite instrument values from a :meth:`state` dict.

        Instruments are created on demand with the stored histogram
        bounds; pre-registered instruments keep their registration (and
        their bounds are checked against the stored ones).
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).value = int(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).value = float(value)
        for name, hstate in state.get("histograms", {}).items():
            self.histogram(name, hstate["bounds"]).restore(hstate)


def merge_snapshots(labeled: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-source :meth:`Metrics.snapshot` dicts into one aggregate.

    The merge rules (the sharded-service aggregation contract):

    - **counters** sum across sources — event totals add;
    - **gauges** stay per-source, re-keyed as ``{name: {label: value}}`` —
      a point-in-time level (queue depth, logical clock) has no meaningful
      sum across independent kernels;
    - **histograms** add bucket-wise — sources must bin identically, so
      mismatched bucket bounds raise :class:`ValueError` instead of
      silently mis-merging.

    Sources are combined in ``labeled``'s iteration order (pass shard
    order), so float accumulation (histogram ``sum``) is deterministic.
    Merging a single source returns its counters and histograms unchanged,
    with only the gauges re-keyed by label.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for label, snap in labeled.items():
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges.setdefault(name, {})[label] = value
        for name, hist in snap.get("histograms", {}).items():
            if name not in histograms:
                histograms[name] = {
                    "buckets": dict(hist["buckets"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
                continue
            merged = histograms[name]
            if list(merged["buckets"]) != list(hist["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: source {label!r} bins "
                    f"{list(hist['buckets'])} != {list(merged['buckets'])}; "
                    "fixed-bucket histograms only merge bucket-wise"
                )
            for bucket, count in hist["buckets"].items():
                merged["buckets"][bucket] += count
            merged["count"] += hist["count"]
            merged["sum"] += hist["sum"]
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: dict(gauges[k]) for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }
