"""Deployed-daemon benchmark: restart time, submit latency and throughput.

Drives :class:`repro.shard.ShardedService` as it is deployed — a journal
directory on the checkout's disk, an fsync after every journal append,
automatic snapshots with compaction — with one caller in one thread, in
a closed loop: each timeline input is fed when the previous call
returns, because the daemon is a single-threaded in-process kernel.  The
workloads are described in :mod:`workloads`.

One run of one workload:

1. builds the inputs from ``--seed`` and journals the history (untimed);
2. repeats rounds until ``--seconds`` of restart plus serving time are
   measured, and at least :data:`MIN_ROUNDS` times.  A round restarts
   the daemon :data:`RESTARTS` times, each on a fresh copy of the history
   directory, timing ``ShardedService.recover`` (snapshot loads plus
   suffix replays, until the first submit can be served), then feeds the
   last restarted daemon the serving timeline and the final ``drain``,
   timing every input.  Every two rounds the process moves to the next
   CPU it may run on;
3. checks every restart and every round; a failed check counts as a
   failed operation.

The checks: each restarted daemon's final schedule and deterministic
metrics equal the history writer's byte for byte; after ``drain`` every
request is terminal and the lifecycle counts sum to the requests
submitted; every ``done`` request paid at most its quote plus ``tol``;
recovering the final journal directory reproduces the final schedule and
metrics (first round).  Deterministic outcomes and program counters must
repeat in every round and, keyed by a digest of the program source, in
every later run of the same workload and seed, traced or not.

Every round feeds the same restarted state the same inputs, so each
input does the same work in every round (the determinism check above
holds the program to that).  A shared host only ever adds time to it, so
an input's latency is its fastest round: ``submit_p50_us`` and
``submit_p99_us`` are percentiles over the submits of those, and
``throughput_rps`` divides the submits by their sum over the serving
timeline plus ``drain``.  ``setup_s`` is the median restart.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (:mod:`spans`) and prints the per-layer
metrics, the tail-latency attribution and the tracing overhead.  Every
timing is wall clock (``time.perf_counter``), never CPU time.

Usage::

    python3 benchmarks/e2e/run.py --workload steady --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".e2e-work"
CACHE = ROOT / ".e2e-cache" / "fingerprints.json"

#: Rounds per run at least, so every input has that many timings.
MIN_ROUNDS = 4
MAX_ROUNDS = 40
#: Restarts per round; ``setup_s`` is the median of all of a run's.
RESTARTS = 2
#: Traced rounds per ``--trace 1`` run at least (as many untraced ones).
MIN_TRACED = 2

Metric = Tuple[float, str]


@dataclass
class Round:
    """What one restart-and-serve round measured and checked."""

    traced: bool
    setup_s: List[float] = field(default_factory=list)
    serve_s: float = 0.0
    #: Wall time of each serving input, then of ``drain``.
    times: List[float] = field(default_factory=list)
    outcome: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    submit_roots: List[Tuple[str, float, Dict[str, float]]] = field(default_factory=list)
    inputs: int = 0
    checks: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            print(f"# CHECK FAILED: {what}", file=sys.stderr)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def boundaries(service: Any) -> int:
    """Epoch boundaries the kernels have processed, summed.

    This is Σ⌊clock/epoch⌋, except that ``drain`` runs each kernel's clock
    on to its last session completion without stepping the epochs it
    passes; those are not counted.
    """
    return sum(k._epoch_index for k in service.kernels.values())


def op_counter(kernel: Any, name: str) -> int:
    return int(kernel.metrics.counter(name, operational=True).value)


def sync_tree(path: Path) -> None:
    """fsync every file and directory under *path*.

    A restarted daemon finds its files on disk; syncing the copy keeps
    its write-back out of the timed restart and serving phase.
    """
    for sub, _dirs, files in os.walk(path):
        for name in [*files, "."]:
            fd = os.open(os.path.join(sub, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def serve(service: Any, items: List[Any], rnd: Round) -> Tuple[int, int]:
    """Feed the serving timeline and drain, timing every input.

    Returns how many submits crossed an epoch boundary and how many
    triggered a snapshot — the submits in the slow latency modes.
    """
    from repro.faults import apply_event

    kernels = [service.kernels[s] for s in sorted(service.kernels)]
    snaps = [k.metrics.counter("snapshots_written", operational=True) for k in kernels]
    crossed = snapped = 0
    times = rnd.times
    start = perf_counter()
    for item in items:
        if item[0] != "submit":
            t0 = perf_counter()
            apply_event(service, item)
            times.append(perf_counter() - t0)
            continue
        b0 = boundaries(service)
        s0 = sum(c.value for c in snaps)
        t0 = perf_counter()
        service.submit(item[2])
        times.append(perf_counter() - t0)
        crossed += boundaries(service) != b0
        snapped += sum(c.value for c in snaps) != s0
    t0 = perf_counter()
    service.drain()
    times.append(perf_counter() - t0)
    rnd.serve_s = perf_counter() - start
    rnd.inputs = len(items) + 1
    return crossed, snapped


def restart(
    inputs: Any, reference: Tuple[str, str], round_dir: Path, rnd: Round, tracer: Any = None
) -> Tuple[Any, Any]:
    """Copy the history, time one restart on the copy, check it.

    Returns the restarted daemon and, when traced, the restart's spans.
    """
    from workloads import outputs

    shutil.copytree(inputs.history_dir, round_dir)
    sync_tree(round_dir)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    t0 = perf_counter()
    service = inputs.recover(round_dir)
    rnd.setup_s.append(perf_counter() - t0)
    spans = tracer.reset() if tracer is not None else None
    try:
        rnd.check(outputs(service) == reference, "restart reproduces the history")
    except BaseException:
        service.close()
        raise
    return service, spans


def run_round(
    inputs: Any, reference: Tuple[str, str], round_dir: Path,
    tracer: Any, final_check: bool,
) -> Round:
    """:data:`RESTARTS` restarts of history copies, one serving phase, the checks."""
    from repro.service import RequestState
    from workloads import CONFIG, outputs

    rnd = Round(traced=tracer is not None)
    for _ in range(RESTARTS - 1):
        restart(inputs, reference, round_dir, rnd)[0].close()
        shutil.rmtree(round_dir)
    service, restarted = restart(inputs, reference, round_dir, rnd, tracer)
    try:
        kernels = [service.kernels[s] for s in sorted(service.kernels)]
        replayed = sum(op_counter(k, "recovery.records_replayed") for k in kernels)
        b0 = boundaries(service)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        crossed, snapped = serve(service, inputs.serving, rnd)
        served = tracer.reset() if tracer is not None else None
        n_boundaries = boundaries(service) - b0

        counts = service.counts()
        live = sum(counts.get(s, 0) for s in counts if s not in RequestState.TERMINAL)
        rnd.check(
            live == 0 and sum(counts.values()) == inputs.n_requests,
            f"drain leaves every request terminal: {counts}",
        )
        over = [
            rid
            for k in kernels
            for rid, rec in k.requests.items()
            if rec.state == RequestState.DONE
            and not rec.realized_cost <= rec.quote + CONFIG.tol
        ]
        rnd.check(not over, f"done requests within quote + tol: {over[:5]}")
        done_costs = [
            rec.realized_cost
            for k in kernels
            for rec in k.requests.values()
            if rec.state == RequestState.DONE
        ]
        final = outputs(service)
        rnd.outcome = {
            "final": hashlib.sha256("".join(final).encode()).hexdigest(),
            "counts": counts,
            "served_ratio": len(done_costs) / inputs.n_requests,
            "cost_per_served": math.fsum(done_costs) / max(1, len(done_costs)),
            "crossed": crossed,
            "snapped": snapped,
            "boundaries": n_boundaries,
            "records_replayed": replayed,
            "kernels": {
                str(sid): {
                    "ops": dict(service.kernels[sid].planner.ops),
                    "seq": service.kernels[sid].journal.seq,
                    "snapshots": op_counter(service.kernels[sid], "snapshots_written"),
                    "compacted": op_counter(service.kernels[sid], "journal.compacted_records"),
                }
                for sid in sorted(service.kernels)
            },
        }
        if restarted is not None and served is not None:
            rnd.layers = layer_metrics(restarted, served, rnd, inputs, n_boundaries, replayed)
            rnd.submit_roots = [r for r in served.roots if r[0] == "facade.submit"]
    finally:
        service.close()
    if final_check:
        again = inputs.recover(round_dir, sync=False)
        try:
            rnd.check(outputs(again) == final, "final journal recovers the final outputs")
        finally:
            again.close()
    shutil.rmtree(round_dir)
    return rnd


def layer_metrics(
    restarted: Any, served: Any, rnd: Round, inputs: Any, n_boundaries: int, replayed: int
) -> Dict[str, Metric]:
    """Per-layer metrics of one traced round (serving phase unless noted)."""
    calls, incl, counts = served.calls, served.incl, served.counts
    routes = calls["router.route"]
    folds = calls["planner.fold"]
    decided = calls["admission.decide"]
    return {
        "router.calls": (routes, "count"),
        "router.busy_s": (incl["router.route"], "s"),
        "router.quotes_per_call": (
            served.nested[("planner.quote", "router.route")] / routes if routes else 0.0,
            "ratio",
        ),
        "quote.calls": (calls["planner.quote"], "count"),
        "quote.busy_s": (incl["planner.quote"], "s"),
        "fold.calls": (folds, "count"),
        "fold.busy_s": (incl["planner.fold"], "s"),
        "fold.devices": (counts["fold.devices"], "count"),
        "fold.moves": (counts["fold.moves"], "count"),
        "fold.repair_moves": (counts["fold.repair_moves"], "count"),
        "fold.candidates": (counts["fold.candidates"], "count"),
        "remove.calls": (calls["planner.remove"], "count"),
        "remove.busy_s": (incl["planner.remove"], "s"),
        "admission.reject_ratio": (
            counts["admission.rejects"] / decided if decided else 0.0, "ratio",
        ),
        "journal.appends": (calls["journal.append"], "count"),
        "journal.records_per_request": (
            calls["journal.append"] / len(inputs.submits), "ratio",
        ),
        "journal.bytes": (counts["journal.bytes"], "bytes"),
        "journal.busy_s": (incl["journal.append"] + incl["journal.seed"], "s"),
        "compact.calls": (calls["journal.truncate_prefix"], "count"),
        "compact.records_dropped": (counts["compact.records_dropped"], "count"),
        "compact.busy_s": (served.group_self["compact"], "s"),
        "fsync.calls": (calls["os.fsync"], "count"),
        "fsync.busy_s": (incl["os.fsync"], "s"),
        "snapshot.writes": (calls["snapshot.write"], "count"),
        "snapshot.bytes": (counts["snapshot.bytes"], "bytes"),
        "snapshot.busy_s": (served.group_self["snapshot"], "s"),
        "snapshot.state_s": (incl["snapshot.state"], "s"),
        "kernel.self_s": (
            sum(v for k, v in served.self_s.items() if k.startswith("kernel.")), "s",
        ),
        "kernel.boundaries": (n_boundaries, "count"),
        "kernel.empty_boundaries": (n_boundaries - folds, "count"),
        "recover.busy_s": (restarted.incl["recover.service"], "s"),
        "recover.read_s": (restarted.incl["journal.read"], "s"),
        "recover.snapshot_load_s": (restarted.incl["snapshot.load"], "s"),
        "recover.records_replayed": (replayed, "count"),
        "recover.records_seeded": (restarted.counts["journal.records_seeded"], "count"),
        "recover.fsync_calls": (restarted.calls["os.fsync"], "count"),
        "trace.coverage": (sum(r[1] for r in served.roots) / rnd.serve_s, "ratio"),
    }


def tail_shares(roots: List[Tuple[str, float, Dict[str, float]]]) -> Dict[str, Metric]:
    """Each layer's share of self time across the submits at or above p99."""
    from spans import TAIL_GROUPS

    cut = percentile(sorted(r[1] for r in roots), 0.99)
    tail = [r for r in roots if r[1] >= cut]
    total = sum(r[1] for r in tail)
    return {
        f"tail.{g}_share": (sum(r[2].get(g, 0.0) for r in tail) / total, "ratio")
        for g in TAIL_GROUPS
    }


# ---------------------------------------------------------------------- #
# determinism across runs


def source_digest() -> str:
    """Digest of the program and benchmark sources a fingerprint holds for."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def agrees_with_earlier_runs(key: str, value: Any) -> bool:
    """Record *value* under *key*, or compare it with the recorded one."""
    from workloads import canonical

    try:
        known = json.loads(CACHE.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        known = {}
    doc = json.loads(canonical(value))
    if key in known:
        return bool(known[key] == doc)
    known[key] = doc
    CACHE.parent.mkdir(parents=True, exist_ok=True)
    tmp = CACHE.with_name(CACHE.name + ".tmp")
    tmp.write_text(canonical(known), encoding="utf-8")
    os.replace(tmp, CACHE)
    return True


# ---------------------------------------------------------------------- #
# host and report


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/self/mounts)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def report(name: str, value: float, unit: str) -> None:
    print(f"{name:28s} {value:16.6g} {unit}")


def fastest(rounds: List[Round]) -> List[float]:
    """Each serving input's (and ``drain``'s) fastest time over *rounds*."""
    return [min(col) for col in zip(*(r.times for r in rounds))]


def throughput(rounds: List[Round], inputs: Any) -> float:
    return len(inputs.submits) / math.fsum(fastest(rounds))


def end_to_end(rounds: List[Round], inputs: Any) -> Dict[str, Metric]:
    best = fastest(rounds)
    lat = sorted(best[i] for i in inputs.submits)
    first = rounds[0].outcome
    return {
        "throughput_rps": (throughput(rounds, inputs), "req/s"),
        "submit_p50_us": (percentile(lat, 0.5) * 1e6, "us"),
        "submit_p99_us": (percentile(lat, 0.99) * 1e6, "us"),
        "setup_s": (statistics.median(s for r in rounds for s in r.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "served_ratio": (first["served_ratio"], "ratio"),
        "cost_per_served": (first["cost_per_served"], "cost"),
    }


def per_layer(traced: List[Round], plain: List[Round], inputs: Any) -> Dict[str, Metric]:
    names = traced[0].layers
    out = {
        name: (statistics.median(r.layers[name][0] for r in traced), unit)
        for name, (_v, unit) in names.items()
    }
    out.update(tail_shares([root for r in traced for root in r.submit_roots]))
    out["trace.overhead"] = (
        throughput(traced, inputs) / throughput(plain, inputs), "ratio",
    )
    return out


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from spans import Tracer
    from workloads import CONFIG, WORKLOADS, Inputs

    if args.workload not in WORKLOADS:
        print(f"e2e benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    inputs = Inputs(w, args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    rounds: List[Round] = []
    errors = 0
    try:
        reference = inputs.build_history(work / "history")
        sync_tree(inputs.history_dir)
        tracer = Tracer() if args.trace else None
        cpus = sorted(os.sched_getaffinity(0))
        measured = 0.0
        while len(rounds) < MAX_ROUNDS:
            n_traced = sum(r.traced for r in rounds)
            enough = len(rounds) >= MIN_ROUNDS and (
                tracer is None or min(n_traced, len(rounds) - n_traced) >= MIN_TRACED
            )
            if enough and measured >= args.seconds:
                break
            # Round 0 is untraced and also checks the final journal.
            use = tracer if tracer is not None and len(rounds) % 2 == 1 else None
            # On a shared host one CPU can run much slower than another for
            # seconds at a time; moving every two rounds (one untraced, one
            # traced) to the next CPU keeps an input's fastest round from
            # depending on where the scheduler happened to put the process.
            os.sched_setaffinity(0, {cpus[len(rounds) // 2 % len(cpus)]})
            round_dir = work / f"round-{len(rounds)}"
            if use is None:
                rnd = run_round(inputs, reference, round_dir, None, not rounds)
            else:
                with use.installed():
                    rnd = run_round(inputs, reference, round_dir, use, False)
            rounds.append(rnd)
            measured += sum(rnd.setup_s) + rnd.serve_s
            print(
                f"# round {len(rounds) - 1}: traced={int(rnd.traced)} setup_s="
                + ",".join(f"{s:.4f}" for s in rnd.setup_s)
                + f" serve_s={rnd.serve_s:.4f}"
            )
    except Exception:
        traceback.print_exc()
        errors += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    failed = errors + sum(r.failed for r in rounds)
    if plain:
        outcome = plain[0].outcome
        base = f"{source_digest()}/{w.name}/{args.seed}"
        same = all(r.outcome == outcome for r in rounds) and agrees_with_earlier_runs(
            f"{base}/outcome", outcome
        )
        if traced:
            counts = {
                k: v for k, (v, unit) in traced[0].layers.items() if unit in ("count", "bytes")
            }
            same = same and all(
                {k: r.layers[k][0] for k in counts} == counts for r in traced
            ) and agrees_with_earlier_runs(f"{base}/layers", counts)
        if not same:
            print("# CHECK FAILED: deterministic outcomes differ across rounds or runs",
                  file=sys.stderr)
            failed += 1
    attempted = max(1, sum(r.inputs + r.checks for r in rounds) + 1)

    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"# host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"journal_fs={filesystem_of(WORK)}"
    )
    print(
        f"# daemon: shards={w.shards} halo={w.halo} journal_sync=True (fsync per append) "
        f"snapshot_every={w.snapshot_every} snapshot_keep=2 compact=True epoch={CONFIG.epoch}"
    )
    print("# timing: wall clock (time.perf_counter), not CPU time; closed loop, "
          "1 caller, 1 thread; an input's time is its fastest of the rounds")
    metrics: Dict[str, Metric] = {}
    if plain:
        first = plain[0].outcome
        n = len(inputs.submits)
        print(
            f"# rounds={len(rounds)} (traced {len(traced)}) restarts={len(rounds) * RESTARTS} "
            f"submits/round={n} beyond p99={n - math.ceil(0.99 * n)}"
        )
        print(
            f"# slow-mode submits: boundary {first['crossed'] / n:.2%} "
            f"snapshot {first['snapped'] / n:.2%} "
            "(p99 stays off the mode edge when a share is >=2% or <=0.5%)"
        )
        e2e = end_to_end(plain, inputs)
        for name, (value, unit) in e2e.items():
            report(name, value, unit)
        metrics = e2e
        if traced:
            metrics = per_layer(traced, plain, inputs)
            print("# per-layer (median over traced rounds; serving phase unless recover.*)")
            for name, (value, unit) in metrics.items():
                report(name, value, unit)
            tail = {k: v for k, (v, _u) in metrics.items() if k.startswith("tail.")}
            top = max(tail, key=lambda k: tail[k])
            print(f"# dominant layer of submit_p99_us on {w.name}: {top[5:-6]}")
    print(f"# checks: {sum(r.checks for r in rounds)} run, {failed} failed")
    print(json.dumps({
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
