"""Command-line entry points: ``ccs-bench`` and ``ccs-serve``.

``ccs-bench`` regenerates the paper's evaluation::

    ccs-bench --list
    ccs-bench table2
    ccs-bench fig5 fig9 --trials 5 --jobs 4
    ccs-bench --all --trials 2

Runs are resumable: task results land in ``--cache-dir`` (default
``.ccs-bench-cache/``, or ``$CCS_BENCH_CACHE_DIR``) keyed by content
fingerprint, so re-running a killed ``ccs-bench --all`` only computes
what is missing.  ``--no-cache`` forces a from-scratch run; ``--jobs N``
fans tasks out over N worker processes with results identical to a
serial run (see docs/EXECUTION.md).

``ccs-serve`` runs the charging-as-a-service daemon over a generated or
recorded request stream (see docs/SERVICE.md)::

    ccs-serve --loadgen poisson --n 200 --rate 0.5 --seed 7 \\
        --journal service.jsonl --metrics-json metrics.json
    ccs-serve --trace requests.jsonl --journal service.jsonl --check-recovery
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .experiments import EXPERIMENTS, FIGURE_BUILDERS, ascii_plot, run_experiment
from .experiments.exec import ParallelExecutor, ResultCache, SerialExecutor

__all__ = ["main", "serve_main"]

#: Environment override for the default cache directory.
CACHE_DIR_ENV = "CCS_BENCH_CACHE_DIR"

_DEFAULT_CACHE_DIR = ".ccs-bench-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccs-bench",
        description=(
            "Regenerate the evaluation tables and figures of 'Cooperative "
            "Charging as Service' (ICDCS 2021)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (available: {', '.join(sorted(EXPERIMENTS))})",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--trials", type=int, default=3, help="instances per sweep point (default 3)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment tasks (default 1 = serial; "
        "results are identical at any level)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=os.environ.get(CACHE_DIR_ENV, _DEFAULT_CACHE_DIR),
        help="task-result cache directory; finished tasks are reused on "
        f"re-runs (default {_DEFAULT_CACHE_DIR!r} or ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the task-result cache",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--plot",
        action="store_true",
        help="additionally render figure experiments as ASCII charts",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        help="also write the results to PATH as a Markdown report",
    )
    parser.add_argument(
        "--engine",
        choices=("object", "array", "auto"),
        default=None,
        help="CCSGA state engine for this run (exported as CCS_ENGINE so "
        "worker processes inherit it; default: $CCS_ENGINE or 'auto'). "
        "Both engines are bit-identical wherever both apply.",
    )
    return parser


def _make_executor(args: argparse.Namespace):
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.jobs > 1:
        return ParallelExecutor(args.jobs, cache=cache)
    return SerialExecutor(cache=cache)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.engine is not None:
        os.environ["CCS_ENGINE"] = args.engine
    if args.list:
        for eid in sorted(EXPERIMENTS):
            print(eid)
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    ids = list(EXPERIMENTS) if args.all else args.experiments
    if not ids:
        print("nothing to run: pass experiment ids, --all, or --list", file=sys.stderr)
        return 2
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    executor = _make_executor(args)
    collected = {}
    for eid in ids:
        if args.plot and eid in FIGURE_BUILDERS:
            from .experiments import render_series
            from .experiments.exec import use_executor

            with use_executor(executor):
                result = FIGURE_BUILDERS[eid](args.trials)
            text = render_series(result) + "\n\n" + ascii_plot(result)
        else:
            text = run_experiment(eid, trials=args.trials, executor=executor)
        collected[eid] = text
        print(text)
        print()
    print(
        f"tasks: {executor.computed} computed, {executor.cache_hits} from cache "
        f"(jobs={executor.jobs})",
        file=sys.stderr,
    )
    if args.export:
        from .experiments import results_markdown

        with open(args.export, "w") as fh:
            fh.write(results_markdown(collected, trials=args.trials))
            fh.write("\n")
        print(f"wrote {args.export}", file=sys.stderr)
    return 0


def _build_serve_parser() -> argparse.ArgumentParser:
    from .service.loadgen import PROFILES

    parser = argparse.ArgumentParser(
        prog="ccs-serve",
        description=(
            "Run the cooperative charging-as-a-service daemon over a "
            "request stream (see docs/SERVICE.md)."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--trace",
        metavar="PATH",
        help="replay a recorded JSONL request trace instead of generating",
    )
    source.add_argument(
        "--loadgen",
        choices=PROFILES,
        default="poisson",
        help="arrival profile for the generated stream (default poisson)",
    )
    parser.add_argument("--n", type=int, default=100, help="requests to generate (default 100)")
    parser.add_argument(
        "--rate", type=float, default=0.5, help="mean arrival rate in req/s (default 0.5)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="advance the logical clock to this time after the last "
        "submission (default: drain immediately)",
    )
    parser.add_argument("--seed", type=int, default=0, help="loadgen seed (default 0)")
    parser.add_argument(
        "--journal", metavar="PATH", help="write the durable journal to PATH"
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the final metrics snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--epoch", type=float, default=60.0, help="replanning period in s (default 60)"
    )
    parser.add_argument(
        "--window", type=float, default=120.0, help="commitment window in s (default 120)"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256, help="admission queue bound (default 256)"
    )
    parser.add_argument(
        "--max-active", type=int, default=None, help="active-device cap (default none)"
    )
    parser.add_argument(
        "--chargers", type=int, default=4, help="chargers on the field grid (default 4)"
    )
    parser.add_argument(
        "--field", type=float, default=100.0, help="square field side in m (default 100)"
    )
    parser.add_argument(
        "--deadline-slack",
        type=float,
        default=None,
        help="give generated requests deadlines this many seconds out",
    )
    parser.add_argument(
        "--max-price-factor",
        type=float,
        default=None,
        help="give generated requests price caps of factor * demand^0.8",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run N independent service kernels behind a spatial router "
        "(see docs/SHARDING.md); 1 = the single unsharded daemon "
        "(default).  With N > 1, --journal names a directory holding one "
        "journal per shard plus a partition manifest",
    )
    parser.add_argument(
        "--halo",
        type=float,
        default=0.0,
        metavar="METERS",
        help="overlap halo of the shard grid: border devices within this "
        "distance of a neighboring cell are quoted against it too "
        "(default 0)",
    )
    parser.add_argument(
        "--check-recovery",
        action="store_true",
        help="after the run, recover a fresh daemon from the journal and "
        "verify the schedule and metrics match byte-for-byte "
        "(requires --journal)",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PATH|seed:N",
        help="inject faults (charger outages, cancellations, no-shows, "
        "journal write failures) from a JSON plan file, or generate one "
        "deterministically from seed N (see docs/FAULTS.md); journal "
        "faults crash and recover the daemon mid-run and require --journal. "
        "With --shards > 1, seed:N generates shard chaos (kills, snapshot "
        "corruption, crash-looping recoveries) for the shard supervisor "
        "instead of journal faults",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="write a checksummed state snapshot roughly every N journal "
        "records and compact the covered journal prefix, bounding recovery "
        "to the suffix replay (see docs/RECOVERY.md; default off)",
    )
    parser.add_argument(
        "--snapshot-keep",
        type=int,
        default=2,
        metavar="K",
        help="snapshot files retained per journal (default 2; compaction "
        "needs at least 2 so one corrupt snapshot never strands recovery)",
    )
    parser.add_argument(
        "--recover-only",
        action="store_true",
        help="skip the run: recover a daemon from --journal, report its "
        "state, and exit — nonzero with a one-line structured error when "
        "the journal directory is corrupt beyond repair",
    )
    return parser


def _grid_chargers(k: int, side: float):
    """*k* chargers on a deterministic sqrt-grid over a square field."""
    import math

    from .geometry import Point
    from .wpt import Charger

    cols = max(1, math.ceil(math.sqrt(k)))
    rows = max(1, math.ceil(k / cols))
    chargers = []
    for i in range(k):
        r, c = divmod(i, cols)
        chargers.append(
            Charger(
                charger_id=f"c{i}",
                position=Point(
                    side * (c + 1) / (cols + 1), side * (r + 1) / (rows + 1)
                ),
            )
        )
    return chargers


def _load_fault_plan(spec: str, requests, chargers, n_shards: int = 1):
    """Resolve ``--fault-plan``: a JSON file path or ``seed:N``.

    With ``n_shards > 1`` a generated plan swaps journal faults (which
    assume a single kernel) for the self-healing chaos mix drawn per
    shard by :meth:`~repro.faults.plan.FaultPlan.generate_supervised`:
    shard kills, snapshot corruption, crashes mid-snapshot, and
    crash-looping recoveries.
    """
    from .faults import FaultPlan

    if spec.startswith("seed:"):
        seed = int(spec[len("seed:"):])
        if n_shards > 1:
            horizon = max(
                (float(r.submitted_at) for r in requests), default=0.0
            ) + 600.0
            plan = FaultPlan.generate(
                seed,
                charger_ids=[c.charger_id for c in chargers],
                requests=requests,
                journal_faults=0,
            )
            chaos = FaultPlan.generate_supervised(seed, n_shards, horizon)
            return FaultPlan(list(plan.events) + list(chaos.events))
        return FaultPlan.generate(
            seed,
            charger_ids=[c.charger_id for c in chargers],
            requests=requests,
        )
    return FaultPlan.load(spec)


def _structured_error(exc: BaseException) -> None:
    """One machine-parsable line on stderr for unrecoverable failures."""
    print(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True,
        ),
        file=sys.stderr,
    )


def _recover(args, chargers, config, **kwargs):
    """Recover a daemon from ``--journal`` (sharded when ``--shards > 1``)."""
    if args.shards > 1:
        from .shard import ShardedService

        recover = ShardedService.recover
    else:
        from .service import ChargingService

        recover = ChargingService.recover
    return recover(
        args.journal, chargers, config=config,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
        **kwargs,
    )


def _close(service) -> None:
    """Release *service*'s journals (idempotent)."""
    from .shard import ShardedService

    if isinstance(service, ShardedService):
        service.close()
    elif service.journal is not None:
        service.journal.close()


def _export_metrics(args, service) -> None:
    """``--metrics-json``: write the deterministic metrics snapshot."""
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(service.metrics_snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_json}", file=sys.stderr)


def _check_recovery(args, service, chargers, config) -> int:
    """``--check-recovery``: recover a fresh daemon from the journal.

    Closes *service*, recovers from ``--journal``, and compares the final
    schedule and metrics byte-for-byte.  Returns the exit code: 0 on a
    match, 1 when the recovered state diverged, 3 with a one-line
    structured error when recovery is impossible.
    """
    from .errors import ServiceError

    _close(service)
    try:
        recovered = _recover(args, chargers, config)
    except ServiceError as exc:
        _structured_error(exc)
        return 3
    ok = (
        recovered.final_schedule() == service.final_schedule()
        and recovered.metrics_snapshot() == service.metrics_snapshot()
    )
    _close(recovered)
    if not ok:
        print("recovery check FAILED: recovered state diverged", file=sys.stderr)
        return 1
    print("recovery check OK", file=sys.stderr)
    return 0


def _finish(args, service, chargers, config) -> int:
    """The shared tail of a run: metrics export, recovery check, close."""
    _export_metrics(args, service)
    rc = _check_recovery(args, service, chargers, config) if args.check_recovery else 0
    _close(service)
    return rc


def _recover_only(args, chargers, config) -> int:
    """The ``--recover-only`` path: rebuild from the journal and report.

    Exit 0 with a state summary on success; exit 3 with a one-line
    structured error (JSON on stderr) when recovery is impossible —
    corruption beyond repair, a manifest schema mismatch, or a config
    that does not match the journal's ``open`` header.
    """
    from .errors import ServiceError

    try:
        service = _recover(args, chargers, config, journal_sync=False)
    except ServiceError as exc:
        _structured_error(exc)
        return 3
    counts = service.counts()
    sessions = service.final_schedule()
    print(f"recovered: {len(sessions)} sessions")
    print("  " + "  ".join(f"{state}={n}" for state, n in sorted(counts.items())))
    _export_metrics(args, service)
    _close(service)
    return 0


def _serve_sharded(args, requests, chargers, config) -> int:
    """The ``--shards N > 1`` path: one journal per shard, supervised.

    Every run goes through a :class:`~repro.shard.supervisor.ShardSupervisor`
    — the only shard-recovery path — so a shard death, injected or real,
    heals in place instead of ending the run.
    """
    from .faults import drive
    from .geometry import Field
    from .shard import ShardedService, ShardSupervisor

    fault_plan = None
    if args.fault_plan:
        fault_plan = _load_fault_plan(
            args.fault_plan, requests, chargers, n_shards=args.shards
        )
        if fault_plan.journal_faults():
            print(
                "journal faults are per-kernel; with --shards > 1 use "
                "shard_kill events instead (seed:N generates them)",
                file=sys.stderr,
            )
            return 2
        if fault_plan.supervisor_events() and not args.journal:
            print("shard chaos events require --journal", file=sys.stderr)
            return 2

    field = Field(args.field, args.field)
    service = ShardedService(
        chargers,
        n_shards=args.shards,
        field=field,
        halo=args.halo,
        config=config,
        journal_dir=args.journal,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
    )
    supervisor = ShardSupervisor(service, seed=args.seed)
    drive(
        service, requests, fault_plan, supervisor=supervisor,
        advance_to=args.duration,
    )
    supervisor.close()
    stats = supervisor.stats
    print(
        f"supervisor: {stats['failures']} failures, "
        f"{stats['restarts']} restarts, "
        f"{stats['recoveries']} recoveries, "
        f"{stats['escalations']} escalations "
        f"(logical backoff {stats['total_backoff']:.1f} s)"
    )
    if fault_plan is not None:
        print(
            f"faults: {len(fault_plan)} scheduled, {stats['kills']} shard "
            f"kills ({stats['torn_kills']} torn), "
            f"{stats['skipped_kills']} skipped"
        )

    counts = service.counts()
    sessions = service.final_schedule()
    grid = service.partition
    print(
        f"shards: {len(service.kernels)} kernels over a "
        f"{grid.rows}x{grid.cols} grid (halo {grid.halo:g} m)"
    )
    print(f"requests: {len(requests)}  sessions: {len(sessions)}")
    print("  " + "  ".join(f"{state}={n}" for state, n in sorted(counts.items())))
    moves = sum(k.planner.ops["moves"] for k in service.kernels.values())
    repairs = sum(k.planner.ops["repair_moves"] for k in service.kernels.values())
    solves = sum(k.planner.ops["full_solves"] for k in service.kernels.values())
    print(f"replanner: {moves} moves, {repairs} repairs, {solves} full solves")
    return _finish(args, service, chargers, config)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``ccs-serve`` entry point; returns a process exit code."""
    from .geometry import Field
    from .service import ChargingService, ServiceConfig
    from .service.loadgen import generate_requests, read_trace

    args = _build_serve_parser().parse_args(argv)
    if args.check_recovery and not args.journal:
        print("--check-recovery requires --journal", file=sys.stderr)
        return 2
    if args.chargers < 1:
        print(f"--chargers must be >= 1, got {args.chargers}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.snapshot_every is not None and args.snapshot_every < 1:
        print(
            f"--snapshot-every must be >= 1, got {args.snapshot_every}",
            file=sys.stderr,
        )
        return 2
    if args.snapshot_keep < 1:
        print(f"--snapshot-keep must be >= 1, got {args.snapshot_keep}", file=sys.stderr)
        return 2
    if args.recover_only and not args.journal:
        print("--recover-only requires --journal", file=sys.stderr)
        return 2

    if args.recover_only:
        chargers = _grid_chargers(args.chargers, args.field)
        config = ServiceConfig(
            epoch=args.epoch,
            window=args.window,
            queue_limit=args.queue_limit,
            max_active=args.max_active,
        )
        return _recover_only(args, chargers, config)

    if args.trace:
        requests = read_trace(args.trace)
    else:
        requests = generate_requests(
            args.n,
            rate=args.rate,
            field=Field(args.field, args.field),
            profile=args.loadgen,
            deadline_slack=args.deadline_slack,
            max_price_factor=args.max_price_factor,
            rng=args.seed,
        )

    chargers = _grid_chargers(args.chargers, args.field)
    config = ServiceConfig(
        epoch=args.epoch,
        window=args.window,
        queue_limit=args.queue_limit,
        max_active=args.max_active,
    )
    if args.shards > 1:
        return _serve_sharded(args, requests, chargers, config)
    fault_plan = None
    if args.fault_plan:
        fault_plan = _load_fault_plan(args.fault_plan, requests, chargers)
        if fault_plan.supervisor_events():
            print(
                "shard chaos events require --shards > 1", file=sys.stderr
            )
            return 2
        if fault_plan.journal_faults() and not args.journal:
            print(
                "--fault-plan with journal faults requires --journal",
                file=sys.stderr,
            )
            return 2

    if fault_plan is not None and fault_plan.journal_faults():
        from .faults import drive_with_recovery

        service, fault_stats = drive_with_recovery(
            args.journal, chargers, requests, fault_plan,
            config=config, advance_to=args.duration,
        )
        print(
            f"faults: {len(fault_plan)} scheduled, "
            f"{fault_stats['crashes']} crashes, "
            f"{fault_stats['recoveries']} recoveries"
        )
    elif fault_plan is not None:
        from .faults import drive

        service = ChargingService(
            chargers, config=config, journal_path=args.journal,
            snapshot_every=args.snapshot_every, snapshot_keep=args.snapshot_keep,
        )
        drive(service, requests, fault_plan, advance_to=args.duration)
        print(f"faults: {len(fault_plan)} scheduled")
    else:
        service = ChargingService(
            chargers, config=config, journal_path=args.journal,
            snapshot_every=args.snapshot_every, snapshot_keep=args.snapshot_keep,
        )
        for request in requests:
            service.submit(request)
        if args.duration is not None:
            service.advance(args.duration)
        service.drain()

    counts = service.counts()
    sessions = service.final_schedule()
    print(f"requests: {len(requests)}  sessions: {len(sessions)}")
    print("  " + "  ".join(f"{state}={n}" for state, n in sorted(counts.items())))
    ops = service.planner.ops
    print(
        f"replanner: {ops['moves']} moves, {ops['repair_moves']} repairs, "
        f"{ops['full_solves']} full solves"
    )

    return _finish(args, service, chargers, config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
