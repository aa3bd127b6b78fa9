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
        --journal service/ --metrics-json metrics.json
    ccs-serve --trace requests.jsonl --journal service/ --check-recovery
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .experiments import EXPERIMENTS
from .experiments.exec import ParallelExecutor, ResultCache, SerialExecutor, use_executor

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
        help="also render each figure series as an ASCII chart, after the text",
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
        experiment = EXPERIMENTS[eid]
        with use_executor(executor):
            results = experiment.build(args.trials)
        text = experiment.plot(results) if args.plot else experiment.render(results)
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
        "--journal",
        metavar="DIR",
        help="journal durably into directory DIR: a partition manifest, one "
        "journal per shard, and the supervision journal",
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
        "(see docs/SHARDING.md; default 1, which serves exactly like one "
        "kernel)",
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
        "faults crash the daemon mid-run, the shard supervisor recovers "
        "it, and they require --journal and one shard. "
        "With --shards > 1, seed:N generates shard chaos (kills, snapshot "
        "corruption, crash-looping recoveries) instead of journal faults",
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

    A generated plan crashes a one-shard daemon with a journal write
    fault.  With ``n_shards > 1`` (journal faults key on one kernel's
    record seqs) :meth:`~repro.faults.plan.FaultPlan.generate` draws its
    shard chaos mix instead: shard kills, snapshot corruption, crashes
    mid-snapshot, and crash-looping recoveries.
    """
    from .errors import ConfigurationError
    from .faults import FaultPlan

    if not spec.startswith("seed:"):
        return FaultPlan.load(spec)
    try:
        seed = int(spec[len("seed:"):])
    except ValueError:
        raise ConfigurationError(f"fault plan seed must be an integer, got {spec!r}") from None
    return FaultPlan.generate(
        seed,
        charger_ids=[c.charger_id for c in chargers],
        requests=requests,
        journal_faults=1 if n_shards == 1 else 0,
        n_shards=0 if n_shards == 1 else n_shards,
    )


def _recover(args, chargers, config, **kwargs):
    """Recover the daemon from its ``--journal`` directory.

    Returns ``None`` when recovery is impossible, after printing one
    machine-parsable line on stderr: the typed error's name and message.
    """
    from .errors import ServiceError
    from .shard import ShardedService

    try:
        return ShardedService.recover(
            args.journal, chargers, config=config,
            snapshot_every=args.snapshot_every,
            snapshot_keep=args.snapshot_keep,
            **kwargs,
        )
    except ServiceError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return None


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
    service.close()
    recovered = _recover(args, chargers, config)
    if recovered is None:
        return 3
    ok = (
        recovered.final_schedule() == service.final_schedule()
        and recovered.metrics_snapshot() == service.metrics_snapshot()
    )
    recovered.close()
    if not ok:
        print("recovery check FAILED: recovered state diverged", file=sys.stderr)
        return 1
    print("recovery check OK", file=sys.stderr)
    return 0


def _recover_only(args, chargers, config) -> int:
    """The ``--recover-only`` path: rebuild from the journal and report.

    Exit 0 with a state summary on success; exit 3 with a one-line
    structured error (JSON on stderr) when recovery is impossible —
    corruption beyond repair, a manifest schema mismatch, a missing
    shard journal, or a config that does not match the journal's
    ``open`` header.
    """
    service = _recover(args, chargers, config, journal_sync=False)
    if service is None:
        return 3
    counts = service.counts()
    sessions = service.final_schedule()
    print(f"recovered: {len(sessions)} sessions")
    print("  " + "  ".join(f"{state}={n}" for state, n in sorted(counts.items())))
    _export_metrics(args, service)
    service.close()
    return 0


def _serve(args, requests, chargers, config) -> int:
    """Run the daemon: one :class:`~repro.shard.service.ShardedService`
    (``--shards`` kernels; one by default) under one
    :class:`~repro.shard.supervisor.ShardSupervisor`.

    The supervisor is the only crash loop: a shard death, injected or
    real — a killed shard, a journal write fault — heals in place
    instead of ending the run.
    """
    from .errors import ConfigurationError
    from .faults import drive
    from .geometry import Field
    from .shard import ShardedService, ShardSupervisor

    fault_plan = None
    if args.fault_plan:
        fault_plan = _load_fault_plan(
            args.fault_plan, requests, chargers, n_shards=args.shards
        )
        if fault_plan.supervisor_events() and not args.journal:
            print("shard chaos events require --journal", file=sys.stderr)
            return 2

    service = ShardedService(
        chargers,
        n_shards=args.shards,
        field=Field(args.field, args.field),
        halo=args.halo,
        config=config,
        journal_dir=args.journal,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
    )
    # Each journal write fault crashes the live shard or one recovery
    # attempt, so a budget above their count never escalates on them.
    armed = len(fault_plan.journal_faults()) if fault_plan is not None else 0
    with ShardSupervisor(
        service, seed=args.seed, max_restarts=max(3, armed + 1)
    ) as supervisor:
        try:
            drive(
                service, requests, fault_plan, supervisor=supervisor,
                advance_to=args.duration,
            )
        except ConfigurationError:
            # A plan the service cannot run, or a non-finite --duration:
            # reported by serve_main as one line, exit 2.
            service.close()
            raise
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
    _export_metrics(args, service)
    rc = _check_recovery(args, service, chargers, config) if args.check_recovery else 0
    service.close()
    return rc


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``ccs-serve`` entry point; returns a process exit code."""
    from .errors import ConfigurationError
    from .geometry import Field
    from .service import ServiceConfig
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

    # The config, the stream, the fault plan and the service check their
    # own arguments; a bad one ends the run here with one line, exit 2.
    try:
        field = Field.square(args.field)
        chargers = _grid_chargers(args.chargers, args.field)
        config = ServiceConfig(
            epoch=args.epoch,
            window=args.window,
            queue_limit=args.queue_limit,
            max_active=args.max_active,
        )
        if args.recover_only:
            return _recover_only(args, chargers, config)
        if args.trace:
            requests = read_trace(args.trace)
        else:
            requests = generate_requests(
                args.n,
                rate=args.rate,
                field=field,
                profile=args.loadgen,
                deadline_slack=args.deadline_slack,
                max_price_factor=args.max_price_factor,
                rng=args.seed,
            )
        return _serve(args, requests, chargers, config)
    except ConfigurationError as exc:
        print(f"ccs-serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
