"""Micro-benchmark of the CCSGA hot path — the perf-trajectory anchor.

Unlike the figure-reproduction benchmarks, this one times the solver
itself: full ``ccsga()`` runs, reporting sweeps/sec and
share-evaluations/sec (every candidate evaluation prices exactly one
hypothetical share, counted via an instrumented scheme).  Since the
array engine landed, every size runs under both engines where feasible:

- **both engines** at n ∈ {50, 200, 800} — the paired cases quantify the
  vectorization speedup directly;
- **array engine only** at n ∈ {5,000, 20,000, 50,000} — the object
  engine's per-candidate python scan is capped at n ≤ 800
  (``OBJECT_CAP_N``); beyond that its wall time is minutes and teaches
  nothing new.  Large-case speedups are reported against the object
  engine's best recorded throughput (its n=800 case).

Three entry points:

- ``pytest benchmarks/bench_core_hotpath.py --benchmark-only`` — timed
  under pytest-benchmark like the rest of the suite;
- ``PYTHONPATH=src python benchmarks/bench_core_hotpath.py`` — standalone,
  rewrites ``benchmarks/BENCH_ccsga.json`` (checked in; the performance
  trajectory).  Regenerate it whenever the hot path changes materially
  and record before/after in CHANGES.md;
- ``... bench_core_hotpath.py --skip-large`` (``make bench-hotpath``) —
  re-measures the small paired cases and the smoke budget only, keeping
  the checked-in large-case numbers; ``make bench-large`` drops the flag
  and re-measures everything up to n=50,000 (~a minute of wall time).

The JSON also carries ``smoke_budget_s``, the loose wall-time budget the
tier-1 smoke test (``tests/test_bench_smoke.py`` / ``make bench-smoke``)
enforces with a 3× margin to catch accidental O(n²) reintroductions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import EgalitarianSharing, ccsga

HERE = Path(__file__).parent
RESULT_FILE = HERE / "BENCH_ccsga.json"

SIZES = ((50, 6), (200, 10), (800, 16))
LARGE_SIZES = ((5_000, 32), (20_000, 48), (50_000, 64))
SEED = 42
SIDE = 1000.0
CAPACITY = 8

# Above this the object engine's python candidate scan takes minutes per
# run; only the array engine is measured there.
OBJECT_CAP_N = 800

# The tier-1 smoke case: small enough to stay cheap in CI, large enough
# that a reintroduced O(n * sum |S|) scan blows the 3x budget.
SMOKE_N, SMOKE_M = 300, 10
SMOKE_BUDGET_S = 0.6


class _CountingScheme:
    """Delegating scheme wrapper that counts share evaluations.

    Counts the O(1) aggregate fast path (``share_of``), full ``shares``
    dict builds, and the array engine's batched ``share_of_vector``
    (one evaluation per candidate in the batch), so the metric is
    comparable across engine generations.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.count = 0
        if hasattr(inner, "share_of"):
            self.share_of = self._share_of
        if hasattr(inner, "share_of_vector"):
            self.share_of_vector = self._share_of_vector

    def shares(self, instance, members, charger):
        self.count += 1
        return self.inner.shares(instance, members, charger)

    def _share_of(self, instance, device, size, total_demand, price):
        self.count += 1
        return self.inner.share_of(instance, device, size, total_demand, price)

    def _share_of_vector(self, instance, demands, sizes, total_demands, prices):
        # One evaluation per candidate in the batch; ``sizes`` may be a
        # broadcast scalar, so the prices vector carries the batch length.
        self.count += int(np.size(prices))
        return self.inner.share_of_vector(
            instance, demands, sizes, total_demands, prices
        )


def _instance(n, m):
    from repro.workloads import quick_instance

    return quick_instance(
        n_devices=n, n_chargers=m, seed=SEED, capacity=CAPACITY, side=SIDE
    )


def run_case(n, m, engine="object"):
    """Time one full ccsga() run and return its hot-path metrics."""
    instance = _instance(n, m)
    scheme = _CountingScheme(EgalitarianSharing())
    start = time.perf_counter()
    result = ccsga(instance, scheme=scheme, certify=False, engine=engine)
    wall = time.perf_counter() - start
    return {
        "n_devices": n,
        "n_chargers": m,
        "seed": SEED,
        "engine": result.engine,
        "wall_s": round(wall, 6),
        "sweeps": result.sweeps,
        "switches": result.switches,
        "sweeps_per_sec": round(result.sweeps / wall, 3),
        "share_evals": scheme.count,
        "share_evals_per_sec": round(scheme.count / wall, 1),
    }


def test_hotpath_n50(once, benchmark):
    stats = once(benchmark, run_case, 50, 6)
    assert stats["sweeps"] >= 1


def test_hotpath_n200(once, benchmark):
    stats = once(benchmark, run_case, 200, 10)
    assert stats["sweeps"] >= 1


def test_hotpath_n800(once, benchmark):
    stats = once(benchmark, run_case, 800, 16)
    assert stats["sweeps"] >= 1


def test_hotpath_n800_array(once, benchmark):
    stats = once(benchmark, run_case, 800, 16, "array")
    assert stats["sweeps"] >= 1 and stats["engine"] == "array"


def test_hotpath_n5000_array(once, benchmark):
    stats = once(benchmark, run_case, 5_000, 32, "array")
    assert stats["sweeps"] >= 1 and stats["engine"] == "array"


def _print_case(stats):
    print(
        f"n={stats['n_devices']:6d} m={stats['n_chargers']:3d} "
        f"[{stats['engine']:6s}]: {stats['wall_s']:8.3f}s "
        f"{stats['sweeps_per_sec']:9.1f} sweeps/s "
        f"{stats['share_evals_per_sec']:12.0f} share-evals/s",
        flush=True,
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    skip_large = "--skip-large" in argv

    cases = []
    for n, m in SIZES:
        for engine in ("object", "array"):
            stats = run_case(n, m, engine)
            cases.append(stats)
            _print_case(stats)

    # Object baseline for large-case speedups: its best recorded
    # throughput (the engines' eval counts per candidate are identical,
    # so evals/sec is the honest cross-size comparator).
    object_evals_per_sec = max(
        c["share_evals_per_sec"] for c in cases if c["engine"] == "object"
    )

    large = []
    if not skip_large:
        for n, m in LARGE_SIZES:
            stats = run_case(n, m, "array")
            stats["speedup_vs_object"] = round(
                stats["share_evals_per_sec"] / object_evals_per_sec, 2
            )
            large.append(stats)
            _print_case(stats)
            print(
                f"        speedup vs object engine (evals/s, object n<=800 "
                f"baseline): {stats['speedup_vs_object']:.1f}x",
                flush=True,
            )

    smoke = run_case(SMOKE_N, SMOKE_M)
    print(f"smoke (n={SMOKE_N}): {smoke['wall_s']:.3f}s (budget {SMOKE_BUDGET_S}s)")

    payload = {
        "benchmark": "ccsga_hotpath",
        "workload": {"seed": SEED, "side": SIDE, "capacity": CAPACITY},
        "object_cap_n": OBJECT_CAP_N,
        "cases": cases,
        "large": large,
        "smoke": {
            "n_devices": SMOKE_N,
            "n_chargers": SMOKE_M,
            "wall_s": smoke["wall_s"],
            "budget_s": SMOKE_BUDGET_S,
            "fail_factor": 3.0,
        },
    }
    if skip_large:
        # Don't drop the checked-in large-case measurements on a quick run.
        try:
            with open(RESULT_FILE) as fh:
                payload["large"] = json.load(fh).get("large", [])
        except (OSError, json.JSONDecodeError):
            pass
    with open(RESULT_FILE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {RESULT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
