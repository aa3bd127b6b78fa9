"""Golden regression test for the evaluation's tables and figures.

Pins, against ``tests/fixtures/experiments_golden.json``:

- the rendered Table 2 and Table 3 (and their aggregate statistics) at
  their canonical parameters, so the executor subsystem — or any future
  refactor of the experiment harness — cannot silently drift the numbers
  EXPERIMENTS.md reports.  The parallel run doubles as an end-to-end
  check that ``--jobs`` reproduces the pinned bytes, not merely that
  serial == parallel;
- the full output (rendered text plus the raw series/rows as JSON) of
  every experiment id at the ``SMALL_RUNS`` sizes of
  ``tests/test_exec_equivalence.py``, with ``CCS_BENCH_ZERO_TIMER`` set,
  so a refactor that reorders a figure's average shows up byte for byte;
- the ordered list of task fingerprints each of those runs emits (one
  sha256 per id), so existing result-cache directories keep hitting.

Regenerate deliberately via ``make golden-experiments`` (see
``tests/fixtures/capture_experiments_golden.py``) after an intentional
behaviour change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    ParallelExecutor,
    SerialExecutor,
    render_table,
    table2_optimality,
    table3_field,
    use_executor,
)
from repro.experiments.exec import ZERO_TIMER_ENV

from .test_exec_equivalence import SMALL_RUNS

GOLDEN_FILE = Path(__file__).parent / "fixtures" / "experiments_golden.json"

TABLE2_ARGS = {"device_counts": (6, 8, 10, 12), "trials": 5, "seed": 101}
TABLE3_ARGS = {"rounds": 10, "seed": 3}


class RecordingExecutor(SerialExecutor):
    """A serial executor that keeps every task's fingerprint, in run order."""

    def __init__(self):
        super().__init__()
        self.fingerprints = []

    def run(self, tasks):
        self.fingerprints.extend(task.fingerprint for task in tasks)
        return super().run(tasks)


def collect_small_runs() -> dict:
    """Each ``SMALL_RUNS`` id's output and task-fingerprint digest.

    Runs with ``CCS_BENCH_ZERO_TIMER`` set, so runtime figures pin too.
    """
    pins = {}
    for eid, build in sorted(SMALL_RUNS.items()):
        recorder = RecordingExecutor()
        with pytest.MonkeyPatch.context() as mp, use_executor(recorder):
            mp.setenv(ZERO_TIMER_ENV, "1")
            output = build()
        pins[eid] = {
            "output": output,
            "tasks": len(recorder.fingerprints),
            "fingerprints_sha256": hashlib.sha256(
                "\n".join(recorder.fingerprints).encode()
            ).hexdigest(),
        }
    return pins


def collect() -> dict:
    """The whole golden document (``capture_experiments_golden.py`` writes it)."""
    t2 = table2_optimality(**TABLE2_ARGS)
    t3 = table3_field(**TABLE3_ARGS)
    return {
        "_comment": "Pinned evaluation outputs; regenerate via capture_experiments_golden.py",
        "table2": {
            "args": {k: list(v) if isinstance(v, tuple) else v for k, v in TABLE2_ARGS.items()},
            "rendered": render_table(t2.table),
            "avg_gap_vs_optimal_pct": t2.avg_gap_vs_optimal_pct,
            "avg_saving_vs_nca_pct": t2.avg_saving_vs_nca_pct,
        },
        "table3": {
            "args": dict(TABLE3_ARGS),
            "rendered": render_table(t3.table),
            "avg_improvement_pct": t3.avg_improvement_pct,
            "ccsa_mean_cost": t3.ccsa_mean_cost,
            "nca_mean_cost": t3.nca_mean_cost,
        },
        "small_runs": collect_small_runs(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def small_runs():
    return collect_small_runs()


def test_golden_args_in_sync(golden):
    assert golden["table2"]["args"] == {
        k: list(v) if isinstance(v, tuple) else v for k, v in TABLE2_ARGS.items()
    }
    assert golden["table3"]["args"] == dict(TABLE3_ARGS)
    assert sorted(golden["small_runs"]) == sorted(SMALL_RUNS)


def test_table2_rendered_output_pinned(golden):
    stats = table2_optimality(**TABLE2_ARGS)
    assert render_table(stats.table) == golden["table2"]["rendered"]
    assert stats.avg_gap_vs_optimal_pct == pytest.approx(
        golden["table2"]["avg_gap_vs_optimal_pct"], rel=1e-12
    )
    assert stats.avg_saving_vs_nca_pct == pytest.approx(
        golden["table2"]["avg_saving_vs_nca_pct"], rel=1e-12
    )


def test_table3_rendered_output_pinned(golden):
    stats = table3_field(**TABLE3_ARGS)
    assert render_table(stats.table) == golden["table3"]["rendered"]
    assert stats.avg_improvement_pct == pytest.approx(
        golden["table3"]["avg_improvement_pct"], rel=1e-12
    )
    assert stats.ccsa_mean_cost == pytest.approx(
        golden["table3"]["ccsa_mean_cost"], rel=1e-12
    )
    assert stats.nca_mean_cost == pytest.approx(
        golden["table3"]["nca_mean_cost"], rel=1e-12
    )


def test_table2_parallel_matches_golden_bytes(golden):
    """--jobs N must reproduce the pinned bytes, not just serial parity."""
    stats = table2_optimality(**TABLE2_ARGS, executor=ParallelExecutor(2))
    assert render_table(stats.table) == golden["table2"]["rendered"]


@pytest.mark.parametrize("eid", sorted(SMALL_RUNS))
def test_small_run_output_pinned(eid, golden, small_runs):
    """Every figure's and table's bytes, raw numbers included."""
    assert small_runs[eid]["output"] == golden["small_runs"][eid]["output"]


@pytest.mark.parametrize("eid", sorted(SMALL_RUNS))
def test_small_run_task_fingerprints_pinned(eid, golden, small_runs):
    """The same tasks, in the same order: cached results keep hitting."""
    pinned = golden["small_runs"][eid]
    assert small_runs[eid]["tasks"] == pinned["tasks"]
    assert small_runs[eid]["fingerprints_sha256"] == pinned["fingerprints_sha256"]
