"""Serial-vs-parallel-vs-cache-replay equivalence of the evaluation.

The executor contract (docs/EXECUTION.md): for fixed seeds, every
experiment produces *byte-identical* output whether its tasks run
serially, on a process pool, or replay from a populated cache — because
task seeds derive from ``(seed, trial)`` spawn keys, never from execution
order.  These tests pin that for every experiment id and for both sweep
primitives, plus the fingerprint injectivity the cache relies on.

Wall-clock measurements are the one physically order-dependent quantity,
so the suite zeroes the runtime-figure timer via ``CCS_BENCH_ZERO_TIMER``
(worker processes inherit it); everything else runs exactly as in
production.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    Task,
    render_series,
    render_table,
    run_experiment,
    sweep_costs,
    sweep_runtime,
    table2_optimality,
    table3_field,
)
from repro.experiments.exec import ZERO_TIMER_ENV, canonical_json
from repro.experiments.figures import (
    fig5_cost_vs_devices,
    fig6_cost_vs_chargers,
    fig7_cost_vs_base_price,
    fig8_cost_vs_field_side,
    fig9_runtime,
    fig10_convergence,
    fig11_sharing_fairness,
    fig12_ablation_capacity,
    fig12_ablation_tariff,
)
from repro.workloads import SMALL_SCALE_SPEC


@pytest.fixture(autouse=True)
def zero_timer(monkeypatch):
    """Make runtime figures deterministic so byte-comparison is meaningful."""
    monkeypatch.setenv(ZERO_TIMER_ENV, "1")


def _series_bytes(result) -> str:
    """Rendered text plus JSON of the raw numbers (NaN allowed: fig9 OPT tail)."""
    payload = {"x": list(result.x_values), "series": result.series}
    return render_series(result) + "\n" + json.dumps(payload, sort_keys=True)


def _table_bytes(result) -> str:
    payload = {"header": list(result.header), "rows": [list(r) for r in result.rows]}
    return render_table(result) + "\n" + json.dumps(payload, sort_keys=True)


#: Experiment id → callable producing a run's full output through the
#: ambient executor.  Grids are shrunk so the three-way comparison stays
#: fast, but every id exercises its real task kinds end to end.
SMALL_RUNS = {
    "table1": lambda: run_experiment("table1", trials=1),
    "table2": lambda: _table_bytes(
        table2_optimality(device_counts=(5, 6), trials=2, seed=2).table
    ),
    "table3": lambda: _table_bytes(table3_field(rounds=2, seed=3).table),
    "fig5": lambda: _series_bytes(fig5_cost_vs_devices(values=(6, 10), trials=2, seed=5)),
    "fig6": lambda: _series_bytes(fig6_cost_vs_chargers(values=(2, 4), trials=2, seed=6)),
    "fig7": lambda: _series_bytes(
        fig7_cost_vs_base_price(values=(0.0, 40.0), trials=2, seed=7)
    ),
    "fig8": lambda: _series_bytes(
        fig8_cost_vs_field_side(values=(100.0, 300.0), trials=2, seed=8)
    ),
    "fig9": lambda: _series_bytes(
        fig9_runtime(values=(6, 8), trials=1, seed=9, include_optimal_upto=6)
    ),
    "fig10": lambda: _series_bytes(fig10_convergence(values=(8, 10), trials=1, seed=10)),
    "fig11": lambda: _series_bytes(fig11_sharing_fairness(trials=1, seed=11)),
    "fig12": lambda: (
        _series_bytes(fig12_ablation_tariff(exponents=(0.8, 1.0), trials=1, seed=12))
        + "\n\n"
        + _series_bytes(fig12_ablation_capacity(capacities=(1, 2), trials=1, seed=13))
    ),
}


def _run_with(executor, build):
    from repro.experiments.exec import use_executor

    with use_executor(executor):
        return build()


@pytest.mark.parametrize("eid", sorted(SMALL_RUNS))
def test_serial_parallel_and_replay_identical(eid, tmp_path):
    build = SMALL_RUNS[eid]

    serial = _run_with(SerialExecutor(), build)

    parallel_ex = ParallelExecutor(2, cache=ResultCache(tmp_path / "cache"))
    parallel = _run_with(parallel_ex, build)
    assert parallel == serial, f"{eid}: --jobs 2 output differs from serial"

    replay_ex = SerialExecutor(cache=ResultCache(tmp_path / "cache"))
    replay = _run_with(replay_ex, build)
    assert replay == serial, f"{eid}: cache replay differs from fresh run"
    assert replay_ex.computed == 0, f"{eid}: replay recomputed {replay_ex.computed} tasks"
    assert replay_ex.cache_hits == parallel_ex.computed


@pytest.mark.parametrize("sweep", [sweep_costs, sweep_runtime])
def test_sweep_serial_parallel_and_replay_identical(sweep, tmp_path):
    def build(executor):
        return sweep(
            "s",
            "t",
            SMALL_SCALE_SPEC,
            "n_devices",
            [4, 6],
            trials=2,
            seed=1,
            executor=executor,
        )

    serial = _series_bytes(build(SerialExecutor()))
    parallel_ex = ParallelExecutor(2, cache=ResultCache(tmp_path / "c"))
    assert _series_bytes(build(parallel_ex)) == serial

    replay_ex = SerialExecutor(cache=ResultCache(tmp_path / "c"))
    assert _series_bytes(build(replay_ex)) == serial
    assert replay_ex.computed == 0


# ---------------------------------------------------------------------------
# Fingerprint properties


def _json_scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=8),
    )


def _params():
    return st.dictionaries(
        st.text(max_size=6),
        st.one_of(_json_scalars(), st.lists(_json_scalars(), max_size=3)),
        max_size=4,
    )


_tasks = st.builds(
    Task,
    kind=st.sampled_from(["point_costs", "point_runtime", "field_trial", "x"]),
    params=_params(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trial=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=200, deadline=None)
@given(a=_tasks, b=_tasks)
def test_fingerprint_injective_over_task_identity(a, b):
    """fp(a) == fp(b) exactly when the canonical payloads coincide."""
    same_payload = canonical_json(a.payload()) == canonical_json(b.payload())
    assert (a.fingerprint == b.fingerprint) == same_payload


@settings(max_examples=100, deadline=None)
@given(task=_tasks)
def test_fingerprint_ignores_param_insertion_order(task):
    reordered = Task(
        kind=task.kind,
        params=dict(reversed(list(task.params.items()))),
        seed=task.seed,
        trial=task.trial,
    )
    assert reordered.fingerprint == task.fingerprint


def test_fingerprint_distinguishes_each_component():
    base = Task(kind="point_costs", params={"a": 1}, seed=1, trial=1)
    variants = [
        Task(kind="point_runtime", params={"a": 1}, seed=1, trial=1),
        Task(kind="point_costs", params={"a": 2}, seed=1, trial=1),
        Task(kind="point_costs", params={"a": 1}, seed=2, trial=1),
        Task(kind="point_costs", params={"a": 1}, seed=1, trial=2),
        # Type-distinct params must not collide either.
        Task(kind="point_costs", params={"a": 1.0}, seed=1, trial=1),
        Task(kind="point_costs", params={"a": True}, seed=1, trial=1),
        Task(kind="point_costs", params={"a": "1"}, seed=1, trial=1),
    ]
    prints = {t.fingerprint for t in variants}
    assert base.fingerprint not in prints
    assert len(prints) == len(variants)


def test_fingerprint_rejects_unserializable_params():
    with pytest.raises(TypeError):
        Task(kind="k", params={"fn": object()}).fingerprint
    with pytest.raises(ValueError):
        Task(kind="k", params={"x": float("nan")}).fingerprint
