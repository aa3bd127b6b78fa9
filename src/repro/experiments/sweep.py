"""The experiment grid shared by every simulation figure and table.

Every evaluation result has the same shape: a list of parameter sets
(usually one :class:`~repro.workloads.generators.WorkloadSpec` field
varied over sweep values), several seeded trials per set, one task kind
run per ``(params, trial)`` point, and a mean per set.  :func:`grid` is
that expansion, once: one :class:`~repro.experiments.exec.Task` per point
on the ambient executor, so every reported number is parallelizable and
cacheable.  :func:`mean` is the one average every result reports.
:func:`sweep_costs` and :func:`sweep_runtime` are the grid's entry points
for the cost/runtime-vs-parameter figures.

Instance seeds derive from ``(seed, trial)`` spawn keys
(:func:`repro.rng.derive_seed`): the same trial index sees the same
instance seed at every sweep value and for every algorithm — a paired
comparison — and results are independent of execution order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..workloads import WorkloadSpec
from .exec import Executor, Task, resolve_executor, spec_to_params
from .report import SeriesResult

__all__ = ["grid", "mean", "sweep_costs", "sweep_runtime"]

#: The algorithms every cost/runtime sweep compares, in series order.
_ALGORITHMS = ("NCA", "CCSA", "CCSGA")


def grid(
    kind: str,
    params: Sequence[Mapping[str, Any]],
    trials: int,
    seed: int,
    executor: Optional[Executor] = None,
) -> List[List[Dict[str, Any]]]:
    """Run *kind* at every ``(params, trial)`` point; return each params' points.

    Emits ``Task(kind, p, seed, t)`` for each ``p`` in *params* (outer) and
    ``t`` in ``range(trials)`` (inner) on *executor* (the ambient one if
    ``None``), and returns the results as one list of *trials* points per
    entry of *params*, in order.
    """
    tasks = [Task(kind=kind, params=p, seed=seed, trial=t) for p in params for t in range(trials)]
    points = resolve_executor(executor).run(tasks)
    return [points[k * trials : (k + 1) * trials] for k in range(len(params))]


def mean(values: Iterable[float]) -> float:
    """The arithmetic mean, summed left to right from ``0.0``.

    Every reported average goes through here, so its bytes do not depend
    on how a figure happens to spell the sum.
    """
    total, count = 0.0, 0
    for v in values:
        total += v
        count += 1
    return total / count


def _sweep(
    kind: str,
    name: str,
    title: str,
    base_spec: WorkloadSpec,
    param: str,
    values: Sequence,
    trials: int,
    seed: int,
    x_label: Optional[str],
    executor: Optional[Executor],
) -> SeriesResult:
    result = SeriesResult(
        name=name, title=title, x_label=x_label or param, x_values=list(values)
    )
    labels = list(_ALGORITHMS)
    cells = grid(
        kind,
        [{"spec": spec_to_params(base_spec.with_(**{param: v})), "algos": labels} for v in values],
        trials,
        seed,
        executor,
    )
    for label in labels:
        result.add(label, [mean(p[label] for p in points) for points in cells])
    return result


def sweep_costs(
    name: str,
    title: str,
    base_spec: WorkloadSpec,
    param: str,
    values: Sequence,
    trials: int = 5,
    seed: int = 0,
    x_label: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Average comprehensive cost of each algorithm across a parameter sweep.

    For each value ``v`` of *param*, generates *trials* instances from
    ``base_spec.with_(param=v)`` with seeds ``derive_seed(seed, trial)``
    (identical across values and algorithms — a paired comparison) and
    records the mean cost.  Each ``(value, trial)`` point is one
    ``point_costs`` task on *executor* (the ambient one if ``None``).
    """
    return _sweep(
        "point_costs", name, title, base_spec, param, values,
        trials, seed, x_label, executor,
    )


def sweep_runtime(
    name: str,
    title: str,
    base_spec: WorkloadSpec,
    param: str,
    values: Sequence,
    trials: int = 3,
    seed: int = 0,
    x_label: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Mean wall-clock seconds of each algorithm across a parameter sweep.

    Same pairing discipline as :func:`sweep_costs`; timing covers only the
    solver call, not instance generation.  (Timings are measured, so only
    cache-replayed runs are bit-reproducible — see docs/EXECUTION.md.)
    """
    return _sweep(
        "point_runtime", name, title, base_spec, param, values,
        trials, seed, x_label, executor,
    )
