"""Run the whole reconstructed evaluation in one call.

:func:`run_all` executes every table and figure at the requested scale and
returns rendered text blocks keyed by experiment id — what the CLI prints
and what EXPERIMENTS.md is distilled from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..errors import UnknownExperimentError
from .ascii_plot import ascii_plot
from .exec import Executor, resolve_executor, use_executor
from .figures import (
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
from .report import SeriesResult, TableResult, render_series, render_table
from .tables import table1_parameters, table2_optimality, table3_field

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "run_all",
    "validate_experiment_ids",
]

Result = Union[SeriesResult, TableResult]


@dataclass(frozen=True)
class Experiment:
    """One experiment id: what it builds and how it renders.

    *build* maps ``trials`` to every table and figure series the
    experiment reports, in print order; *precision* is the decimals of a
    series' rendered values.
    """

    build: Callable[[int], Sequence[Result]]
    precision: int = 2

    def render(self, results: Sequence[Result]) -> str:
        """The results as aligned text blocks — what a plain run prints."""
        return "\n\n".join(
            render_series(r, precision=self.precision)
            if isinstance(r, SeriesResult)
            else render_table(r)
            for r in results
        )

    def plot(self, results: Sequence[Result]) -> str:
        """:meth:`render`'s text followed by one ASCII chart per series."""
        charts = [ascii_plot(r) for r in results if isinstance(r, SeriesResult)]
        return "\n\n".join([self.render(results)] + charts)


#: Experiment id → :class:`Experiment`: the one registry that
#: :func:`run_experiment`, :func:`run_all` and ``ccs-bench`` (with or
#: without ``--plot``) read.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(lambda trials: [table1_parameters()]),
    "table2": Experiment(lambda trials: [table2_optimality(trials=trials).table]),
    "table3": Experiment(lambda trials: [table3_field(rounds=max(3, trials)).table]),
    "fig5": Experiment(lambda trials: [fig5_cost_vs_devices(trials=trials)]),
    "fig6": Experiment(lambda trials: [fig6_cost_vs_chargers(trials=trials)]),
    "fig7": Experiment(lambda trials: [fig7_cost_vs_base_price(trials=trials)]),
    "fig8": Experiment(lambda trials: [fig8_cost_vs_field_side(trials=trials)]),
    "fig9": Experiment(lambda trials: [fig9_runtime(trials=max(1, trials // 2))], precision=4),
    "fig10": Experiment(lambda trials: [fig10_convergence(trials=trials)]),
    "fig11": Experiment(lambda trials: [fig11_sharing_fairness(trials=trials)]),
    "fig12": Experiment(
        lambda trials: [
            fig12_ablation_tariff(trials=trials),
            fig12_ablation_capacity(trials=trials),
        ]
    ),
}


def validate_experiment_ids(ids: Iterable[str]) -> List[str]:
    """Return *ids* as a list, or raise :class:`UnknownExperimentError`."""
    ids = list(ids)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown, EXPERIMENTS)
    return ids


def run_experiment(
    experiment_id: str, trials: int = 3, executor: Optional[Executor] = None
) -> str:
    """Run one experiment by id and return its rendered text.

    *executor* (a :class:`~repro.experiments.exec.SerialExecutor` or
    :class:`~repro.experiments.exec.ParallelExecutor`) is made ambient for
    the duration, so every task the experiment spawns runs — and caches —
    through it; ``None`` keeps whatever executor is already ambient.
    """
    (eid,) = validate_experiment_ids([experiment_id])
    experiment = EXPERIMENTS[eid]
    with use_executor(resolve_executor(executor)):
        return experiment.render(experiment.build(trials))


def run_all(
    trials: int = 3,
    only: Optional[List[str]] = None,
    executor: Optional[Executor] = None,
) -> Dict[str, str]:
    """Run every experiment (or the ids in *only*) and return their outputs.

    Unknown ids in *only* raise :class:`UnknownExperimentError` up front —
    before any experiment runs — rather than failing midway or being
    silently skipped.
    """
    ids = validate_experiment_ids(only if only is not None else list(EXPERIMENTS))
    return {
        eid: run_experiment(eid, trials=trials, executor=executor) for eid in ids
    }
