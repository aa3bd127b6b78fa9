"""The evaluation figures (Figs 5–12 of the reconstructed evaluation).

Each function regenerates one figure as a :class:`SeriesResult`; the
matching benchmark in ``benchmarks/`` runs it and prints the series, and
EXPERIMENTS.md records the observed shape against the paper's claims.
All functions take ``trials``/``seed`` so benchmarks can run quickly while
the CLI runs full-size sweeps, plus an optional ``executor`` — each
``(sweep value, trial)`` point is one independent
:class:`~repro.experiments.exec.Task`, so figures parallelize and cache
through the ambient executor (see docs/EXECUTION.md).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads import DEFAULT_SPEC, WorkloadSpec
from .exec import SCHEME_NAMES, Executor, spec_to_params
from .report import SeriesResult
from .sweep import grid, mean, sweep_costs, sweep_runtime

__all__ = [
    "fig5_cost_vs_devices",
    "fig6_cost_vs_chargers",
    "fig7_cost_vs_base_price",
    "fig8_cost_vs_field_side",
    "fig9_runtime",
    "fig10_convergence",
    "fig11_sharing_fairness",
    "fig12_ablation_tariff",
    "fig12_ablation_capacity",
]

def fig5_cost_vs_devices(
    values: Sequence[int] = (10, 20, 40, 60, 80, 100),
    trials: int = 3,
    seed: int = 5,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Comprehensive cost vs number of devices (CCSA / CCSGA / NCA)."""
    return sweep_costs(
        "fig5",
        "Fig 5: comprehensive cost vs number of devices",
        DEFAULT_SPEC,
        "n_devices",
        list(values),
        trials=trials,
        seed=seed,
        x_label="n",
        executor=executor,
    )


def fig6_cost_vs_chargers(
    values: Sequence[int] = (2, 4, 6, 9, 12, 16),
    trials: int = 3,
    seed: int = 6,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Comprehensive cost vs number of chargers."""
    return sweep_costs(
        "fig6",
        "Fig 6: comprehensive cost vs number of chargers",
        DEFAULT_SPEC,
        "n_chargers",
        list(values),
        trials=trials,
        seed=seed,
        x_label="m",
        executor=executor,
    )


def fig7_cost_vs_base_price(
    values: Sequence[float] = (0.0, 10.0, 20.0, 40.0, 60.0, 80.0),
    trials: int = 3,
    seed: int = 7,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Comprehensive cost vs session base price.

    The base fee is the cooperation incentive: at zero, grouping only saves
    via the volume discount; as it grows, NCA pays it per device while the
    cooperative algorithms amortize it per group — the gap should widen.
    """
    return sweep_costs(
        "fig7",
        "Fig 7: comprehensive cost vs session base price",
        DEFAULT_SPEC.with_(heterogeneous_prices=False),
        "base_price",
        list(values),
        trials=trials,
        seed=seed,
        x_label="base_price",
        executor=executor,
    )


def fig8_cost_vs_field_side(
    values: Sequence[float] = (100.0, 200.0, 400.0, 600.0, 800.0, 1000.0),
    trials: int = 3,
    seed: int = 8,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Comprehensive cost vs field side length.

    Larger fields raise moving costs; gathering a group at one pad gets
    more expensive, so cooperation's advantage should shrink (but not
    invert).
    """
    return sweep_costs(
        "fig8",
        "Fig 8: comprehensive cost vs field side length",
        DEFAULT_SPEC,
        "side",
        list(values),
        trials=trials,
        seed=seed,
        x_label="side_m",
        executor=executor,
    )


def fig9_runtime(
    values: Sequence[int] = (10, 20, 40, 60, 80, 100),
    trials: int = 2,
    seed: int = 9,
    include_optimal_upto: int = 14,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Wall-clock runtime vs number of devices (the CCSGA-speed claim).

    OPT is exponential, so its series is only measured up to
    *include_optimal_upto* devices and reported as ``nan`` beyond.
    """
    result = sweep_runtime(
        "fig9",
        "Fig 9: solver runtime (seconds) vs number of devices",
        DEFAULT_SPEC,
        "n_devices",
        list(values),
        trials=trials,
        seed=seed,
        x_label="n",
        executor=executor,
    )
    opt_values = [n for n in values if n <= include_optimal_upto]
    opt_cells = grid(
        "point_runtime",
        [
            {"spec": spec_to_params(DEFAULT_SPEC.with_(n_devices=int(n))), "algos": ["OPT"]}
            for n in opt_values
        ],
        trials,
        seed,
        executor,
    )
    opt_means = {n: mean(p["OPT"] for p in points) for n, points in zip(opt_values, opt_cells)}
    result.add("OPT", [opt_means.get(n, float("nan")) for n in values])
    return result


def fig10_convergence(
    values: Sequence[int] = (10, 25, 50, 75, 100, 150),
    trials: int = 3,
    seed: int = 10,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """CCSGA switch operations and sweeps to reach the pure Nash equilibrium.

    The abstract's convergence theorem, measured: switches grow gently with
    n, every terminal state certifies as a pure NE, and the potential trace
    is strictly decreasing (asserted inside each task — a failed run raises).
    """
    result = SeriesResult(
        name="fig10",
        title="Fig 10: CCSGA convergence vs number of devices",
        x_label="n",
        x_values=list(values),
    )
    cells = grid(
        "point_convergence",
        [{"spec": spec_to_params(DEFAULT_SPEC.with_(n_devices=int(n)))} for n in values],
        trials,
        seed,
        executor,
    )
    for key in ("switches", "sweeps"):
        result.add(key, [mean(p[key] for p in points) for points in cells])
    return result


def fig11_sharing_fairness(
    trials: int = 5,
    seed: int = 11,
    spec: Optional[WorkloadSpec] = None,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Cost-sharing schemes compared on heterogeneous-demand instances.

    For each scheme, runs CCSGA under it and reports the mean member cost
    and the dispersion (std) of the ratio ``share_i / demand_i`` — the
    per-joule price members effectively pay.  Egalitarian sharing spreads
    per-joule prices widely (light users subsidize heavy ones); the
    proportional and Shapley schemes compress them.
    """
    spec = spec or DEFAULT_SPEC.with_(demand_model="lognormal", n_devices=24)
    result = SeriesResult(
        name="fig11",
        title="Fig 11: cost-sharing schemes — mean member cost and per-joule dispersion",
        x_label="metric",
        x_values=[0, 1],  # 0 = mean member cost, 1 = per-joule price std
    )
    cells = grid(
        "point_sharing",
        [{"spec": spec_to_params(spec), "scheme": scheme} for scheme in SCHEME_NAMES],
        trials,
        seed,
        executor,
    )
    for scheme, points in zip(SCHEME_NAMES, cells):
        result.add(
            scheme,
            [
                mean(p["mean_cost"] for p in points),
                mean(p["dispersion"] for p in points) * 1e3,  # m$/J for readability
            ],
        )
    return result


def fig12_ablation_tariff(
    exponents: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0),
    trials: int = 3,
    seed: int = 12,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Ablation: tariff concavity sweep.

    At exponent 1 (linear tariff) cooperation only shares the base fee; as
    the volume discount deepens, cooperative schedules pull further ahead
    of NCA.  Reported as CCSA's percentage saving over NCA per exponent.
    """
    result = SeriesResult(
        name="fig12",
        title="Fig 12: CCSA saving over NCA (%) vs tariff exponent",
        x_label="exponent",
        x_values=list(exponents),
    )
    cells = grid(
        "point_saving",
        [
            {"spec": spec_to_params(DEFAULT_SPEC.with_(tariff_exponent=float(alpha)))}
            for alpha in exponents
        ],
        trials,
        seed,
        executor,
    )
    result.add("CCSA saving %", [mean(p["saving_pct"] for p in points) for points in cells])
    return result


def fig12_ablation_capacity(
    capacities: Sequence[int] = (1, 2, 3, 4, 6, 8),
    trials: int = 3,
    seed: int = 13,
    executor: Optional[Executor] = None,
) -> SeriesResult:
    """Ablation: slot-capacity sweep.

    Capacity 1 forbids cooperation entirely (CCSA degenerates to NCA);
    each extra slot unlocks more sharing, with diminishing returns once
    groups reach their economically natural size.  Reported as CCSA's
    saving over NCA and its mean group size per capacity.
    """
    result = SeriesResult(
        name="fig12b",
        title="Fig 12b: CCSA saving over NCA (%) and mean group size vs slot capacity",
        x_label="capacity",
        x_values=list(capacities),
    )
    cells = grid(
        "point_capacity",
        [{"spec": spec_to_params(DEFAULT_SPEC.with_(capacity=int(cap)))} for cap in capacities],
        trials,
        seed,
        executor,
    )
    for label, key in (("CCSA saving %", "saving_pct"), ("mean group size", "mean_group_size")):
        result.add(label, [mean(p[key] for p in points) for points in cells])
    return result
