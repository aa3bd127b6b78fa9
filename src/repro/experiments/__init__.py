"""Experiment harness: sweeps, figures, tables, rendering, and the runner."""

from .ascii_plot import ascii_plot
from .exec import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    Task,
    get_executor,
    use_executor,
)
from .export import export_markdown, results_markdown
from .fieldmap import field_map
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
from .runner import (
    EXPERIMENTS,
    Experiment,
    run_all,
    run_experiment,
    validate_experiment_ids,
)
from .sweep import sweep_costs, sweep_runtime
from .tables import (
    FieldStats,
    OptimalityStats,
    table1_parameters,
    table2_optimality,
    table3_field,
)

__all__ = [
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "SeriesResult",
    "Task",
    "ascii_plot",
    "get_executor",
    "use_executor",
    "validate_experiment_ids",
    "field_map",
    "export_markdown",
    "results_markdown",
    "TableResult",
    "render_series",
    "render_table",
    "sweep_costs",
    "sweep_runtime",
    "fig5_cost_vs_devices",
    "fig6_cost_vs_chargers",
    "fig7_cost_vs_base_price",
    "fig8_cost_vs_field_side",
    "fig9_runtime",
    "fig10_convergence",
    "fig11_sharing_fairness",
    "fig12_ablation_tariff",
    "fig12_ablation_capacity",
    "table1_parameters",
    "table2_optimality",
    "table3_field",
    "OptimalityStats",
    "FieldStats",
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "run_all",
]
