"""Built-in task kinds: the per-point computations of the evaluation.

Each kind is a pure function of ``(params, seed, trial)`` returning plain
JSON data.  Instance randomness comes from
``derive_seed(seed, trial)`` — a :mod:`repro.rng` spawn key — so a kind's
result is independent of every other task and of execution order.

Algorithms and cost-sharing schemes are referenced *by name* (the
registries below) so tasks stay picklable and fingerprintable.  Every
reported number of the evaluation is computed by one of these kinds,
through :func:`repro.experiments.sweep.grid`; :func:`perf_timer` is read
only here.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Mapping

from ...rng import derive_seed
from .task import task_kind

__all__ = [
    "SCHEME_NAMES",
    "perf_timer",
    "spec_to_params",
    "spec_from_params",
]

#: Set (any value) to make :func:`perf_timer` return 0.0 — used by the
#: equivalence suite and the benchmark's byte-identity check to strip
#: wall-clock noise from runtime figures.  Inherited by worker processes.
ZERO_TIMER_ENV = "CCS_BENCH_ZERO_TIMER"


def perf_timer() -> float:
    """``time.perf_counter()`` unless :data:`ZERO_TIMER_ENV` is set."""
    if os.environ.get(ZERO_TIMER_ENV):
        return 0.0
    return time.perf_counter()


def spec_to_params(spec) -> Dict[str, Any]:
    """Serialize a :class:`~repro.workloads.WorkloadSpec` to task params."""
    from dataclasses import asdict

    return asdict(spec)


def spec_from_params(params: Mapping[str, Any]):
    """Rebuild a :class:`~repro.workloads.WorkloadSpec` from task params."""
    from ...workloads import WorkloadSpec

    return WorkloadSpec(**params)


def _ccsga_schedule(instance):
    from ...core import ccsga

    return ccsga(instance, certify=False).schedule


def _algorithm_registry() -> Dict[str, Callable]:
    from ...core import ccsa, noncooperation, optimal_schedule

    return {
        "NCA": noncooperation,
        "CCSA": ccsa,
        "CCSGA": _ccsga_schedule,
        "OPT": optimal_schedule,
    }


def _scheme_registry() -> Dict[str, Callable[[], Any]]:
    from ...core import EgalitarianSharing, ProportionalSharing, ShapleySharing

    return {
        "egalitarian": EgalitarianSharing,
        "proportional": ProportionalSharing,
        # Fixed configuration: part of the task fingerprint via the name.
        "shapley": lambda: ShapleySharing(exact_limit=6, samples=400),
    }


#: Cost-sharing scheme names usable in ``point_sharing`` params.
SCHEME_NAMES = ("egalitarian", "proportional", "shapley")


def _instance(params: Mapping[str, Any], seed: int, trial: int):
    from ...workloads import generate_instance

    return generate_instance(spec_from_params(params["spec"]), seed=derive_seed(seed, trial))


@task_kind("point_costs")
def point_costs(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """Comprehensive cost of each named algorithm on one seeded instance."""
    from ...core import comprehensive_cost

    algos = _algorithm_registry()
    instance = _instance(params, seed, trial)
    return {
        name: float(comprehensive_cost(algos[name](instance), instance))
        for name in params["algos"]
    }


@task_kind("point_runtime")
def point_runtime(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """Wall-clock solver seconds of each named algorithm on one instance."""
    algos = _algorithm_registry()
    instance = _instance(params, seed, trial)
    out = {}
    for name in params["algos"]:
        t0 = perf_timer()
        algos[name](instance)
        out[name] = float(perf_timer() - t0)
    return out


@task_kind("point_convergence")
def point_convergence(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """CCSGA switch/sweep counts on one instance, with NE certification."""
    from ...core import ccsga

    instance = _instance(params, seed, trial)
    run = ccsga(instance)
    n = instance.n_devices
    if not run.nash_certified:
        raise AssertionError(f"CCSGA terminal state not a NE at n={n}")
    if not run.trace.is_strictly_decreasing():
        raise AssertionError(f"potential not strictly decreasing at n={n}")
    return {"switches": float(run.switches), "sweeps": float(run.sweeps)}


@task_kind("point_sharing")
def point_sharing(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """Mean member cost and per-joule price dispersion under one scheme."""
    from ...core import ccsga, member_costs

    scheme = _scheme_registry()[params["scheme"]]()
    instance = _instance(params, seed, trial)
    run = ccsga(instance, scheme=scheme, certify=False)
    costs = member_costs(run.schedule, instance, scheme)
    per_joule = [
        (costs[i] - instance.moving_cost(i, run.schedule.session_of(i).charger))
        / instance.devices[i].demand
        for i in range(instance.n_devices)
    ]
    mu = sum(per_joule) / len(per_joule)
    dispersion = (sum((x - mu) ** 2 for x in per_joule) / len(per_joule)) ** 0.5
    return {
        "mean_cost": float(sum(costs.values()) / len(costs)),
        "dispersion": float(dispersion),
    }


@task_kind("point_saving")
def point_saving(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """CCSA's percentage saving over NCA on one instance."""
    from ...core import ccsa, comprehensive_cost, noncooperation

    instance = _instance(params, seed, trial)
    c_ccsa = comprehensive_cost(ccsa(instance), instance)
    c_nca = comprehensive_cost(noncooperation(instance), instance)
    return {"saving_pct": float(100.0 * (c_nca - c_ccsa) / c_nca)}


@task_kind("point_capacity")
def point_capacity(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """CCSA saving over NCA plus its mean group size on one instance."""
    from ...core import ccsa, comprehensive_cost, noncooperation

    instance = _instance(params, seed, trial)
    sched = ccsa(instance)
    c_ccsa = comprehensive_cost(sched, instance)
    c_nca = comprehensive_cost(noncooperation(instance), instance)
    sizes = sched.group_sizes()
    return {
        "saving_pct": float(100.0 * (c_nca - c_ccsa) / c_nca),
        "mean_group_size": float(sum(sizes) / len(sizes)),
    }


@task_kind("point_optimality")
def point_optimality(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, float]:
    """OPT / CCSA / NCA comprehensive costs on one small instance."""
    from ...core import ccsa, comprehensive_cost, noncooperation, optimal_schedule

    instance = _instance(params, seed, trial)
    return {
        "opt": float(comprehensive_cost(optimal_schedule(instance), instance)),
        "ccsa": float(comprehensive_cost(ccsa(instance), instance)),
        "nca": float(comprehensive_cost(noncooperation(instance), instance)),
    }


@task_kind("field_trial")
def field_trial(params: Mapping[str, Any], seed: int, trial: int) -> Dict[str, Any]:
    """One CCSA-vs-NCA paired field trial on the simulated testbed.

    The testbed keys all noise by ``(config seed, round, entity)``
    internally, so the task seed is the config seed verbatim and *trial*
    is unused; one task covers the whole trial.
    """
    from ...core import ccsa, noncooperation
    from ...sim import FieldTrialConfig, compare_field_trial

    config = FieldTrialConfig(rounds=int(params["rounds"]), seed=int(seed))
    results = compare_field_trial({"CCSA": ccsa, "NCA": noncooperation}, config)
    ccsa_res, nca_res = results["CCSA"], results["NCA"]
    return {
        "rounds": [
            {
                "nca_cost": float(nca_round.total_cost),
                "ccsa_cost": float(ccsa_round.total_cost),
                "ccsa_sessions": int(ccsa_round.n_sessions),
                "ccsa_makespan": float(ccsa_round.makespan),
            }
            for nca_round, ccsa_round in zip(nca_res.rounds, ccsa_res.rounds)
        ],
        "nca_mean_cost": float(nca_res.mean_cost),
        "ccsa_mean_cost": float(ccsa_res.mean_cost),
    }
