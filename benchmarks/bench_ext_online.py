"""Extension — online scheduling: empirical competitive ratios.

Requests arrive as a Poisson stream; policies commit without seeing the
future and are compared against the clairvoyant offline CCSA on the same
instance.  Expected shape: ratios modestly above 1, tiny commitment
windows hurt (forced singletons), generous windows approach clairvoyance.
"""

from repro.geometry import Field, grid_deployment
from repro.online import BatchScheduler, GreedyDispatch, compare_policies
from repro.service import burst_arrivals, diurnal_arrivals, generate_requests
from repro.wpt import Charger, PowerLawTariff

FIELD = Field.square(300.0)


def make_chargers():
    return [
        Charger(
            f"c{j}", p,
            tariff=PowerLawTariff(base=30.0, unit=2e-3, exponent=0.9),
            efficiency=0.8, capacity=6,
        )
        for j, p in enumerate(grid_deployment(FIELD, 5))
    ]


def run_online(n=40, seed=5):
    requests = generate_requests(n, rate=1 / 30.0, field=FIELD, rng=seed)
    chargers = make_chargers()
    return compare_policies(
        {
            "greedy w=30s": GreedyDispatch(window=30.0),
            "greedy w=120s": GreedyDispatch(window=120.0),
            "greedy w=600s": GreedyDispatch(window=600.0),
            "batch  w=120s": BatchScheduler(window=120.0),
            "batch  w=600s": BatchScheduler(window=600.0),
        },
        requests,
        chargers,
    )


def test_online_competitive_ratios(benchmark, once):
    outcomes = once(benchmark, run_online, n=40, seed=5)
    print()
    print(f"{'policy':<14} {'online':>9} {'offline':>9} {'ratio':>7} {'sessions':>9}")
    for name, o in outcomes.items():
        print(f"{name:<14} {o.online_cost:>9.1f} {o.offline_cost:>9.1f} "
              f"{o.competitive_ratio:>7.3f} {o.n_sessions:>9}")
    ratios = {name: o.competitive_ratio for name, o in outcomes.items()}
    # Sanity band on every ratio, and window monotonicity for greedy.
    assert all(0.95 <= r <= 2.5 for r in ratios.values())
    assert ratios["greedy w=600s"] <= ratios["greedy w=30s"] + 1e-9


def run_traces(seed=1):
    """Same policies over structured traces: diurnal sparsity vs bursts."""
    chargers = make_chargers()
    traces = {
        "poisson": generate_requests(40, rate=1 / 30.0, field=FIELD, rng=seed),
        "diurnal": diurnal_arrivals(40, FIELD, rng=seed),
        "bursty": burst_arrivals(4, 10, FIELD, rng=seed),
    }
    policies = {
        "greedy": GreedyDispatch(window=120.0),
        "batch": BatchScheduler(window=120.0),
    }
    return {
        name: compare_policies(policies, requests, chargers)
        for name, requests in traces.items()
    }


def test_online_trace_structure(benchmark, once):
    results = once(benchmark, run_traces, seed=1)
    print()
    print(f"{'trace':<9} {'greedy ratio':>13} {'batch ratio':>12}")
    for trace, out in results.items():
        print(f"{trace:<9} {out['greedy'].competitive_ratio:>13.3f} "
              f"{out['batch'].competitive_ratio:>12.3f}")
    # Bursts are batchable: near-clairvoyant.  Diurnal sparsity is the
    # hard case: night-time arrivals cannot be grouped within any finite
    # window, so ratios exceed the steady-Poisson case.
    for policy in ("greedy", "batch"):
        assert results["bursty"][policy].competitive_ratio < 1.15
        assert (
            results["diurnal"][policy].competitive_ratio
            >= results["poisson"][policy].competitive_ratio - 0.05
        )
