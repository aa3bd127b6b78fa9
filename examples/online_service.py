"""Online charging service: requests arrive, the operator commits on the fly.

The offline CCS problem knows every request in advance; a deployed
charging service does not.  This example streams Poisson requests through
two online policies — immediate greedy dispatch and windowed batching —
at several commitment windows, and measures the empirical competitive
ratio against the clairvoyant offline CCSA.

Run with::

    python examples/online_service.py
"""

from repro.geometry import Field, grid_deployment
from repro.online import BatchScheduler, GreedyDispatch, compare_policies
from repro.service import generate_requests
from repro.wpt import Charger, PowerLawTariff


def main() -> None:
    field = Field.square(300.0)
    chargers = [
        Charger(
            f"pad{j}", p,
            tariff=PowerLawTariff(base=30.0, unit=2e-3, exponent=0.9),
            efficiency=0.8, capacity=6,
        )
        for j, p in enumerate(grid_deployment(field, 5))
    ]
    # One request every ~30 s on average, 50 requests total.
    requests = generate_requests(50, rate=1 / 30.0, field=field, rng=2021)
    span_min = requests[-1].submitted_at / 60.0
    print(f"{len(requests)} requests over {span_min:.0f} simulated minutes, "
          f"{len(chargers)} charging pads\n")

    policies = {
        "greedy, 30s window": GreedyDispatch(window=30.0),
        "greedy, 2min window": GreedyDispatch(window=120.0),
        "greedy, 10min window": GreedyDispatch(window=600.0),
        "batch, 2min window": BatchScheduler(window=120.0),
        "batch, 10min window": BatchScheduler(window=600.0),
    }
    outcomes = compare_policies(policies, requests, chargers)

    print(f"{'policy':<22} {'cost':>9} {'vs clairvoyant':>15} {'sessions':>9}")
    for name, o in outcomes.items():
        print(
            f"{name:<22} {o.online_cost:>9.1f} {o.competitive_ratio:>14.3f}x "
            f"{o.n_sessions:>9}"
        )
    print(f"\nclairvoyant offline CCSA cost: "
          f"{next(iter(outcomes.values())).offline_cost:.1f}")
    print("\nReading: longer commitment windows let more devices share a")
    print("session, trading service latency for cost — the online face of")
    print("the paper's cooperation-pays result.")


if __name__ == "__main__":
    main()
