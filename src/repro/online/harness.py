"""Evaluation harness for online scheduling policies.

Runs a policy over a request stream, costs its final schedule, and
compares it with the **clairvoyant offline** solution — CCSA run on the
full instance as if every request had been known in advance.  The ratio
``online / offline`` is the empirical competitive ratio the online
experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence

from ..core import CCSInstance, Schedule, ccsa, comprehensive_cost, validate_schedule
from ..mobility import MobilityModel
from ..numeric import is_exact_zero
from ..wpt import Charger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.request import ChargingRequest

__all__ = ["OnlineOutcome", "evaluate_policy", "compare_policies"]


@dataclass(frozen=True)
class OnlineOutcome:
    """One policy's performance on one request stream."""

    policy: str
    online_cost: float
    offline_cost: float
    n_sessions: int

    @property
    def competitive_ratio(self) -> float:
        """``online / clairvoyant-offline`` — 1.0 means no regret.

        A zero offline cost (possible under a degenerate tariff with no
        base fee and free volume) is handled explicitly rather than
        raising ``ZeroDivisionError``: if the online cost is also zero
        the policy matched the optimum (ratio 1.0); otherwise the ratio
        is unbounded and reported as ``float("inf")``.
        """
        if is_exact_zero(self.offline_cost):
            return 1.0 if is_exact_zero(self.online_cost) else float("inf")
        return self.online_cost / self.offline_cost


def evaluate_policy(
    policy,
    requests: Sequence[ChargingRequest],
    chargers: Sequence[Charger],
    mobility: Optional[MobilityModel] = None,
    offline_solver: Callable[[CCSInstance], Schedule] = ccsa,
) -> OnlineOutcome:
    """Run *policy* on the stream and benchmark it against clairvoyance.

    The online schedule is validated for feasibility before costing, so a
    buggy policy fails loudly instead of reporting a bogus ratio.
    """
    schedule, instance = policy.run(requests, chargers, mobility)
    validate_schedule(schedule, instance)
    online_cost = comprehensive_cost(schedule, instance)
    offline_cost = comprehensive_cost(offline_solver(instance), instance)
    return OnlineOutcome(
        policy=policy.name,
        online_cost=online_cost,
        offline_cost=offline_cost,
        n_sessions=schedule.n_sessions,
    )


def compare_policies(
    policies: Mapping[str, object],
    requests: Sequence[ChargingRequest],
    chargers: Sequence[Charger],
    mobility: Optional[MobilityModel] = None,
) -> Dict[str, OnlineOutcome]:
    """Evaluate several policies on the *same* request stream."""
    return {
        name: evaluate_policy(policy, requests, chargers, mobility)
        for name, policy in policies.items()
    }
