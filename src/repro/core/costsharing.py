"""Intragroup cost-sharing schemes.

Cooperation only survives if members agree on how to split the session
bill.  The paper proposes two intragroup schemes; we implement both plus a
Shapley-value extension:

- :class:`EgalitarianSharing` (ECS): every member pays an equal share of
  the session price;
- :class:`ProportionalSharing` (PCS): members pay in proportion to their
  energy demands;
- :class:`ShapleySharing`: each member pays its Shapley value of the
  session-price cooperative game (exact for small groups, Monte-Carlo
  beyond), the fairness gold standard used here as an ablation.

All schemes split only the *charging* price; moving costs are inherently
individual.  Every scheme is **budget-balanced** by construction (shares
sum to the session price), which tests verify property-style, and under
the concave tariffs of :mod:`repro.wpt.pricing` they are *cross-monotone*
for demand-homogeneous groups — joining a bigger coalition never hurts —
which is the cooperation-sustaining property the paper highlights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng
from .instance import CCSInstance
from .schedule import Schedule

__all__ = [
    "CostSharingScheme",
    "EgalitarianSharing",
    "ProportionalSharing",
    "ShapleySharing",
    "MarginalCostSharing",
    "member_costs",
    "individual_cost",
    "share_from_aggregates",
]


@runtime_checkable
class CostSharingScheme(Protocol):
    """Splits one session's charging price among its members."""

    name: str

    def shares(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> Dict[int, float]:
        """Map each device index in *members* to its share of the session price."""
        ...


def _session_price(instance: CCSInstance, members: Sequence[int], charger: int) -> float:
    if not members:
        raise ValueError("cannot share the price of an empty session")
    if len(set(members)) != len(members):
        raise ValueError("session members must be distinct")
    return instance.charging_price(members, charger)


@dataclass(frozen=True)
class EgalitarianSharing:
    """Equal split: each member pays ``price / |G|``.

    The simplest scheme and the one that most strongly rewards forming
    large groups; its weakness — light users subsidizing heavy ones — is
    what :class:`ProportionalSharing` fixes.
    """

    name: str = "egalitarian"

    def shares(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> Dict[int, float]:
        price = _session_price(instance, members, charger)
        per_head = price / len(members)
        return {i: per_head for i in members}

    def share_of(
        self,
        instance: CCSInstance,
        device: int,
        size: int,
        total_demand: float,
        price: float,
    ) -> float:
        """O(1) share from cached session aggregates (see module docs)."""
        return price / size

    def share_of_vector(
        self,
        instance: CCSInstance,
        demands: "np.ndarray",
        sizes: "np.ndarray",
        total_demands: "np.ndarray",
        prices: "np.ndarray",
    ) -> "np.ndarray":
        """Vectorized :meth:`share_of` over candidate-session aggregates.

        *demands* are the sharing devices' own demands, broadcast against
        the aggregates (unused by the equal split).  Elementwise
        bitwise-identical to the scalar fast path — the array engine
        prices whole candidate scans with one call.
        """
        return prices / sizes


@dataclass(frozen=True)
class ProportionalSharing:
    """Demand-proportional split: member *i* pays ``price * d_i / D(G)``.

    Demands are strictly positive (enforced by :class:`~repro.core.device.Device`),
    so the denominator never vanishes.
    """

    name: str = "proportional"

    def shares(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> Dict[int, float]:
        price = _session_price(instance, members, charger)
        total = instance.total_demand(members)
        return {
            i: price * instance.devices[i].demand / total for i in members
        }

    def share_of(
        self,
        instance: CCSInstance,
        device: int,
        size: int,
        total_demand: float,
        price: float,
    ) -> float:
        """O(1) share from cached session aggregates (see module docs)."""
        return price * instance.devices[device].demand / total_demand

    def share_of_vector(
        self,
        instance: CCSInstance,
        demands: "np.ndarray",
        sizes: "np.ndarray",
        total_demands: "np.ndarray",
        prices: "np.ndarray",
    ) -> "np.ndarray":
        """Vectorized :meth:`share_of` over candidate-session aggregates.

        *demands* are the sharing devices' own demands, broadcast against
        the aggregates.  Same multiply-then-divide order as the scalar
        fast path, so each element is bitwise identical to it.
        """
        return prices * demands / total_demands


@dataclass(frozen=True)
class ShapleySharing:
    """Shapley-value split of the session-price game ``v(S) = price_j(S)``.

    Exact (all permutations) for groups up to :attr:`exact_limit` members;
    Monte-Carlo over :attr:`samples` random permutations beyond, with a
    final renormalization so budget balance holds exactly even under
    sampling.  Deterministic for a fixed :attr:`seed`.
    """

    exact_limit: int = 8
    samples: int = 2000
    seed: int = 0
    name: str = "shapley"

    def __post_init__(self) -> None:
        if self.exact_limit < 1:
            raise ConfigurationError(f"exact_limit must be >= 1, got {self.exact_limit}")
        if self.samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {self.samples}")

    def shares(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> Dict[int, float]:
        price = _session_price(instance, members, charger)
        ordered = sorted(members)
        if len(ordered) == 1:
            return {ordered[0]: price}
        if len(ordered) <= self.exact_limit:
            raw = self._exact(instance, ordered, charger)
        else:
            raw = self._sampled(instance, ordered, charger)
        # Renormalize so shares sum to the price exactly (budget balance).
        total = sum(raw.values())
        if total <= 0:
            # Degenerate (free session); fall back to equal split of zero.
            return {i: price / len(ordered) for i in ordered}
        return {i: price * v / total for i, v in raw.items()}

    def _exact(
        self, instance: CCSInstance, ordered: List[int], charger: int
    ) -> Dict[int, float]:
        totals = {i: 0.0 for i in ordered}
        count = 0
        for perm in itertools.permutations(ordered):
            prefix: List[int] = []
            prev = 0.0
            for i in perm:
                prefix.append(i)
                cur = instance.charging_price(prefix, charger)
                totals[i] += cur - prev
                prev = cur
            count += 1
        return {i: v / count for i, v in totals.items()}

    def _sampled(
        self, instance: CCSInstance, ordered: List[int], charger: int
    ) -> Dict[int, float]:
        rng = ensure_rng(self.seed)
        totals = {i: 0.0 for i in ordered}
        arr = np.array(ordered)
        for _ in range(self.samples):
            perm = rng.permutation(arr)
            prefix: List[int] = []
            prev = 0.0
            for i in perm:
                prefix.append(int(i))
                cur = instance.charging_price(prefix, charger)
                totals[int(i)] += cur - prev
                prev = cur
        return {i: v / self.samples for i, v in totals.items()}


@dataclass(frozen=True)
class MarginalCostSharing:
    """Marginal-cost pricing: member *i* pays ``v(G) − v(G \\ {i})``.

    A deliberately *imperfect* scheme included for the economics ablation:
    with a submodular session price the marginals sum to **less** than the
    price (``deficit(G) >= 0``), so the charger under-recovers — the
    classic budget-balance failure of marginal-cost pricing under
    economies of scale.  :meth:`deficit` quantifies the shortfall; when
    ``rebalance=True`` the shortfall is spread equally so the scheme
    satisfies the :class:`CostSharingScheme` budget-balance contract and
    can drive CCSGA.
    """

    rebalance: bool = True
    name: str = "marginal"

    def shares(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> Dict[int, float]:
        price = _session_price(instance, members, charger)
        members = sorted(members)
        raw = {
            i: price
            - instance.charging_price([k for k in members if k != i], charger)
            for i in members
        }
        if not self.rebalance:
            return raw
        shortfall = price - sum(raw.values())
        per_head = shortfall / len(members)
        return {i: v + per_head for i, v in raw.items()}

    def deficit(
        self, instance: CCSInstance, members: Sequence[int], charger: int
    ) -> float:
        """How much pure marginal pricing under-recovers on this session.

        Nonnegative whenever the tariff is subadditive (always, given the
        base fee); zero only for singleton sessions.
        """
        members = sorted(set(members))
        price = _session_price(instance, members, charger)
        raw_total = sum(
            price - instance.charging_price([k for k in members if k != i], charger)
            for i in members
        )
        return price - raw_total


def share_from_aggregates(
    scheme: CostSharingScheme,
    instance: CCSInstance,
    device: int,
    size: int,
    total_demand: float,
    price: float,
) -> Optional[float]:
    """*device*'s price share via the scheme's O(1) fast path, if it has one.

    Schemes whose share depends only on session aggregates — the member
    count, total demand, and session price — expose ``share_of`` and get
    evaluated without materializing a member list or a share dict.  This
    is the inner loop of CCSGA's incremental candidate scans: a join or
    leave is priced with one tariff call on a cached scalar.  Returns
    ``None`` for schemes (Shapley, marginal-cost) whose shares depend on
    the full member composition; callers then fall back to
    :meth:`CostSharingScheme.shares`.
    """
    fast = getattr(scheme, "share_of", None)
    if fast is None:
        return None
    return fast(instance, device, size, total_demand, price)


def member_costs(
    schedule: Schedule, instance: CCSInstance, scheme: CostSharingScheme
) -> Dict[int, float]:
    """Per-device comprehensive cost under *scheme*: price share + own moving cost.

    The sum over devices equals :func:`~repro.core.schedule.comprehensive_cost`
    of the schedule (budget balance), which property tests assert.
    """
    costs: Dict[int, float] = {}
    for session in schedule.sessions:
        members = sorted(session.members)
        shares = scheme.shares(instance, members, session.charger)
        for i in members:
            costs[i] = shares[i] + instance.moving_cost(i, session.charger)
    return costs


def individual_cost(
    instance: CCSInstance,
    device: int,
    members: Iterable[int],
    charger: int,
    scheme: CostSharingScheme,
) -> float:
    """Cost *device* would bear in session ``(members, charger)`` under *scheme*.

    The quantity a CCSGA player evaluates when contemplating a switch.
    *device* must be in *members*.
    """
    members = sorted(set(members))
    if device not in members:
        raise ValueError(f"device {device} not in proposed session members")
    shares = scheme.shares(instance, members, charger)
    return shares[device] + instance.moving_cost(device, charger)
