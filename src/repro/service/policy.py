"""Adapter exposing the service daemon as an online scheduling policy.

The online harness (:mod:`repro.online.harness`) benchmarks anything with
a ``name`` and a ``run(requests, chargers, mobility) -> (Schedule,
CCSInstance)``.  :class:`ServicePolicy` drives a fresh
:class:`~repro.service.kernel.ChargingService` over the request stream
(submit each request as given, then drain) and freezes the departed
sessions into a standard :class:`~repro.core.schedule.Schedule` — so the
daemon's epoch fold/improve/repair loop can be measured with the same
competitive-ratio machinery as :class:`~repro.online.scheduler.GreedyDispatch`
and :class:`~repro.online.scheduler.BatchScheduler`.

The harness contract is that every submitted device ends up in the
schedule, so feed it requests without a deadline or price cap (the
generators' default): the daemon then runs in its always-admit regime.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core import CCSInstance, Schedule, Session
from ..core.costsharing import CostSharingScheme
from ..errors import ConfigurationError
from ..mobility import MobilityModel
from ..wpt import Charger
from .kernel import ChargingService, ServiceConfig
from .request import ChargingRequest

__all__ = ["ServicePolicy"]


class ServicePolicy:
    """Run the charging-service kernel as an online policy."""

    name = "online-service"

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        scheme: Optional[CostSharingScheme] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.scheme = scheme

    def run(
        self,
        requests: Sequence[ChargingRequest],
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
    ) -> Tuple[Schedule, CCSInstance]:
        """Feed *requests* through a fresh daemon; return its schedule."""
        if not requests:
            raise ConfigurationError("no arrivals were scheduled")
        service = ChargingService(
            chargers, mobility=mobility, scheme=self.scheme, config=self.config
        )
        for request in requests:
            service.submit(request)
        service.drain()
        instance = CCSInstance(
            devices=[r.device for r in requests],
            chargers=list(chargers),
            mobility=service.planner.instance.mobility,
        )
        charger_index = {c.charger_id: j for j, c in enumerate(service.chargers)}
        sessions = [
            Session(
                charger=charger_index[s["charger"]],
                members=frozenset(instance.device_index(d) for d in s["members"]),
            )
            for s in service.final_schedule()
        ]
        return Schedule(sessions, solver=self.name), instance
