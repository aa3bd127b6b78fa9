"""Online schedulers: commit each arrival without seeing the future.

Two policies spanning the latency/cost trade-off:

- :class:`GreedyDispatch` commits each request the moment it arrives: join
  the open session whose *total-cost increase* is smallest (accounting for
  the newcomer's moving cost and the session's price growth), or open a
  new session at the best charger if that is cheaper.  Sessions **depart**
  — close to new members — ``window`` seconds after their first member
  arrived, modelling a pad that will not wait forever.
- :class:`BatchScheduler` buffers arrivals for ``window`` seconds and
  solves each batch with an offline algorithm (CCSA by default).  Higher
  latency, better grouping.

Both produce, at :meth:`~OnlineRun.finish`, a complete schedule over all
arrived devices, evaluated against the clairvoyant offline optimum by the
harness in :mod:`.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..core import CCSInstance, Device, Schedule, Session, ccsa
from ..errors import ConfigurationError
from ..mobility import LinearMobility, MobilityModel
from ..wpt import Charger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.request import ChargingRequest

__all__ = ["OpenSession", "OnlineRun", "GreedyDispatch", "BatchScheduler"]


@dataclass
class OpenSession:
    """A session still accepting members during an online run."""

    charger: int
    opened_at: float
    members: List[Device] = field(default_factory=list)

    def demands(self) -> List[float]:
        """Stored-energy demands of the current members."""
        return [d.demand for d in self.members]


@dataclass
class OnlineRun:
    """Accumulated state of one online scheduling run."""

    chargers: Sequence[Charger]
    mobility: MobilityModel
    open_sessions: List[OpenSession] = field(default_factory=list)
    closed_sessions: List[OpenSession] = field(default_factory=list)
    devices: List[Device] = field(default_factory=list)

    def close_expired(self, now: float, window: float) -> None:
        """Depart every open session older than *window* seconds."""
        still_open = []
        for s in self.open_sessions:
            if now - s.opened_at >= window:
                self.closed_sessions.append(s)
            else:
                still_open.append(s)
        self.open_sessions = still_open

    def finish(self, solver_name: str) -> Tuple[Schedule, CCSInstance]:
        """Close everything and freeze the run into a schedule + instance.

        The instance is built over all arrived devices (in arrival order)
        so the schedule can be costed with the standard offline machinery
        and compared against a clairvoyant solver on the same instance.
        """
        if not self.devices:
            raise ConfigurationError("no arrivals were scheduled")
        self.closed_sessions.extend(self.open_sessions)
        self.open_sessions = []
        instance = CCSInstance(
            devices=list(self.devices),
            chargers=list(self.chargers),
            mobility=self.mobility,
        )
        sessions = [
            Session(
                charger=s.charger,
                members=frozenset(
                    instance.device_index(d.device_id) for d in s.members
                ),
            )
            for s in self.closed_sessions
            if s.members
        ]
        return Schedule(sessions, solver=solver_name), instance


class GreedyDispatch:
    """Immediate-commitment online policy (see module docstring)."""

    name = "online-greedy"

    def __init__(self, window: float = 120.0):
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.window = window

    def run(
        self,
        requests: Sequence[ChargingRequest],
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
    ) -> Tuple[Schedule, CCSInstance]:
        """Process *requests* in order; return the final schedule + instance."""
        mobility = mobility if mobility is not None else LinearMobility()
        state = OnlineRun(chargers=chargers, mobility=mobility)

        for request in requests:
            state.close_expired(request.submitted_at, self.window)
            device = request.device
            state.devices.append(device)

            best_delta, best_action = None, None
            for session in state.open_sessions:
                charger = chargers[session.charger]
                if not charger.admits(len(session.members) + 1):
                    continue
                old = charger.session_price(session.demands())
                new = charger.session_price(session.demands() + [device.demand])
                delta = (new - old) + mobility.moving_cost(
                    device.position, charger.position, device.moving_rate
                )
                if best_delta is None or delta < best_delta:
                    best_delta, best_action = delta, ("join", session)
            for j, charger in enumerate(chargers):
                delta = charger.session_price([device.demand]) + mobility.moving_cost(
                    device.position, charger.position, device.moving_rate
                )
                if best_delta is None or delta < best_delta:
                    best_delta, best_action = delta, ("open", j)

            kind, target = best_action
            if kind == "join":
                target.members.append(device)
            else:
                state.open_sessions.append(
                    OpenSession(charger=target, opened_at=request.submitted_at, members=[device])
                )
        return state.finish(self.name)


class BatchScheduler:
    """Windowed batching: buffer arrivals, solve each batch offline."""

    name = "online-batch"

    def __init__(
        self,
        window: float = 120.0,
        solver: Callable[[CCSInstance], Schedule] = ccsa,
    ):
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.window = window
        self.solver = solver

    def run(
        self,
        requests: Sequence[ChargingRequest],
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
    ) -> Tuple[Schedule, CCSInstance]:
        """Process *requests* in windowed batches; return schedule + instance."""
        mobility = mobility if mobility is not None else LinearMobility()
        state = OnlineRun(chargers=chargers, mobility=mobility)

        batch: List[ChargingRequest] = []
        batch_deadline: Optional[float] = None

        def flush() -> None:
            if not batch:
                return
            sub_instance = CCSInstance(
                devices=[r.device for r in batch],
                chargers=list(chargers),
                mobility=mobility,
            )
            sub_schedule = self.solver(sub_instance)
            for session in sub_schedule.sessions:
                state.closed_sessions.append(
                    OpenSession(
                        charger=session.charger,
                        opened_at=batch[0].submitted_at,
                        members=[batch[i].device for i in sorted(session.members)],
                    )
                )
            batch.clear()

        for request in requests:
            if batch_deadline is not None and request.submitted_at >= batch_deadline:
                flush()
                batch_deadline = None
            if batch_deadline is None:
                batch_deadline = request.submitted_at + self.window
            batch.append(request)
            state.devices.append(request.device)
        flush()
        return state.finish(self.name)
