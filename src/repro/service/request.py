"""Charging requests and their service lifecycle.

A :class:`ChargingRequest` is what a customer hands the daemon: a device
(who/where/how much energy), a submission time, and optional service
terms — a deadline by which charging must have *started* and a maximum
acceptable price.  The kernel tracks each request through the lifecycle::

    SUBMITTED ── admission ──> ADMITTED ── epoch fold ──> GROUPED
        │                         │                          │
        └──> REJECTED             ├──> EXPIRED (queue)       ├──> CHARGING ──> DONE
                                  └──> CANCELLED             ├──> EXPIRED (plan)
                                                             ├──> CANCELLED
                                                             └──> EVACUATING
                                                                    │ (charger failed /
                                                                    │  evicted over quote)
                    next epoch: re-quote vs. original ceiling ──────┤
                      ├──> GROUPED (re-folded, ceiling holds)       │
                      ├──> REJECTED (charger_failed)                │
                      └──> EXPIRED / CANCELLED ─────────────────────┘

Requests serialize to plain JSON (:meth:`ChargingRequest.to_dict` /
:meth:`ChargingRequest.from_dict`) because submissions are exactly what
the durable journal must replay to reconstruct a killed daemon.  The
kernel's per-request records have their one codec here too: a snapshot
stores each record as one flat row of scalars (:meth:`RequestRecord.to_row`),
laid out by :data:`RECORD_COLUMNS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core import Device
from ..errors import ConfigurationError
from ..geometry import Point

__all__ = ["RequestState", "ChargingRequest", "RequestRecord", "RECORD_COLUMNS"]

#: The snapshot row of one :class:`RequestRecord`, column by column: the
#: request's terms, its device, then the record's mutable slots.
RECORD_COLUMNS = (
    "id", "t", "deadline", "max_price",
    "device_id", "x", "y", "demand", "moving_rate", "speed",
    "state", "quote", "quote_charger", "reason", "device_index",
    "grouped_at", "departed_at", "completed_at", "session_seq", "realized_cost",
)


class RequestState:
    """Lifecycle states (plain strings so they journal/JSON naturally)."""

    SUBMITTED = "submitted"
    ADMITTED = "admitted"
    GROUPED = "grouped"
    CHARGING = "charging"
    DONE = "done"
    REJECTED = "rejected"
    EXPIRED = "expired"
    #: Displaced from the live plan (its charger failed, or an eviction
    #: kept the price-ceiling invariant); re-quoted at the next epoch.
    EVACUATING = "evacuating"
    #: Withdrawn by the customer (or a no-show) before charging started.
    CANCELLED = "cancelled"

    #: States a request can never leave.
    TERMINAL = frozenset({DONE, REJECTED, EXPIRED, CANCELLED})
    #: States that hold the device in service and can still exit early
    #: (rejected, expired or cancelled) before charging starts.
    LIVE = frozenset({ADMITTED, GROUPED, EVACUATING})


@dataclass(frozen=True)
class ChargingRequest:
    """One customer request: a device asking for service under given terms.

    Parameters
    ----------
    request_id:
        Stable identifier, unique within one daemon's lifetime.
    device:
        The requesting device (position, demand, moving-cost valuation).
    submitted_at:
        Logical submission time in seconds.
    deadline:
        Optional absolute time by which the request's session must have
        *departed* (started charging); otherwise it expires.
    max_price:
        Optional cap on the comprehensive cost the customer accepts.  The
        admission controller rejects requests whose standalone quote
        already exceeds it; admitted requests are guaranteed to realize a
        cost no greater than their quote (see docs/SERVICE.md).
    """

    request_id: str
    device: Device
    submitted_at: float
    deadline: Optional[float] = None
    max_price: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ConfigurationError("request_id must be a nonempty string")
        if not (math.isfinite(self.submitted_at) and self.submitted_at >= 0.0):
            raise ConfigurationError(
                f"request {self.request_id!r}: submitted_at must be a finite "
                f"nonnegative time, got {self.submitted_at}"
            )
        if self.deadline is not None and (
            not math.isfinite(self.deadline) or self.deadline <= self.submitted_at
        ):
            raise ConfigurationError(
                f"request {self.request_id!r}: deadline must be finite and after "
                f"submission ({self.submitted_at}), got {self.deadline}"
            )
        if self.max_price is not None and (
            not math.isfinite(self.max_price) or self.max_price <= 0.0
        ):
            raise ConfigurationError(
                f"request {self.request_id!r}: max_price must be finite and "
                f"positive, got {self.max_price}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; the journal's ``submit`` record payload."""
        return {
            "id": self.request_id,
            "t": float(self.submitted_at),
            "deadline": None if self.deadline is None else float(self.deadline),
            "max_price": None if self.max_price is None else float(self.max_price),
            "device": self.device.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChargingRequest":
        """Inverse of :meth:`to_dict`; used by journal replay and traces."""
        return cls(
            request_id=data["id"],
            device=Device.from_dict(data["device"]),
            submitted_at=float(data["t"]),
            deadline=data.get("deadline"),
            max_price=data.get("max_price"),
        )


class RequestRecord:
    """Mutable per-request tracking state inside the kernel."""

    __slots__ = (
        "request",
        "state",
        "quote",
        "quote_charger",
        "reason",
        "device_index",
        "grouped_at",
        "departed_at",
        "completed_at",
        "session_seq",
        "realized_cost",
    )

    def __init__(self, request: ChargingRequest):
        self.request = request
        self.state: str = RequestState.SUBMITTED
        self.quote: Optional[float] = None
        self.quote_charger: Optional[int] = None
        self.reason: Optional[str] = None
        self.device_index: Optional[int] = None
        self.grouped_at: Optional[float] = None
        self.departed_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.session_seq: Optional[int] = None
        self.realized_cost: Optional[float] = None

    def to_row(self) -> List[Any]:
        """One flat row of JSON scalars in :data:`RECORD_COLUMNS` order, as
        kernel snapshots store it (the request's floats coerced as in
        :meth:`ChargingRequest.to_dict`)."""
        request = self.request
        device = request.device
        return [
            request.request_id,
            float(request.submitted_at),
            None if request.deadline is None else float(request.deadline),
            None if request.max_price is None else float(request.max_price),
            device.device_id,
            float(device.position.x),
            float(device.position.y),
            float(device.demand),
            float(device.moving_rate),
            float(device.speed),
            self.state,
            self.quote,
            self.quote_charger,
            self.reason,
            self.device_index,
            self.grouped_at,
            self.departed_at,
            self.completed_at,
            self.session_seq,
            self.realized_cost,
        ]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "RequestRecord":
        """Inverse of :meth:`to_row`."""
        (
            request_id, t, deadline, max_price,
            device_id, x, y, demand, moving_rate, speed,
            state, quote, quote_charger, reason, device_index,
            grouped_at, departed_at, completed_at, session_seq, realized_cost,
        ) = row
        record = cls(
            ChargingRequest(
                request_id=request_id,
                device=Device(
                    device_id=device_id,
                    position=Point(float(x), float(y)),
                    demand=float(demand),
                    moving_rate=float(moving_rate),
                    speed=float(speed),
                ),
                submitted_at=float(t),
                deadline=deadline,
                max_price=max_price,
            )
        )
        record.state = state
        record.quote = quote
        record.quote_charger = quote_charger
        record.reason = reason
        record.device_index = device_index
        record.grouped_at = grouped_at
        record.departed_at = departed_at
        record.completed_at = completed_at
        record.session_seq = session_seq
        record.realized_cost = realized_cost
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestRecord({self.request.request_id!r}, state={self.state!r}, "
            f"quote={self.quote!r})"
        )
