"""The Cooperative Charging Scheduling (CCS) problem instance.

One problem model serves every scheduler: the devices asking for energy,
the chargers selling it, the mobility model pricing the trips, and each
device's moving costs and singleton session prices.
:class:`InstanceSurface` holds that model's read surface and the one
routine that prices a device's rows.  Two instances derive from it:

- :class:`CCSInstance` — one frozen round.  All solvers
  (:mod:`.ccsa`, :mod:`.ccsga`, :mod:`.optimal`, :mod:`.baselines`)
  consume it, so experiments can swap algorithms without touching
  workload code.
- :class:`~repro.service.plan.PlanInstance` — the charging service's
  live plan, which grows one device at a time and can mark chargers
  down.

The coalition engine and every cost-sharing scheme read only the shared
surface, so they run unchanged on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..geometry import Field
from ..numeric import is_exact_zero
from ..mobility import LinearMobility, MobilityModel
from ..wpt import Charger, ChargerPriceTable, is_concave_nondecreasing
from .device import Device

__all__ = ["CCSInstance", "InstanceSurface"]


class InstanceSurface:
    """The read surface of a CCS instance, shared by every scheduler.

    The constructor takes the chargers (at least one, unique
    identifiers) and the mobility model (``None`` means the paper's
    linear cost-per-meter model).  A subclass then fills the per-device
    caches: ``devices``, ``_device_index`` (identifier to index),
    ``_demand_list`` / ``_demands``, and the ``(n, m)`` matrices
    ``_moving_cost``, ``_singleton_price`` and ``_singleton_cost``, whose
    rows :meth:`_price_rows` prices.  Row = device, column = charger.
    """

    devices: Sequence[Device]
    chargers: Sequence[Charger]
    mobility: MobilityModel
    #: Per-charger up flags as a bool array, or ``None`` while every
    #: charger is up (always, on a frozen instance).  The candidate scans
    #: of both engines skip their availability check on ``None``.
    availability_mask: Optional[np.ndarray] = None
    _device_index: Dict[str, int]
    #: Per-device demands twice over: the plain list feeds Python-loop
    #: summation on the solver hot path (so summation order matches the
    #: historical ``sum(d.demand for ...)`` exactly), the array the
    #: vectorized scans' gathers.
    _demand_list: List[float]
    _demands: np.ndarray
    _moving_cost: np.ndarray
    _singleton_price: np.ndarray
    _singleton_cost: np.ndarray

    def __init__(
        self, chargers: Sequence[Charger], mobility: Optional[MobilityModel] = None
    ) -> None:
        self.chargers = tuple(chargers)
        if not self.chargers:
            raise ConfigurationError("an instance needs at least one charger")
        charger_ids = [c.charger_id for c in self.chargers]
        if len(set(charger_ids)) != len(charger_ids):
            raise ConfigurationError("charger identifiers must be unique")
        self._charger_index: Dict[str, int] = {c: k for k, c in enumerate(charger_ids)}
        self._charger_xy = [(c.position.x, c.position.y) for c in self.chargers]
        self.mobility = mobility if mobility is not None else LinearMobility()
        #: The mobility model's whole-matrix pricing hook, if it has one;
        #: without it moving costs fall back to one model call per pair.
        self._moving_cost_hook: Optional[Callable[..., Any]] = getattr(
            self.mobility, "moving_cost_matrix", None
        )
        self._price_table: Optional[ChargerPriceTable] = None

    # ------------------------------------------------------------------ #
    # pricing: where a device's rows come from

    def _distance_row(self, device: Device) -> List[float]:
        """Per-pair ``math.hypot`` distances to the chargers.

        Bitwise ``Point.distance_to`` (the vectorized sqrt-of-squares
        form rounds ~0.6% of entries differently).
        """
        x, y = device.position.x, device.position.y
        return [math.hypot(x - cx, y - cy) for cx, cy in self._charger_xy]

    def _moving_cost_row(self, device: Device) -> List[float]:
        """Hook-less fallback: one mobility-model call per charger."""
        return [
            self.mobility.moving_cost(device.position, c.position, device.moving_rate)
            for c in self.chargers
        ]

    def _price_rows(
        self,
        devices: Sequence[Device],
        distance: np.ndarray,
        move: np.ndarray,
        price: np.ndarray,
    ) -> None:
        """Price *devices* into the ``(len(devices), m)`` arrays given.

        *distance* gets the per-pair distances (:meth:`_distance_row`),
        *move* the moving costs derived from them by the mobility hook (or
        :meth:`_moving_cost_row` without one), and *price* the singleton
        session prices
        (:meth:`~repro.wpt.vector.ChargerPriceTable.singleton_price_matrix`).
        Every entry is bitwise the scalar ``mobility.moving_cost`` /
        ``Charger.price_for_stored`` value.
        """
        for i, device in enumerate(devices):
            distance[i] = self._distance_row(device)
        if self._moving_cost_hook is not None:
            rates = np.array([d.moving_rate for d in devices], dtype=float)
            move[...] = self._moving_cost_hook(distance, rates)
        else:
            for i, device in enumerate(devices):
                move[i] = self._moving_cost_row(device)
        demands = np.array([d.demand for d in devices], dtype=float)
        price[...] = self.price_table().singleton_price_matrix(demands)

    # ------------------------------------------------------------------ #
    # sizes and lookups

    @property
    def n_devices(self) -> int:
        """Number of devices (indices run ``0..n_devices-1``)."""
        return len(self.devices)

    @property
    def n_chargers(self) -> int:
        """Number of chargers."""
        return len(self.chargers)

    def device_index(self, device_id: str) -> int:
        """Index of the device with identifier *device_id*."""
        try:
            return self._device_index[device_id]
        except KeyError:
            raise KeyError(f"unknown device {device_id!r}") from None

    def charger_index(self, charger_id: str) -> int:
        """Index of the charger with identifier *charger_id*."""
        try:
            return self._charger_index[charger_id]
        except KeyError:
            raise KeyError(f"unknown charger {charger_id!r}") from None

    def charger_available(self, charger: int) -> bool:
        """True while charger index *charger* is up (see :attr:`availability_mask`)."""
        mask = self.availability_mask
        return mask is None or bool(mask[charger])

    def capacity_of(self, charger: int) -> Optional[int]:
        """Slot capacity of charger index *charger* (``None`` = unbounded)."""
        return self.chargers[charger].capacity

    # ------------------------------------------------------------------ #
    # cost primitives — everything downstream composes these

    def moving_cost(self, device: int, charger: int) -> float:
        """Monetary moving cost of device index *device* to charger index *charger*."""
        return float(self._moving_cost[device, charger])

    @property
    def demands(self) -> np.ndarray:
        """Read-only per-device demand vector (index-aligned with :attr:`devices`)."""
        return self._demands

    def total_demand(self, group: Iterable[int]) -> float:
        """Sum of stored-energy demands over device indices in *group*."""
        return sum(self.devices[i].demand for i in group)

    def charging_price_for_demand(self, total_demand: float, charger: int) -> float:
        """Session price at *charger* for an already-summed stored demand.

        The incremental-evaluation fast path: one tariff call on a cached
        scalar instead of re-iterating a member list.  Agrees with
        :meth:`charging_price` up to floating-point summation order.
        """
        if is_exact_zero(total_demand):
            return 0.0
        return self.chargers[charger].price_for_stored(total_demand)

    def price_table(self) -> ChargerPriceTable:
        """Lazily built vectorized tariff table over the (fixed) chargers."""
        if self._price_table is None:
            self._price_table = ChargerPriceTable(self.chargers)
        return self._price_table

    def price_for_demand_vector(
        self, totals: np.ndarray, chargers_idx: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`charging_price_for_demand` (bitwise identical).

        ``out[k]`` is the session price of summed demand ``totals[k]`` at
        charger ``chargers_idx[k]`` — the array engine's one-call pricing
        of a whole candidate scan.
        """
        return self.price_table().prices(totals, chargers_idx)

    def singleton_price_matrix(self) -> np.ndarray:
        """``(n_devices, n_chargers)`` matrix of singleton session prices.

        Entry ``[i, j]`` is the price device *i* pays charging alone at
        charger *j*; CCSGA's candidate scans read it every sweep.
        """
        return self._singleton_price

    def singleton_cost_matrix(self) -> np.ndarray:
        """``(n_devices, n_chargers)`` matrix of full singleton group costs.

        ``singleton_price_matrix() + moving costs`` — the cost of device
        *i* founding a fresh singleton session at charger *j*.
        """
        return self._singleton_cost

    def charging_price(self, group: Iterable[int], charger: int) -> float:
        """Session price when device-index *group* shares one session at *charger*.

        Zero for an empty group (no session happens).
        """
        return self.chargers[charger].session_price(
            self.devices[i].demand for i in group
        )

    def group_cost(self, group: Iterable[int], charger: int) -> float:
        """Full cost of one session: session price plus members' moving costs.

        This is the submodular block cost ``f_j(S)`` at the heart of the CCS
        objective.
        """
        members = list(group)
        if not members:
            return 0.0
        price = self.charging_price(members, charger)
        move = float(self._moving_cost[members, charger].sum())
        return price + move


@dataclass
class CCSInstance(InstanceSurface):
    """One round of the cooperative charging scheduling problem.

    Construction validates identifier uniqueness and (in strict mode) that
    every tariff is concave — the property all submodularity-based
    guarantees rest on — then prices every device's rows once.
    Instances are immutable in spirit: solvers never mutate them, and the
    precomputed matrices are private caches.

    Parameters
    ----------
    devices / chargers:
        The market participants.  Both lists must be nonempty with unique
        identifiers.
    mobility:
        Moving-cost and travel-time model; defaults to the paper's linear
        cost-per-meter model.
    field:
        Optional deployment field (used by the simulator and for
        reporting); scheduling itself only needs positions.
    strict:
        When true (default), verify each charger's tariff is concave and
        nondecreasing over the instance's total-demand range.
    """

    devices: Sequence[Device]
    chargers: Sequence[Charger]
    mobility: MobilityModel = field(default_factory=LinearMobility)
    field_area: Optional[Field] = None
    strict: bool = True

    def __post_init__(self) -> None:
        self.devices = tuple(self.devices)
        if not self.devices:
            raise ConfigurationError("an instance needs at least one device")
        super().__init__(self.chargers, self.mobility)
        device_ids = [d.device_id for d in self.devices]
        if len(set(device_ids)) != len(device_ids):
            raise ConfigurationError("device identifiers must be unique")
        self._device_index = {d: k for k, d in enumerate(device_ids)}
        if self.strict:
            self._validate_strict()

        self._demand_list = [float(d.demand) for d in self.devices]
        self._demands = np.array(self._demand_list, dtype=float)
        # One geometric source of truth: the device x charger distance
        # matrix, kept for :meth:`distance`; the moving costs and singleton
        # prices are priced from it in the same pass.
        shape = (self.n_devices, self.n_chargers)
        self._distance = np.empty(shape)
        self._moving_cost = np.empty(shape)
        self._singleton_price = np.empty(shape)
        self._price_rows(
            self.devices, self._distance, self._moving_cost, self._singleton_price
        )
        self._singleton_cost = self._singleton_price + self._moving_cost

    def _validate_strict(self) -> None:
        total_demand = sum(d.demand for d in self.devices)
        for charger in self.chargers:
            e_max = max(total_demand / charger.efficiency, 1e-9)
            if not is_concave_nondecreasing(charger.tariff, e_max):
                raise ConfigurationError(
                    f"charger {charger.charger_id!r}: tariff is not concave "
                    "nondecreasing over the instance demand range; CCSA's "
                    "submodularity guarantee would not hold (pass strict=False "
                    "to accept heuristically)"
                )

    def distance(self, device: int, charger: int) -> float:
        """Euclidean distance in meters between device and charger indices."""
        return float(self._distance[device, charger])

    def standalone_cost(self, device: int) -> float:
        """Best cost the device achieves alone — its noncooperative fallback."""
        return min(self.group_cost([device], j) for j in range(self.n_chargers))

    def describe(self) -> str:
        """One-line human-readable summary for logs and reports."""
        caps = {c.capacity for c in self.chargers}
        if caps == {None}:
            cap_txt = "unbounded"
        else:
            finite = sorted(c for c in caps if c is not None)
            labels = [str(c) for c in finite] + (["unbounded"] if None in caps else [])
            cap_txt = f"capacities [{', '.join(labels)}]"
        return (
            f"CCSInstance({self.n_devices} devices, {self.n_chargers} chargers, "
            f"{cap_txt}, mobility={type(self.mobility).__name__})"
        )
