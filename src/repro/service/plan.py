"""Incremental replanning on top of the PR-1 coalition engine.

The batch solvers work on a frozen :class:`~repro.core.instance.CCSInstance`;
a service cannot — devices arrive, charge, and leave while the plan is
live.  This module supplies the three pieces that bridge the gap without
ever re-solving from scratch:

- :class:`PlanInstance` — a *growable* instance.  It derives from
  :class:`~repro.core.instance.InstanceSurface`, the read surface the
  batch instance has too, so the engine reads both the same way.  Adding
  a device costs ``O(m)`` (one matrix row, priced once at admission and
  reused at the fold); nothing else is recomputed.
- :class:`GrowableCoalitionStructure` — the PR-1
  :class:`~repro.game.coalition.CoalitionStructure` extended with
  ``place`` / ``remove`` / ``retire``, so devices can enter a live
  partition, drop out (expiry), or leave wholesale when a session departs.
  All cached aggregates, the running total cost, and the Zobrist hash stay
  incrementally maintained; ``check_invariants`` still audits everything.
- :class:`IncrementalPlanner` — the epoch replanner: fold a batch of
  admitted devices into the current structure (each at its cheapest of
  ``O(sessions + m)`` candidates; the array engine scores the batch once
  and rescores one coalition per placement), run a bounded
  socially-aware improvement pass over the touched neighborhood, then
  *repair* individual rationality so no member's comprehensive cost
  ever exceeds its admission quote, rechecking only the coalitions
  written since the last repair (both passes run ``ccsga``'s
  :func:`~repro.game.switching.best_response_sweep`).  The repair always
  terminates: a device's best singleton cost equals its quote and is
  independent of everyone else, so forcing a persistent violator into a
  singleton pins it at the quote forever.  With charger
  *outages* (see :mod:`repro.faults`) that singleton may be gone; repair
  then **evicts** the unrepairable device instead of overcharging it,
  and the kernel re-quotes it against its original ceiling at the next
  epoch.

Every candidate evaluation is tallied in :attr:`IncrementalPlanner.ops`;
tests assert per-request work stays bounded by the *live* plan size, not
by the total number of requests ever served.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import Device
from ..core.ccsga import resolve_engine
from ..core.costsharing import CostSharingScheme, EgalitarianSharing
from ..core.instance import InstanceSurface
from ..errors import ServiceError
from ..game.arraycore import StructureArrayView
from ..game.coalition import CoalitionStructure, _device_token
from ..game.switching import SelfishSwitch, SociallyAwareSwitch, best_response_sweep
from ..mobility import MobilityModel
from ..numeric import DEFAULT_REL_TOL
from ..wpt import Charger

__all__ = ["PlanInstance", "GrowableCoalitionStructure", "IncrementalPlanner"]

#: Socially-aware best-response sweeps per fold, over the touched devices.
IMPROVEMENT_SWEEPS = 2
#: Selfish repair rounds per fold before the leftover violators are forced
#: into their best available singleton (or evicted).
REPAIR_ROUNDS = 3


class PlanInstance(InstanceSurface):
    """A growable CCS instance: fixed chargers, devices added over time.

    Every read the coalition engine and the cost-sharing schemes make
    comes from the shared :class:`~repro.core.instance.InstanceSurface`;
    this class adds only growth and charger availability.  The per-device
    matrices are views over row buffers that grow by doubling, so
    :meth:`add_device` appends one device in ``O(m)``.  Device indices are
    append-only and never reused — a retired device's row simply stops
    being referenced.

    A device is priced once per admission: :meth:`quote_rows` builds its
    moving-cost and singleton-price rows for the quote, and the fold hands
    the same rows to :meth:`add_device`.  A snapshot restore prices every
    device it brings back as one matrix (:meth:`add_devices`).
    """

    def __init__(
        self,
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
    ):
        super().__init__(chargers, mobility)
        self.devices: List[Device] = []
        self._device_index = {}
        self._demand_list = []
        m = self.n_chargers
        #: Per-charger up flags (fault semantics): a down charger is
        #: excluded from quoting, insertion, improvement, and repair, but
        #: its matrix columns stay — recovery is a single flag flip.
        self._up: List[bool] = [True] * m
        #: Chargers that can quote (up and admitting a lone device), as
        #: sorted indices; ``None`` while every charger can.  Kept current,
        #: with ``availability_mask``, by :meth:`set_available`.
        self._quotable: Optional[np.ndarray] = None
        self._refresh_quotable()
        cap = 16
        self._mc_buf = np.empty((cap, m), dtype=float)
        self._sp_buf = np.empty((cap, m), dtype=float)
        self._sc_buf = np.empty((cap, m), dtype=float)
        self._dem_buf = np.empty(cap, dtype=float)
        self._sync_views()

    def _sync_views(self) -> None:
        n = len(self.devices)
        self._moving_cost = self._mc_buf[:n]
        self._singleton_price = self._sp_buf[:n]
        self._singleton_cost = self._sc_buf[:n]
        self._demands = self._dem_buf[:n]

    # ------------------------------------------------------------------ #
    # pricing at admission
    #
    # A device is priced once, when it is quoted at admission
    # (:meth:`quote_rows`).  Those rows travel with the queued request and
    # become its plan rows at the fold (:meth:`add_device` with ``rows``);
    # a snapshot restore prices all of its devices as one matrix
    # (:meth:`add_devices`, through the shared ``_price_rows``).  Every
    # path gives the scalar ``mobility.moving_cost`` /
    # ``Charger.price_for_stored`` values bit for bit.

    def quote_rows(self, device: Device) -> Tuple[np.ndarray, np.ndarray]:
        """``(moving-cost row, singleton-price row)`` for one device.

        The admission-time pricing of a request: array ops over the
        chargers (the mobility hook, then one ``np.power`` per distinct
        tariff exponent), with no per-charger tariff or mobility call on
        the closed-form paths.  The quote (:meth:`best_singleton`) reads
        these rows, and :meth:`add_device` reuses them at the fold.
        """
        if self._moving_cost_hook is not None:
            move = np.asarray(
                self._moving_cost_hook(
                    np.array(self._distance_row(device)), device.moving_rate
                ),
                dtype=float,
            )
        else:
            move = np.array(self._moving_cost_row(device), dtype=float)
        price = self.price_table().singleton_price_row(device.demand)
        return move, price

    def best_singleton(
        self,
        device: Device,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[float, int]:
        """Cheapest standalone option: ``(cost, charger index)``.

        The admission *quote*: what the device would pay charging alone at
        its best *available* charger.  *rows* are the device's
        :meth:`quote_rows` when the caller already holds them (they are
        priced here otherwise).  Ties break toward the lower charger
        index.  Raises :class:`~repro.errors.ServiceError` when no
        available charger admits a device (e.g. every charger is down).
        """
        move, price = rows if rows is not None else self.quote_rows(device)
        costs = move + price
        j = self.cheapest_singleton(costs)
        if j is None:
            raise ServiceError("no available charger admits even a single device")
        return float(costs[j]), j

    def cheapest_singleton(self, costs: np.ndarray) -> Optional[int]:
        """The quotable charger with the lowest singleton cost in *costs*.

        One masked ``argmin`` over the chargers that are up and admit a
        lone device; ties go to the lower charger index.  ``None`` when
        no charger can quote.
        """
        quotable = self._quotable
        if quotable is None:
            return int(costs.argmin())
        if not quotable.size:
            return None
        return int(quotable[costs[quotable].argmin()])

    def device_rows(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The plan's ``(moving-cost, singleton-price)`` rows of device *index*."""
        return self._moving_cost[index], self._singleton_price[index]

    # ------------------------------------------------------------------ #
    # charger availability (fault semantics)

    def set_available(self, charger: int, up: bool) -> None:
        """Flip charger index *charger*'s availability flag."""
        self._up[charger] = bool(up)
        self._refresh_quotable()

    def _refresh_quotable(self) -> None:
        quotable = [
            j for j, c in enumerate(self.chargers) if self._up[j] and c.admits(1)
        ]
        self._quotable = (
            None
            if len(quotable) == len(self.chargers)
            else np.array(quotable, dtype=np.int64)
        )
        #: How many chargers are up.
        self.n_available = self._up.count(True)
        self.availability_mask = (
            None if all(self._up) else np.array(self._up, dtype=bool)
        )

    # ------------------------------------------------------------------ #
    # growth

    def _reserve(self, n: int) -> None:
        """Grow the row buffers (by doubling) to hold at least *n* devices."""
        cap = self._mc_buf.shape[0]
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        live = len(self.devices)
        for name in ("_mc_buf", "_sp_buf", "_sc_buf", "_dem_buf"):
            buf = getattr(self, name)
            new = np.empty((cap,) + buf.shape[1:], dtype=float)
            new[:live] = buf[:live]
            setattr(self, name, new)

    def _register(self, devices: Sequence[Device]) -> range:
        """Append *devices*, whose rows are already in the buffers."""
        lo = len(self.devices)
        for i, device in enumerate(devices, lo):
            self.devices.append(device)
            self._demand_list.append(float(device.demand))
            self._device_index[device.device_id] = i
        hi = len(self.devices)
        self._dem_buf[lo:hi] = self._demand_list[lo:hi]
        self._sync_views()
        return range(lo, hi)

    def add_device(
        self,
        device: Device,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> int:
        """Append *device*; returns its (permanent) index.  ``O(m)``.

        *rows* are the device's admission :meth:`quote_rows`; without them
        (a request still queued across a restore) the device is priced
        again, bit-identically.  A device identifier may recur (a device
        coming back for another charge after finishing an earlier
        session); ``device_index`` then resolves to the latest index.
        Guarding against *concurrently* served duplicates is the kernel's
        admission job.
        """
        move, price = rows if rows is not None else self.quote_rows(device)
        i = len(self.devices)
        self._reserve(i + 1)
        self._mc_buf[i] = move
        self._sp_buf[i] = price
        self._sc_buf[i] = move + price
        self._register((device,))
        return i

    def add_devices(self, devices: Sequence[Device]) -> range:
        """Append *devices* in order, priced as one matrix; returns their indices.

        The snapshot-restore path.  Row ``i`` is bitwise what
        :meth:`add_device` stores for ``devices[i]``, but the rows are
        priced by the shared ``_price_rows`` as ``(n, m)`` matrices written
        straight into the grown buffers, with at most one ``(n, m)``
        temporary alive at a time.
        """
        lo = len(self.devices)
        hi = lo + len(devices)
        if devices:
            self._reserve(hi)
            move, price, cost = (
                self._mc_buf[lo:hi], self._sp_buf[lo:hi], self._sc_buf[lo:hi]
            )
            # The cost rows are free until the end: stage distances there.
            self._price_rows(devices, cost, move, price)
            np.add(move, price, out=cost)
        return self._register(devices)


class GrowableCoalitionStructure(CoalitionStructure):
    """The PR-1 coalition structure, opened up for a live service plan.

    Three additional mutations, all maintaining the cached total cost,
    the per-coalition aggregates, and the Zobrist hash incrementally:

    - :meth:`place` — a *new* device enters an existing coalition or
      founds a singleton (``move`` without a source);
    - :meth:`remove` — a device drops out (deadline expiry);
    - :meth:`retire` — a whole coalition leaves the plan (its session
      departed and is now charging).

    Coverage is the set of currently placed devices, not
    ``range(n_devices)`` — retired indices are tombstones.
    """

    def register_device(self, device: int) -> None:
        """Extend the Zobrist token table to cover a newly added index."""
        while len(self._dev_token) <= device:
            self._dev_token.append(_device_token(len(self._dev_token)))

    def _expected_coverage(self) -> Set[int]:
        return set(self._of_device)

    def is_placed(self, device: int) -> bool:
        """True while *device* sits in some live coalition."""
        return device in self._of_device

    def place(self, device: int, target: Optional[int], charger: int):
        """Insert an unplaced *device* (``target=None`` founds a singleton).

        The join half of ``move``.  Returns the receiving
        :class:`~repro.game.coalition.Coalition`.
        """
        if device in self._of_device:
            raise ValueError(f"device {device} already placed")
        if target is None:
            dest = self._create(charger, {device})
        else:
            dest = self._admitting(target)
            if dest.charger != charger:
                raise ValueError("target coalition is bound to a different charger")
            self._join(dest, device)
        return dest

    def remove(self, device: int) -> int:
        """Drop *device* from its coalition; returns the source cid.

        The leave half of ``move``: the coalition is deleted if it
        empties.  The caller is responsible for re-establishing
        individual rationality of the survivors
        (:meth:`IncrementalPlanner._repair`) — removing a member can raise
        the per-head share of those left behind.
        """
        src = self.coalition_of(device)
        self._leave(src, device)
        return src.cid

    def retire(self, cid: int):
        """Remove coalition *cid* wholesale; returns the dead Coalition.

        Other coalitions are untouched (a departure never changes anyone
        else's bill), so no repair is needed afterwards.
        """
        coalition = self._coalitions[cid]
        self._delete(coalition)
        self._zhash ^= self._key(coalition)
        self._total_cost -= coalition.group_cost
        for i in sorted(coalition.members):
            del self._of_device[i]
        return coalition


class IncrementalPlanner:
    """Epoch-based replanner: fold, improve, repair — never re-solve.

    Owns the growable instance + structure pair and the per-device cost
    ceilings (admission quotes).  All mutation entry points keep two
    invariants the kernel's tests assert:

    1. every placed device's comprehensive cost is at most its ceiling
       (individual rationality against the standalone quote);
    2. the structure's cached aggregates are coherent
       (:meth:`~repro.game.coalition.CoalitionStructure.check_invariants`).
    """

    def __init__(
        self,
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        tol: float = DEFAULT_REL_TOL,
        engine: Optional[str] = None,
    ):
        self.instance = PlanInstance(chargers, mobility)
        self.scheme: CostSharingScheme = (
            scheme if scheme is not None else EgalitarianSharing()
        )
        self.structure = GrowableCoalitionStructure(self.instance, self.scheme)
        self.tol = float(tol)
        self._social = SociallyAwareSwitch(tol=self.tol)
        self._selfish = SelfishSwitch(tol=self.tol)
        #: Scan engine (see :func:`repro.core.ccsga.resolve_engine`): the
        #: array engine runs the improvement/repair/insert candidate scans
        #: through a :class:`~repro.game.arraycore.StructureArrayView` over
        #: the structure's packed rows — bit-identical moves, vectorized
        #: evaluation.
        self.engine: str = resolve_engine(
            engine, self.instance, self.scheme, self._social
        )
        self._view: Optional[StructureArrayView] = (
            StructureArrayView(self.structure) if self.engine == "array" else None
        )
        self.ceiling: Dict[int, float] = {}
        #: The last :meth:`_violators` check's result, rechecked by the
        #: next one (see there).
        self._over: List[int] = []
        #: Operation tally for the incremental-work regression tests.
        #: ``full_solves`` stays 0 by construction — there is no code path
        #: that hands the live plan to a batch solver.
        self.ops: Dict[str, int] = {
            "insert_candidates": 0,
            "scan_candidates": 0,
            "moves": 0,
            "repair_moves": 0,
            "full_solves": 0,
        }

    # ------------------------------------------------------------------ #
    # quoting and membership

    def quote(
        self,
        device: Device,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[float, int]:
        """Standalone quote for a (not yet admitted) device: ``(cost, charger)``.

        *rows* are the device's :meth:`PlanInstance.quote_rows`, if the
        caller already priced it.  Only *available* chargers quote; raises
        :class:`~repro.errors.ServiceError` when none can.
        """
        return self.instance.best_singleton(device, rows)

    # ------------------------------------------------------------------ #
    # charger availability (fault semantics)

    def is_available(self, charger: int) -> bool:
        """True while charger index *charger* is up."""
        return self.instance.charger_available(charger)

    def fail_charger(self, charger: int) -> None:
        """Mark charger index *charger* down (idempotent).

        Only flips the availability flag — evacuating the coalitions
        bound to it is a separate, explicit step
        (:meth:`evacuate_charger`) so the kernel can journal each
        displaced request.
        """
        self.instance.set_available(charger, False)

    def restore_charger(self, charger: int) -> None:
        """Mark charger index *charger* up again (idempotent)."""
        self.instance.set_available(charger, True)

    def available_chargers(self) -> List[int]:
        """Sorted indices of the currently available chargers."""
        return [j for j in range(self.instance.n_chargers) if self.is_available(j)]

    def evacuate_charger(self, charger: int) -> List[int]:
        """Retire every coalition bound to a (failed) charger.

        Returns the displaced device indices in ascending order.  Their
        ceilings are *kept*: the displaced devices are re-quoted against
        them at the next epoch (re-fold if the original quote still
        holds, reject with ``charger_failed`` otherwise).  No repair is
        needed — other coalitions' bills are untouched by a retirement.
        """
        displaced: List[int] = []
        for cid in self.live_cids():
            coalition = self.structure._coalitions[cid]
            if coalition.charger == charger:
                displaced.extend(sorted(coalition.members))
                self.structure.retire(cid)
        return sorted(displaced)

    def add(
        self,
        device: Device,
        ceiling: float,
        rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> int:
        """Register an admitted device (not yet placed); returns its index.

        *rows* are the admission quote's :meth:`PlanInstance.quote_rows`;
        passing them keeps the fold from pricing the device a second time.
        """
        index = self.instance.add_device(device, rows)
        self.structure.register_device(index)
        self.ceiling[index] = float(ceiling)
        return index

    def active_indices(self) -> List[int]:
        """Sorted indices of devices currently placed in the live plan."""
        return sorted(self.structure._of_device)

    def individual_cost(self, device: int) -> float:
        """Current comprehensive cost of a placed device."""
        return self.structure.individual_cost(device)

    # ------------------------------------------------------------------ #
    # the epoch fold

    def _object_best_insert(self, device: int) -> Optional[Tuple[Optional[int], int]]:
        """The object insert scan: ``(target cid or None, charger)`` or ``None``.

        The reference the array engine's ``insert_batch`` choices match
        bit for bit.  Tie-breaks mirror the switch rules: cheaper first, then
        joins over singletons, then lower charger, then lower cid.
        """
        st, inst = self.structure, self.instance
        best_key: Optional[Tuple[float, int, int, int]] = None
        best: Optional[Tuple[Optional[int], int]] = None
        for coalition in st.coalitions():
            if not inst.charger_available(coalition.charger):
                continue
            cost = st.cost_if_joined(device, coalition.cid, coalition.charger)
            if cost == float("inf"):
                continue
            key = (cost, 0, coalition.charger, coalition.cid)
            if best_key is None or key < best_key:
                best_key, best = key, (coalition.cid, coalition.charger)
        row = inst.singleton_cost_matrix()[device]
        for j in range(inst.n_chargers):
            if not (inst.charger_available(j) and inst.chargers[j].admits(1)):
                continue
            key = (float(row[j]), 1, j, -1)
            if best_key is None or key < best_key:
                best_key, best = key, (None, j)
        return best

    def fold(self, indices: Sequence[int]) -> Tuple[Dict[int, int], List[int]]:
        """Fold a batch of registered devices into the live structure.

        Returns ``(placements, evicted)``: ``placements`` maps each batch
        device to its receiving cid *at insertion time* (improvement moves
        may relocate devices afterwards), and ``evicted`` lists devices
        the repair pass had to remove because no available placement met
        their ceiling (only possible after a charger outage; empty with
        every charger up).  After the fold the individual-rationality
        invariant holds for every device still placed.

        Devices are inserted in index order, each at its own-cost argmin
        over the live coalitions (``O(n_coalitions + m)`` candidates).
        The array engine scores the whole batch once and rescores one
        packed row per placement (:class:`~repro.game.arraycore.InsertBatch`);
        the object engine scans each device (:meth:`_object_best_insert`).
        """
        st = self.structure
        per_scan = self.instance.n_chargers
        devices = sorted(indices)
        batch = self._view.insert_batch(devices) if self._view is not None else None
        placements: Dict[int, int] = {}
        touched: Set[int] = set()
        for b, device in enumerate(devices):
            # One candidate per live coalition (available or not) plus one
            # per charger, whichever engine scans them.
            self.ops["insert_candidates"] += st.n_coalitions + per_scan
            if batch is not None:
                choice = batch.choice(b)
            else:
                choice = self._object_best_insert(device)
            if choice is None:
                raise ServiceError("no feasible placement for admitted device")
            coalition = st.place(device, choice[0], choice[1])
            if batch is not None:
                batch.placed(b, coalition)
            self.ops["moves"] += 1
            placements[device] = coalition.cid
            touched |= coalition.members
        self._improve(touched)
        evicted = self._repair()
        return placements, evicted

    def _improve(self, touched: Set[int]) -> None:
        """Bounded socially-aware best-response sweeps over *touched*.

        Each permitted switch strictly lowers the total comprehensive cost
        (the game's potential), so sweeps cannot cycle; we additionally
        cap them at :data:`IMPROVEMENT_SWEEPS`.  Grows *touched* in place
        (destination coalitions join the neighborhood).
        """
        st, per_scan = self.structure, self.instance.n_chargers
        for _ in range(IMPROVEMENT_SWEEPS):
            order = [d for d in sorted(touched) if st.is_placed(d)]
            # Each call scores the rest of the list: most devices stay.
            # ``scan_candidates`` counts a candidate per coalition and per
            # charger for each scanned device; coalitions change at moves.
            scanned, width = 0, st.n_coalitions + per_scan
            for at, move in best_response_sweep(
                st, self._social, order, len(order), self._view
            ):
                self.ops["scan_candidates"] += (at + 1 - scanned) * width
                scanned, width = at + 1, st.n_coalitions + per_scan
                self.ops["moves"] += 1
                touched |= st.coalition_of(move.device).members
            self.ops["scan_candidates"] += (len(order) - scanned) * width
            if not scanned:
                break

    def _violators(self) -> List[int]:
        """Placed devices above their ceiling, in index order.

        Checks only what can have changed since the previous check: the
        members of every coalition the structure wrote since then
        (:meth:`~repro.game.coalition.CoalitionStructure.take_dirty`),
        plus the previous check's violators.  Any other device's cost is
        bitwise what that check compared (a device's cost is a function
        of its coalition's aggregates, rewritten on every membership
        change, and its ceiling is fixed while it is placed), so it still
        meets its ceiling, and the list equals a scan of every placed
        device.  The violators carry over because they can outlive a
        repair: a device at its best available singleton within
        tolerance can still sit an ulp above its quote (a proportional
        share), and the repair leaves it there.
        """
        st = self.structure
        check = {d for d in self._over if st.is_placed(d)}
        for cid in st.take_dirty():
            check |= st._coalitions[cid].members
        ceiling, tol = self.ceiling, self.tol
        self._over = [
            d for d in sorted(check) if st.individual_cost(d) > ceiling[d] + tol
        ]
        return self._over

    def _repair(self) -> List[int]:
        """Re-establish ``cost <= ceiling`` for every placed device.

        Membership churn can push a bystander above its quote (e.g. a
        base-fee-dominated session losing a member raises everyone's
        per-head share).  Violators take their best selfish move, and
        after :data:`REPAIR_ROUNDS` rounds any stragglers are *forced*
        into their best available singleton.  With every charger up that
        singleton costs exactly the quote and can never be disturbed by
        other devices leaving, so repair always converges to zero
        violators.  After a charger outage the quote's charger may be
        gone: a violator whose best *available* singleton exceeds its
        ceiling is unrepairable and is **evicted** from the structure
        (ceiling kept — the kernel re-quotes it at the next epoch and
        rejects it with ``charger_failed`` if the ceiling cannot hold).
        Returns the evicted device indices in eviction order.

        Each round finds its violators with :meth:`_violators`, which
        checks only the coalitions written since the previous round (or
        the previous repair), so a repair costs what the changes since
        then touched, not the size of the live plan.
        """
        st, inst = self.structure, self.instance
        per_scan = inst.n_chargers
        evicted: List[int] = []
        for _ in range(REPAIR_ROUNDS):
            violators = self._violators()
            if not violators:
                return evicted
            # Nearly every violator has a selfish move, so segments start
            # at one row.
            scanned, width = 0, st.n_coalitions + per_scan
            for at, _move in best_response_sweep(
                st, self._selfish, violators, 1, self._view
            ):
                self.ops["scan_candidates"] += (at + 1 - scanned) * width
                scanned, width = at + 1, st.n_coalitions + per_scan
                self.ops["repair_moves"] += 1
            self.ops["scan_candidates"] += (len(violators) - scanned) * width
        while True:
            violators = self._violators()
            if not violators:
                return evicted
            progressed = False
            for device in violators:
                # A force earlier in this pass may have shifted this
                # device's share either way; recheck before acting.
                if st.individual_cost(device) <= self.ceiling[device] + self.tol:
                    continue
                row = inst.singleton_cost_matrix()[device]
                j = inst.cheapest_singleton(row)
                if j is not None and float(row[j]) <= self.ceiling[device] + self.tol:
                    src = st.coalition_of(device)
                    if src.size == 1 and src.charger == j:
                        continue
                    st.move(device, None, j)
                    self.ops["repair_moves"] += 1
                    progressed = True
                    continue
                # No available placement can meet this device's ceiling:
                # evict rather than overcharge.  The ceiling survives for
                # the kernel's re-quote.
                st.remove(device)
                evicted.append(device)
                self.ops["repair_moves"] += 1
                progressed = True
            if not progressed:
                # Every remaining violator already sits at its best
                # available singleton, whose cost meets the ceiling within
                # tolerance; nothing more can help.  They stay on the
                # violator list the next repair rechecks.
                return evicted

    # ------------------------------------------------------------------ #
    # departures and expiries

    def remove(self, device: int) -> List[int]:
        """Drop a placed device out of the plan, then repair survivors.

        Used for expiries, cancellations, and no-shows: the ceiling is
        deleted (the request is gone for good) and the survivors of its
        coalition are repaired — losing a member re-shares the session
        cost and can push a survivor over its own quote.  Returns any
        devices the repair had to evict (see :meth:`_repair`; empty with
        every charger up).
        """
        self.structure.remove(device)
        del self.ceiling[device]
        return self._repair()

    def retire(self, cid: int) -> Dict[str, object]:
        """Depart coalition *cid*; returns the frozen session accounting.

        The returned dict carries everything the kernel journals and
        meters: charger index, sorted member indices, session price, the
        per-member price shares (exact, via the scheme), and per-member
        moving costs.
        """
        st, inst = self.structure, self.instance
        coalition = st._coalitions[cid]
        members = sorted(coalition.members)
        shares = self.scheme.shares(inst, members, coalition.charger)
        info = {
            "charger": coalition.charger,
            "members": members,
            "price": coalition.price,
            "demands": [inst._demand_list[i] for i in members],
            "shares": {i: float(shares[i]) for i in members},
            "moving": {i: inst.moving_cost(i, coalition.charger) for i in members},
        }
        st.retire(cid)
        for i in members:
            del self.ceiling[i]
        return info

    def live_cids(self) -> List[int]:
        """Sorted cids of the live coalitions (creation order = cid order)."""
        return sorted(self.structure._coalitions)
