"""Mutable coalition structures — the state CCSGA's dynamics walk over.

A :class:`CoalitionStructure` is a partition of the device set into
coalitions, each bound to a charger.  Unlike the frozen
:class:`~repro.core.schedule.Schedule`, it supports the cheap incremental
moves the game dynamics perform thousands of times: remove a device from
its coalition, drop it into another (or a fresh singleton), and report
costs without recomputing the world.

**Incremental-cost engine.**  Every coalition carries cached aggregates —
total member demand, session price, summed member moving costs, and the
group cost they compose — refreshed in ``O(|S|)`` only when membership
actually changes (at most ``2`` coalitions per :meth:`move`).  The hot
path, hypothetical candidate evaluation (:meth:`cost_if_joined`,
:meth:`total_cost_if_moved`, :meth:`leave_delta`, :meth:`join_delta`),
reads those cached scalars and prices a deviation with a *single* tariff
evaluation, so a full CCSGA sweep is ``O(n · (sessions + chargers))``
tariff calls rather than ``O(n · Σ|S|)`` member-list rebuilds.

Structures also maintain a Zobrist-style 64-bit hash of the partition
(:meth:`zobrist_hash`), XOR-composed from per-device tokens mixed with
per-charger tokens, updated in ``O(1)`` per move — the cycle detector for
non-potential switch rules no longer rehashes an ``O(n)`` frozenset per
switch.

**Packed rows.**  The same aggregates are also kept struct-of-arrays, one
*packed* row per live coalition (:meth:`CoalitionStructure.packed_rows`:
cid, charger, size, Σ demand, price, Σ moving cost), written by the same
``_create`` / ``_refresh`` calls that write the :class:`Coalition` and
swap-removed when a coalition dies, so rows ``[0:k]`` are always the
live coalitions in no particular order.  The vectorized candidate scans
of :mod:`.arraycore` slice these rows directly; there is no second
coalition state to keep in step.  The structure also records which
coalitions it wrote (:meth:`CoalitionStructure.take_dirty`), so the
service plan's repair rechecks only the devices whose cost can have
changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..core.costsharing import CostSharingScheme, share_from_aggregates
from ..core.instance import CCSInstance, InstanceSurface
from ..core.schedule import Schedule, Session
from ..numeric import CACHE_REL_TOL, TOTAL_COST_REL_TOL

__all__ = ["Coalition", "CoalitionStructure"]


_MASK64 = (1 << 64) - 1

#: The packed-row columns of a :class:`CoalitionStructure`, in
#: :meth:`~CoalitionStructure.packed_rows` order.
_ROW_COLUMNS = ("_cids", "_chargers", "_sizes", "_demands", "_prices", "_moves")


def _splitmix64(x: int) -> int:
    """One splitmix64 step — the token generator behind the Zobrist hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _device_token(device: int) -> int:
    return _splitmix64(0xA0761D6478BD642F + device)


def _charger_token(charger: int) -> int:
    return _splitmix64(0xE7037ED1A0B428DB + charger)


@dataclass
class Coalition:
    """One coalition: a device group bound to a charger.

    Mutable by design; only :class:`CoalitionStructure` should touch
    :attr:`members` or the cached aggregates (``total_demand``, ``price``,
    ``move_sum``, ``fingerprint``), which it keeps coherent with the
    member set on every move (verified by
    :meth:`CoalitionStructure.check_invariants`).
    """

    cid: int
    charger: int
    members: Set[int]
    total_demand: float = 0.0
    price: float = 0.0
    move_sum: float = 0.0
    fingerprint: int = field(default=0, repr=False)
    #: Index of this coalition's packed row in the owning structure.
    row: int = field(default=-1, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Number of member devices."""
        return len(self.members)

    @property
    def group_cost(self) -> float:
        """Cached full session cost: session price + members' moving costs."""
        return self.price + self.move_sum


class CoalitionStructure:
    """A partition of all devices into charger-bound coalitions.

    Maintains the invariants (checked by :meth:`check_invariants`):

    - every device belongs to exactly one coalition;
    - no coalition is empty;
    - no coalition exceeds its charger's slot capacity;
    - every cached per-coalition aggregate, the cached total cost, and the
      Zobrist hash agree with from-scratch recomputation.

    Total comprehensive cost is cached and updated incrementally on moves —
    the potential function of the socially-aware game dynamics.
    """

    def __init__(self, instance: InstanceSurface, scheme: CostSharingScheme):
        self.instance = instance
        self.scheme = scheme
        self._coalitions: Dict[int, Coalition] = {}
        self._of_device: Dict[int, int] = {}
        self._next_cid = 0
        self._total_cost = 0.0
        self._zhash = 0
        # Packed rows ``[0:_k]``, one per live coalition (see module docs).
        alloc = max(16, instance.n_devices)
        self._k = 0
        self._cids = np.zeros(alloc, dtype=np.int64)
        self._chargers = np.zeros(alloc, dtype=np.int64)
        self._sizes = np.zeros(alloc, dtype=np.int64)
        self._demands = np.zeros(alloc, dtype=float)
        self._prices = np.zeros(alloc, dtype=float)
        self._moves = np.zeros(alloc, dtype=float)
        #: What the array scans (:mod:`.arraycore`) derive from the packed
        #: rows, kept until the next row write drops it.
        self.scan_cache: Optional[object] = None
        # Live cids whose row was written since the last ``take_dirty``.
        self._dirty: Set[int] = set()
        self._dev_token: List[int] = [
            _device_token(i) for i in range(instance.n_devices)
        ]
        self._ch_token: List[int] = [
            _charger_token(j) for j in range(instance.n_chargers)
        ]

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def singletons(
        cls, instance: CCSInstance, scheme: CostSharingScheme
    ) -> "CoalitionStructure":
        """The noncooperative start state: each device alone at its best charger.

        Vectorized: one ``argmin`` over the precomputed singleton-cost
        matrix instead of ``n · m`` group-cost evaluations (ties break
        toward the lower charger index, as before).
        """
        cs = cls(instance, scheme)
        best = np.argmin(instance.singleton_cost_matrix(), axis=1)
        for i in range(instance.n_devices):
            cs._create(int(best[i]), {i})
        return cs

    @classmethod
    def from_schedule(
        cls, instance: CCSInstance, scheme: CostSharingScheme, schedule: Schedule
    ) -> "CoalitionStructure":
        """Seed the game state from an existing schedule (e.g. a CCSA warm start)."""
        cs = cls(instance, scheme)
        for session in schedule.sessions:
            cs._create(session.charger, set(session.members))
        return cs

    def _refresh(self, coalition: Coalition) -> None:
        """Recompute a coalition's cached aggregates from its member set.

        ``O(|S|)``, called only when membership changes.  Summation runs
        over the sorted member list so the cached scalars match what a
        from-scratch ``scheme.shares(...)`` / ``group_cost`` evaluation
        would produce.  Writes the coalition's packed row from the same
        values.
        """
        ordered = sorted(coalition.members)
        demands = self.instance._demand_list
        total = 0.0
        for i in ordered:
            total += demands[i]
        coalition.total_demand = total
        coalition.price = self.instance.charging_price_for_demand(
            total, coalition.charger
        )
        coalition.move_sum = float(
            self.instance._moving_cost[ordered, coalition.charger].sum()
        )
        row = coalition.row
        self._sizes[row] = len(ordered)
        self._demands[row] = total
        self._prices[row] = coalition.price
        self._moves[row] = coalition.move_sum
        self.scan_cache = None
        self._dirty.add(coalition.cid)

    def _key(self, coalition: Coalition) -> int:
        """Zobrist key of one coalition: mixed member fingerprint × charger."""
        return _splitmix64(coalition.fingerprint ^ self._ch_token[coalition.charger])

    def _create(self, charger: int, members: Set[int]) -> Coalition:
        """Found a coalition of unplaced *members* at *charger*, with its row."""
        coalition = Coalition(self._next_cid, charger, set(members), row=self._k)
        self._next_cid += 1
        self._coalitions[coalition.cid] = coalition
        if self._k == self._cids.shape[0]:
            for name in _ROW_COLUMNS:
                col = getattr(self, name)
                setattr(self, name, np.concatenate((col, np.zeros_like(col))))
        self._k += 1
        self._cids[coalition.row] = coalition.cid
        self._chargers[coalition.row] = charger
        fingerprint = 0
        for i in members:
            if i in self._of_device:
                raise ValueError(f"device {i} already placed")
            self._of_device[i] = coalition.cid
            fingerprint ^= self._dev_token[i]
        coalition.fingerprint = fingerprint
        self._refresh(coalition)
        self._total_cost += coalition.group_cost
        self._zhash ^= self._key(coalition)
        return coalition

    def _delete(self, coalition: Coalition) -> None:
        """Drop a coalition and swap-remove its packed row."""
        del self._coalitions[coalition.cid]
        row, last = coalition.row, self._k - 1
        if row != last:
            for name in _ROW_COLUMNS:
                col = getattr(self, name)
                col[row] = col[last]
            self._coalitions[int(self._cids[row])].row = row
        self._k = last
        self.scan_cache = None
        self._dirty.discard(coalition.cid)

    def _leave(self, src: Coalition, device: int) -> None:
        """Take *device* out of *src*; deletes the coalition if it empties.

        The first half of :meth:`move`: drops *src*'s cost and Zobrist key,
        updates its membership and re-adds both (unless it died).  The
        device is left unplaced.
        """
        self._zhash ^= self._key(src)
        self._total_cost -= src.group_cost
        src.members.discard(device)
        src.fingerprint ^= self._dev_token[device]
        del self._of_device[device]
        if src.members:
            self._refresh(src)
            self._total_cost += src.group_cost
            self._zhash ^= self._key(src)
        else:
            self._delete(src)

    def _join(self, dest: Coalition, device: int) -> None:
        """Put unplaced *device* into live coalition *dest* (no checks).

        The second half of :meth:`move` when it targets a coalition.
        """
        self._zhash ^= self._key(dest)
        self._total_cost -= dest.group_cost
        dest.members.add(device)
        dest.fingerprint ^= self._dev_token[device]
        self._refresh(dest)
        self._total_cost += dest.group_cost
        self._zhash ^= self._key(dest)
        self._of_device[device] = dest.cid

    def _admitting(self, target: int) -> Coalition:
        """Coalition *target*, which must have a free slot on its charger."""
        dest = self._coalitions[target]
        if not self.instance.chargers[dest.charger].admits(dest.size + 1):
            raise ValueError(
                f"coalition {target} is at capacity on charger {dest.charger}"
            )
        return dest

    # ------------------------------------------------------------------ #
    # queries

    @property
    def total_cost(self) -> float:
        """Comprehensive cost of the current structure (incrementally maintained)."""
        return self._total_cost

    def coalitions(self) -> Iterator[Coalition]:
        """Iterate over the live coalitions."""
        return iter(self._coalitions.values())

    @property
    def n_coalitions(self) -> int:
        """Number of live coalitions."""
        return len(self._coalitions)

    def coalition_of(self, device: int) -> Coalition:
        """The coalition currently containing *device*."""
        return self._coalitions[self._of_device[device]]

    def packed_rows(self) -> Tuple[np.ndarray, ...]:
        """The live coalitions' packed rows, as ``[0:k]`` views.

        ``(cids, chargers, sizes, demands, prices, moves)``: int64 cid,
        charger and member count, float64 Σ demand, session price and Σ
        moving cost, bitwise the :class:`Coalition` fields.  Row order is
        arbitrary (creation order until a coalition dies, then
        swap-removed); the views are valid until the next mutation.
        """
        k = self._k
        return (
            self._cids[:k], self._chargers[:k], self._sizes[:k],
            self._demands[:k], self._prices[:k], self._moves[:k],
        )

    def take_dirty(self) -> Set[int]:
        """The live cids written since the previous call, and reset.

        A coalition is written when it is founded or its membership
        changes (:meth:`_refresh`), so the first call returns every live
        cid, on a fresh structure as on one rebuilt from a snapshot.
        Members of any other coalition have bitwise the costs they had
        at the previous call.
        """
        dirty, self._dirty = self._dirty, set()
        return dirty

    def _share_in(self, device: int, coalition: Coalition) -> float:
        """*device*'s price share inside *coalition* (fast path when possible)."""
        share = share_from_aggregates(
            self.scheme,
            self.instance,
            device,
            coalition.size,
            coalition.total_demand,
            coalition.price,
        )
        if share is not None:
            return share
        shares = self.scheme.shares(
            self.instance, sorted(coalition.members), coalition.charger
        )
        return shares[device]

    def individual_cost(self, device: int) -> float:
        """The device's current comprehensive cost: price share + moving cost."""
        coalition = self.coalition_of(device)
        return self._share_in(device, coalition) + self.instance.moving_cost(
            device, coalition.charger
        )

    def cost_if_joined(self, device: int, target: Optional[int], charger: int) -> float:
        """Hypothetical cost of *device* after moving to coalition *target*.

        ``target=None`` means founding a fresh singleton at *charger*.
        Returns ``inf`` when the move is inadmissible (capacity, or the
        device already sits there).  One tariff evaluation on cached
        aggregates for schemes with an O(1) fast path; falls back to a
        full share computation otherwise.
        """
        instance = self.instance
        if target is None:
            price = float(instance.singleton_price_matrix()[device, charger])
            share = share_from_aggregates(
                self.scheme, instance, device, 1,
                instance._demand_list[device], price,
            )
            if share is None:
                shares = self.scheme.shares(instance, [device], charger)
                share = shares[device]
            return share + instance.moving_cost(device, charger)

        coalition = self._coalitions[target]
        if device in coalition.members:
            return float("inf")
        if charger != coalition.charger:
            raise ValueError("target coalition is bound to a different charger")
        if not instance.chargers[charger].admits(coalition.size + 1):
            return float("inf")
        new_total = coalition.total_demand + instance._demand_list[device]
        new_price = instance.charging_price_for_demand(new_total, charger)
        share = share_from_aggregates(
            self.scheme, instance, device, coalition.size + 1, new_total, new_price
        )
        if share is None:
            members = sorted(coalition.members | {device})
            shares = self.scheme.shares(instance, members, charger)
            share = shares[device]
        return share + instance.moving_cost(device, charger)

    def leave_delta(self, device: int) -> float:
        """Change in *device*'s current coalition's cost if it left.

        Always ``<= 0`` under a nondecreasing tariff.  Target-independent,
        so candidate scans compute it once per device and reuse it across
        every contemplated destination.
        """
        src = self.coalition_of(device)
        if src.size == 1:
            return -src.group_cost
        instance = self.instance
        new_total = src.total_demand - instance._demand_list[device]
        new_price = instance.charging_price_for_demand(new_total, src.charger)
        new_move = src.move_sum - instance.moving_cost(device, src.charger)
        return (new_price + new_move) - src.group_cost

    def join_delta(self, device: int, target: int) -> float:
        """Change in coalition *target*'s cost if *device* joined it.

        ``inf`` when the join is inadmissible (already a member, or the
        target charger is at capacity).
        """
        coalition = self._coalitions[target]
        if device in coalition.members:
            return float("inf")
        instance = self.instance
        if not instance.chargers[coalition.charger].admits(coalition.size + 1):
            return float("inf")
        new_total = coalition.total_demand + instance._demand_list[device]
        new_price = instance.charging_price_for_demand(new_total, coalition.charger)
        new_move = coalition.move_sum + instance.moving_cost(device, coalition.charger)
        return (new_price + new_move) - coalition.group_cost

    def total_cost_if_moved(
        self, device: int, target: Optional[int], charger: int
    ) -> float:
        """Hypothetical total cost after the move (``inf`` if inadmissible)."""
        if target is None:
            join = float(self.instance.singleton_cost_matrix()[device, charger])
        else:
            join = self.join_delta(device, target)
            if join == float("inf"):
                return float("inf")
        return self._total_cost + self.leave_delta(device) + join

    # ------------------------------------------------------------------ #
    # moves

    def move(self, device: int, target: Optional[int], charger: int) -> None:
        """Move *device* to coalition *target* (or a new singleton at *charger*).

        Updates the cached total cost, the per-coalition aggregates, and
        the Zobrist hash incrementally, and drops the source coalition if
        it empties.  Raises on inadmissible moves — callers screen with
        :meth:`cost_if_joined` first.
        """
        src = self.coalition_of(device)
        if target is not None and target == src.cid:
            raise ValueError(f"device {device} is already in coalition {target}")
        dest = None if target is None else self._admitting(target)
        self._leave(src, device)
        if dest is None:
            self._create(charger, {device})
        else:
            self._join(dest, device)

    # ------------------------------------------------------------------ #
    # export / verification

    def to_schedule(self, solver: str, metadata: Optional[Dict[str, float]] = None) -> Schedule:
        """Freeze the structure into an immutable schedule."""
        sessions = [
            Session(charger=c.charger, members=frozenset(c.members))
            for c in self._coalitions.values()
        ]
        return Schedule(sessions, solver=solver, metadata=metadata)

    def state_key(self) -> FrozenSet[Tuple[int, FrozenSet[int]]]:
        """Hashable canonical form of the partition (``O(n)`` to build).

        Exact but expensive; the dynamics use :meth:`zobrist_hash` for
        per-switch cycle detection and keep this for tests and debugging.
        """
        return frozenset(
            (c.charger, frozenset(c.members)) for c in self._coalitions.values()
        )

    def zobrist_hash(self) -> int:
        """Incrementally maintained 64-bit hash of the partition.

        XOR over coalitions of ``mix(member-token XOR ⊕ charger token)``;
        equal structures always hash equal, distinct structures collide
        with probability ``~2^-64`` per pair.  O(1) to read, O(1) to
        maintain per switch — the cycle detector for non-potential rules.
        """
        return self._zhash

    def _zobrist_from_scratch(self) -> int:
        """Recompute the structure hash from first principles (for audits)."""
        h = 0
        for c in self._coalitions.values():
            fingerprint = 0
            for i in c.members:
                fingerprint ^= self._dev_token[i]
            h ^= _splitmix64(fingerprint ^ self._ch_token[c.charger])
        return h

    def _expected_coverage(self) -> Set[int]:
        """Device indices the structure must partition.

        The batch solvers cover every instance device; growable service
        structures (``repro.service.plan``) override this to the currently
        active subset so the same invariant checker serves both.
        """
        return set(range(self.instance.n_devices))

    def check_invariants(self) -> None:
        """Assert partition, nonemptiness, capacity, and cache coherence.

        Cache coherence covers the cached total cost, every coalition's
        cached aggregates (total demand, session price, moving-cost sum),
        the member fingerprints, the Zobrist hash, and the packed rows:
        exactly one row per live coalition, bitwise equal to its fields.
        """
        if self._k != len(self._coalitions):
            raise AssertionError(
                f"{self._k} packed rows for {len(self._coalitions)} coalitions"
            )
        seen: Set[int] = set()
        recomputed = 0.0
        for c in self._coalitions.values():
            if not c.members:
                raise AssertionError(f"coalition {c.cid} is empty")
            if not 0 <= c.row < self._k or int(self._cids[c.row]) != c.cid:
                raise AssertionError(f"coalition {c.cid}: row {c.row} maps elsewhere")
            packed = tuple(getattr(self, name)[c.row].item() for name in _ROW_COLUMNS)
            fields = (c.cid, c.charger, c.size, c.total_demand, c.price, c.move_sum)
            # repr round-trips every float exactly, so this is bitwise.
            if repr(packed) != repr(fields):
                raise AssertionError(f"coalition {c.cid}: packed row {packed} drifted")
            cap = self.instance.capacity_of(c.charger)
            if cap is not None and c.size > cap:
                raise AssertionError(f"coalition {c.cid} exceeds capacity {cap}")
            overlap = seen & c.members
            if overlap:
                raise AssertionError(f"devices {sorted(overlap)} in multiple coalitions")
            seen |= c.members
            for i in c.members:
                if self._of_device.get(i) != c.cid:
                    raise AssertionError(
                        f"device {i} mapped to coalition {self._of_device.get(i)}, "
                        f"found in {c.cid}"
                    )
            ordered = sorted(c.members)
            true_demand = sum(self.instance._demand_list[i] for i in ordered)
            true_price = self.instance.charging_price(ordered, c.charger)
            true_move = float(self.instance._moving_cost[ordered, c.charger].sum())
            for label, cached, true in (
                ("total_demand", c.total_demand, true_demand),
                ("price", c.price, true_price),
                ("move_sum", c.move_sum, true_move),
            ):
                if abs(cached - true) > CACHE_REL_TOL * max(1.0, abs(true)):
                    raise AssertionError(
                        f"coalition {c.cid}: cached {label} {cached} drifted "
                        f"from {true}"
                    )
            fingerprint = 0
            for i in c.members:
                fingerprint ^= self._dev_token[i]
            if fingerprint != c.fingerprint:
                raise AssertionError(
                    f"coalition {c.cid}: cached fingerprint drifted"
                )
            recomputed += self.instance.group_cost(c.members, c.charger)
        if seen != self._expected_coverage():
            raise AssertionError("coalition structure does not cover all devices")
        if abs(recomputed - self._total_cost) > TOTAL_COST_REL_TOL * max(1.0, abs(recomputed)):
            raise AssertionError(
                f"cached total cost {self._total_cost} drifted from {recomputed}"
            )
        if self._zhash != self._zobrist_from_scratch():
            raise AssertionError("cached Zobrist hash drifted from recomputation")
