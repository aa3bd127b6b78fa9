"""Array-native CCSGA engine: the vectorized coalition candidate scan.

The object engine (:mod:`.coalition` + :mod:`.switching`) evaluates a
device's candidate moves with a Python loop over live coalitions — fast
in *algorithmic* terms after the PR-1 incremental-cost work, but still
~1 µs of interpreter overhead per candidate, which caps throughput near
n ≈ 800.  This module stores the same state struct-of-arrays style and
evaluates **all** candidate moves of a scan with a handful of numpy ops:

====================  =========================================  =========
quantity              array (one row per live coalition)         dtype
====================  =========================================  =========
charger binding       ``_charger[0:k]``                          int64
coalition id          ``_cid[0:k]``                              int64
member count          ``_size[0:k]``                             int64
cached Σ demand       ``_demand[0:k]``                           float64
cached session price  ``_price[0:k]``                            float64
cached Σ moving cost  ``_move[0:k]``                             float64
====================  =========================================  =========

plus per-device state (``_dev_row``, demand list, the shared
moving-cost / singleton matrices of the instance).  Rows are kept
*packed*: deleting a coalition swap-removes its row, so every scan
operates on contiguous ``[0:k]`` views with no gather step.

**Bit-identity contract.**  :class:`ArrayState` must be observationally
indistinguishable from :class:`~repro.game.coalition.CoalitionStructure`
driving the same dynamics: the same permitted switch chosen for every
device (identical tie-breaks), the same cached aggregates, the same
total cost *to the last bit*, and the same Zobrist hash.  That is why

- every reduction with more than one float term mirrors the object
  engine's op order exactly (sorted-member Python-loop demand sums, the
  same numpy pairwise ``.sum()`` for move sums, the same
  ``(a + (b + c)) - (d + e)`` delta grouping);
- session prices come from :class:`~repro.wpt.vector.ChargerPriceTable`,
  whose vectorized tariff arithmetic is bitwise equal to the scalar
  path (both route pow through numpy — see
  :class:`~repro.wpt.pricing.PowerLawTariff`);
- candidate selection replicates ``SwitchRule.best_move``'s
  lexicographic key ``(own_delta, is_singleton, charger, cid)`` with an
  argmin chain instead of a first-strictly-smaller scan (the key is
  unique per candidate, so both find the same winner).

The kernel scores a whole list of devices at once (``first_move``: one
row per device) and reports the first row with a permitted move; the
one-device ``best_move`` is its one-row case.
:class:`StructureArrayView` applies the same kernel to a live *object*
``CoalitionStructure`` — the service's incremental planner uses it so
improvement/repair sweeps scan a segment of devices per numpy pass while
placements and journaling keep the object representation.

dtype discipline: everything float64 / int64; narrowing dtypes and
unordered reductions in this module are rejected by ccs-lint rule
CCS008.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from ..core.costsharing import CostSharingScheme
from ..core.schedule import Schedule, Session
from ..errors import ConfigurationError
from ..numeric import CACHE_REL_TOL, TOTAL_COST_REL_TOL
from ..wpt import Charger
from .coalition import CoalitionStructure, _charger_token, _device_token, _splitmix64
from .switching import SelfishSwitch, SociallyAwareSwitch, SwitchMove, SwitchRule

__all__ = [
    "ArrayState",
    "StructureArrayView",
    "engine_supported",
]


class _EngineInstance(Protocol):
    """The instance surface the array engine reads.

    Satisfied by :class:`~repro.core.instance.CCSInstance` and
    :class:`~repro.service.plan.PlanInstance`.
    """

    chargers: Sequence[Charger]

    @property
    def n_devices(self) -> int: ...

    @property
    def n_chargers(self) -> int: ...

    def charging_price_for_demand(self, total_demand: float, charger: int) -> float: ...

    def price_for_demand_vector(
        self, totals: np.ndarray, chargers_idx: np.ndarray
    ) -> np.ndarray: ...

    def singleton_price_matrix(self) -> np.ndarray: ...

    def singleton_cost_matrix(self) -> np.ndarray: ...


def engine_supported(
    instance: object, scheme: CostSharingScheme, rule: SwitchRule
) -> bool:
    """True when the array engine can reproduce the object engine exactly.

    Requires a cost-sharing scheme with both scalar and vectorized
    aggregate fast paths (the two paper schemes), one of the two built-in
    switch rules (exactly — a subclass may override ``permits``), and an
    instance exposing vectorized session pricing.
    """
    return (
        type(rule) in (SelfishSwitch, SociallyAwareSwitch)
        and getattr(scheme, "share_of", None) is not None
        and getattr(scheme, "share_of_vector", None) is not None
        and getattr(instance, "price_for_demand_vector", None) is not None
    )


def _capacity_vector(chargers: Sequence[Charger]) -> np.ndarray:
    """Per-charger slot capacities with ``None`` mapped to +inf."""
    return np.array(
        [float("inf") if c.capacity is None else float(c.capacity) for c in chargers],
        dtype=float,
    )


def _availability_mask(instance: object) -> Optional[np.ndarray]:
    """The instance's cached per-charger up flags, or ``None`` to mask nothing.

    A live service plan (:class:`~repro.service.plan.PlanInstance`) keeps
    the mask current as chargers fail and recover, and holds ``None``
    while every charger is up; a frozen batch instance has no
    availability notion at all.  Either way ``None`` skips the mask.
    """
    return getattr(instance, "availability_mask", None)


class _Candidates:
    """The live coalitions' aggregates, one entry per packed row.

    Built once per structure version.  An insert scan reads the rows as
    they are; a move scan also needs :meth:`joins`, derived on the
    version's first move scan.
    """

    __slots__ = ("k", "cids", "chargers", "sizes", "demands", "prices", "moves", "cap",
                 "_joins")

    def __init__(
        self,
        cids: np.ndarray,
        chargers: np.ndarray,
        sizes: np.ndarray,
        demands: np.ndarray,
        prices: np.ndarray,
        moves: np.ndarray,
        cap: np.ndarray,
    ):
        self.k = cids.shape[0]
        self.cids = cids
        self.chargers = chargers
        self.sizes = sizes
        self.demands = demands
        self.prices = prices
        self.moves = moves
        self.cap = cap
        self._joins: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]] = None

    def joins(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(joined, cost, fits, count)``: per row the member count after
        a join, the session's cost now and whether the join fits the
        charger; and how many rows fit."""
        if self._joins is None:
            joined = self.sizes + 1
            fits = joined <= self.cap[self.chargers]
            self._joins = (
                joined, self.prices + self.moves, fits, int(np.count_nonzero(fits))
            )
        return self._joins


def _kernel_first_move(
    *,
    devices: np.ndarray,
    src: np.ndarray,
    rule: SwitchRule,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    total_now: float,
    cand: _Candidates,
    avail: Optional[np.ndarray],
    moving: np.ndarray,
    sp: np.ndarray,
    sc: np.ndarray,
    demands: np.ndarray,
) -> Optional[Tuple[int, SwitchMove]]:
    """Vectorized ``SwitchRule.best_move`` over a list of devices.

    Scores every candidate move of every listed device at once: one row
    per device (``devices[r]``, whose own coalition is packed row
    ``src[r]``), one column per live coalition to join and one per
    charger to found a singleton at.  Every element is computed with the
    object scan's formula and operation order (``_scan_deltas``), so
    each row holds bitwise the deltas a one-device scan would.  Returns
    ``(r, move)`` for the first row with a permitted move and that
    device's winner under ``SwitchRule.best_move``'s key
    ``(own_delta, is_singleton, charger, cid)``, or ``None`` when no
    listed device may move.

    Candidates the object scan *skips* (the source coalition, the
    device's own singleton, full coalitions, down chargers) are computed
    but masked out of selection — cheaper than compressing the arrays,
    and numerically inert.  Tariff calls are made only for what can
    matter: none when no row has a coalition it could join and every
    device sits alone.
    """
    n = devices.shape[0]
    dem = demands[devices]
    dcol = dem[:, None]
    s_ch = cand.chargers[src]
    s_size = cand.sizes[src]
    s_dem = cand.demands[src]
    s_price = cand.prices[src]
    s_move = cand.moves[src]
    rows = np.arange(n)
    mv = moving.take(devices, axis=0)
    mv_src = moving[devices, s_ch]
    own_now = scheme.share_of_vector(  # type: ignore[attr-defined]
        instance, dem, s_size, s_dem, s_price
    ) + mv_src
    own_col = own_now[:, None]
    single = s_size == 1
    n_single = np.count_nonzero(single)

    # A device may join any coalition but its own that has a free slot
    # on an available charger.
    joined, cost, fits, n_fits = cand.joins()
    if avail is not None:
        fits = fits & avail[cand.chargers]
        n_fits = np.count_nonzero(fits)
    joinable = n_fits > 1 or (n_fits == 1 and np.count_nonzero(fits[src]) < n)
    # Leaving a singleton empties its session, so the leave delta is
    # ``-cost``; otherwise the source session is priced without the
    # device, in the same tariff call as the joins when there are any.
    stays = n_single < n
    if joinable:
        k = cand.k
        totals = np.empty((n, k + stays), dtype=float)
        chargers = np.empty((n, k + stays), dtype=np.int64)
        np.add(cand.demands, dcol, out=totals[:, :k])
        chargers[:, :k] = cand.chargers
        if stays:
            np.subtract(s_dem, dem, out=totals[:, k])
            chargers[:, k] = s_ch
        prices = instance.price_for_demand_vector(totals, chargers)
        stay = prices[:, -1]
    elif stays:
        stay = instance.price_for_demand_vector(s_dem - dem, s_ch)
    if stays:
        # A singleton row prices an empty session (exactly 0.0) and
        # drops a move sum equal to its own moving cost: bitwise
        # ``-cost`` again, as in the object scan.
        leave = (stay + (s_move - mv_src)) - (s_price + s_move)
    else:
        leave = -(s_price + s_move)
    base = (total_now + leave)[:, None]

    neg = -rule.tol
    social = isinstance(rule, SociallyAwareSwitch)
    if joinable:
        new_total = totals[:, :k]
        new_price = prices[:, :k]
        move_ij = mv[:, cand.chargers]
        share = scheme.share_of_vector(  # type: ignore[attr-defined]
            instance, dcol, joined, new_total, new_price
        )
        own_delta = (share + move_ij) - own_col
        total_delta = (base + ((new_price + (cand.moves + move_ij)) - cost)) - total_now
        permit = own_delta < neg
        if social:
            permit &= total_delta < neg
        permit &= fits
        permit[rows, src] = False

    share_s = scheme.share_of_vector(  # type: ignore[attr-defined]
        instance, dcol, 1, dcol, sp.take(devices, axis=0)
    )
    own_delta_s = (share_s + mv) - own_col
    total_delta_s = (base + sc.take(devices, axis=0)) - total_now
    permit_s = own_delta_s < neg
    if social:
        permit_s &= total_delta_s < neg
    if avail is not None:
        permit_s &= avail
    # Re-founding its own singleton is not a move.
    if n_single == n:
        permit_s[rows, s_ch] = False
    elif n_single:
        permit_s[rows[single], s_ch[single]] = False

    # The first row with a permitted move: bool argmax finds each
    # block's first True in row-major order.
    m = mv.shape[1]
    hit = int(permit_s.argmax())
    r = hit // m if permit_s.flat[hit] else n
    if joinable:
        hit = int(permit.argmax())
        if permit.flat[hit]:
            r = min(r, hit // k)
    if r == n:
        return None

    best_key: Optional[Tuple[float, bool, int, int]] = None
    best: Optional[Tuple[Optional[int], int, float, float]] = None
    if joinable:
        hits = np.flatnonzero(permit[r])
        if hits.size:
            od = own_delta[r, hits]
            sel = hits[od == od.min()]
            if sel.size > 1:
                ch = cand.chargers[sel]
                sel = sel[ch == ch.min()]
                if sel.size > 1:
                    cids = cand.cids[sel]
                    sel = sel[cids == cids.min()]
            win = int(sel[0])
            best_key = (
                float(own_delta[r, win]), False, int(cand.chargers[win]), int(cand.cids[win])
            )
            best = (
                int(cand.cids[win]),
                int(cand.chargers[win]),
                float(own_delta[r, win]),
                float(total_delta[r, win]),
            )
    hits = np.flatnonzero(permit_s[r])
    if hits.size:
        od = own_delta_s[r, hits]
        # flatnonzero yields ascending charger order, so the first
        # minimum is the lowest-charger tie-break winner.
        win = int(hits[od == od.min()][0])
        key = (float(own_delta_s[r, win]), True, win, -1)
        if best_key is None or key < best_key:
            best = (None, win, float(own_delta_s[r, win]), float(total_delta_s[r, win]))
    assert best is not None
    return r, SwitchMove(int(devices[r]), best[0], best[1], best[2], best[3])


def _kernel_best_insert(
    *,
    device: int,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    demand_i: float,
    cand_cid: np.ndarray,
    cand_charger: np.ndarray,
    cand_size: np.ndarray,
    cand_demand: np.ndarray,
    cap: np.ndarray,
    avail: Optional[np.ndarray],
    mv_row: np.ndarray,
    sc_row: np.ndarray,
) -> Optional[Tuple[Optional[int], int]]:
    """Vectorized mirror of ``IncrementalPlanner._insert``'s candidate scan.

    Returns ``(target_cid_or_None, charger)`` for the cheapest placement
    of an unplaced device under the planner's exact tie-break key
    ``(cost, join-before-singleton, charger, cid)``, or ``None`` when no
    candidate is feasible.
    """
    best_key: Optional[Tuple[float, int, int, int]] = None
    best: Optional[Tuple[Optional[int], int]] = None

    if cand_cid.shape[0]:
        ok = (cand_size + 1) <= cap[cand_charger]
        if avail is not None:
            ok &= avail[cand_charger]
        idx = np.flatnonzero(ok)
        if idx.size:
            sub_ch = cand_charger[idx]
            new_total = cand_demand[idx] + demand_i
            new_price = instance.price_for_demand_vector(new_total, sub_ch)
            share = scheme.share_of_vector(  # type: ignore[attr-defined]
                instance, demand_i, cand_size[idx] + 1, new_total, new_price
            )
            cost = share + mv_row[sub_ch]
            sel = idx[cost == cost.min()]
            if sel.size > 1:
                ch = cand_charger[sel]
                sel = sel[ch == ch.min()]
                if sel.size > 1:
                    cids = cand_cid[sel]
                    sel = sel[cids == cids.min()]
            win = int(sel[0])
            local = int(np.flatnonzero(idx == win)[0])
            best_key = (
                float(cost[local]),
                0,
                int(cand_charger[win]),
                int(cand_cid[win]),
            )
            best = (int(cand_cid[win]), int(cand_charger[win]))

    m = mv_row.shape[0]
    smask = cap >= 1
    if avail is not None:
        smask = smask & avail
    js = np.flatnonzero(smask)
    if js.size:
        row = sc_row[js]
        win = int(js[np.flatnonzero(row == row.min())[0]])
        key = (float(row.min()), 1, win, -1)
        if best_key is None or key < best_key:
            best_key = key
            best = (None, win)

    return best


class ArrayState:
    """Struct-of-arrays coalition structure — the batch array engine.

    Maintains exactly the state of a
    :class:`~repro.game.coalition.CoalitionStructure` (cached per-
    coalition aggregates, Python-float running total cost, Zobrist hash,
    monotone coalition ids) in packed numpy rows, with
    :meth:`first_move` evaluating whole candidate scans vectorized.
    Bit-identical to the object engine by construction;
    ``tests/test_game_array.py`` proves it on every golden fixture and
    under hypothesis fuzz.
    """

    def __init__(self, instance: _EngineInstance, scheme: CostSharingScheme):
        if getattr(scheme, "share_of_vector", None) is None:
            raise ConfigurationError(
                "array engine requires a cost-sharing scheme with the "
                "share_of_vector aggregate fast path"
            )
        self.instance = instance
        self.scheme = scheme
        n = instance.n_devices
        m = instance.n_chargers
        self._demand_list: List[float] = instance._demand_list  # type: ignore[attr-defined]
        self._moving: np.ndarray = instance._moving_cost  # type: ignore[attr-defined]
        self._sp = instance.singleton_price_matrix()
        self._sc = instance.singleton_cost_matrix()
        self._cap = _capacity_vector(instance.chargers)
        self._dev_token: List[int] = [_device_token(i) for i in range(n)]
        self._ch_token: List[int] = [_charger_token(j) for j in range(m)]

        alloc = max(16, n)
        self._charger = np.zeros(alloc, dtype=np.int64)
        self._cid = np.zeros(alloc, dtype=np.int64)
        self._size = np.zeros(alloc, dtype=np.int64)
        self._demand = np.zeros(alloc, dtype=float)
        self._price = np.zeros(alloc, dtype=float)
        self._move = np.zeros(alloc, dtype=float)
        self._members: List[Set[int]] = []
        self._fp: List[int] = []
        self._k = 0
        self._row_of_cid: Dict[int, int] = {}
        self._dev_row = np.full(n, -1, dtype=np.int64)
        self._next_cid = 0
        self._total_cost = 0.0
        self._zhash = 0
        #: Scan view of the current rows; dropped on every mutation.
        self._cand: Optional[_Candidates] = None

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def singletons(
        cls, instance: _EngineInstance, scheme: CostSharingScheme
    ) -> "ArrayState":
        """The noncooperative start state (mirrors the object engine)."""
        state = cls(instance, scheme)
        best = np.argmin(instance.singleton_cost_matrix(), axis=1)
        for i in range(instance.n_devices):
            state._create(int(best[i]), {i})
        return state

    @classmethod
    def from_schedule(
        cls,
        instance: _EngineInstance,
        scheme: CostSharingScheme,
        schedule: Schedule,
    ) -> "ArrayState":
        """Seed the array state from an existing schedule (warm start)."""
        state = cls(instance, scheme)
        for session in schedule.sessions:
            state._create(session.charger, set(session.members))
        return state

    # ------------------------------------------------------------------ #
    # row bookkeeping

    def _ensure_alloc(self, rows: int) -> None:
        alloc = self._charger.shape[0]
        if rows <= alloc:
            return
        grown = max(rows, alloc * 2)
        for name in ("_charger", "_cid", "_size"):
            arr = getattr(self, name)
            new = np.zeros(grown, dtype=np.int64)
            new[: self._k] = arr[: self._k]
            setattr(self, name, new)
        for name in ("_demand", "_price", "_move"):
            arr = getattr(self, name)
            new = np.zeros(grown, dtype=float)
            new[: self._k] = arr[: self._k]
            setattr(self, name, new)

    def _new_row(self, charger: int) -> int:
        self._ensure_alloc(self._k + 1)
        row = self._k
        self._k += 1
        cid = self._next_cid
        self._next_cid += 1
        self._charger[row] = charger
        self._cid[row] = cid
        self._size[row] = 0
        self._demand[row] = 0.0
        self._price[row] = 0.0
        self._move[row] = 0.0
        self._members.append(set())
        self._fp.append(0)
        self._row_of_cid[cid] = row
        return row

    def _delete_row(self, row: int) -> None:
        last = self._k - 1
        del self._row_of_cid[int(self._cid[row])]
        if row != last:
            for arr in (
                self._charger,
                self._cid,
                self._size,
                self._demand,
                self._price,
                self._move,
            ):
                arr[row] = arr[last]
            moved = self._members[last]
            self._members[row] = moved
            self._fp[row] = self._fp[last]
            self._row_of_cid[int(self._cid[row])] = row
            for i in moved:
                self._dev_row[i] = row
        self._members.pop()
        self._fp.pop()
        self._k = last

    def _group_cost(self, row: int) -> float:
        return float(self._price[row]) + float(self._move[row])

    def _key_row(self, row: int) -> int:
        return _splitmix64(self._fp[row] ^ self._ch_token[int(self._charger[row])])

    def _refresh(self, row: int) -> None:
        """Recompute a row's cached aggregates from its member set.

        Same summation discipline as the object engine's ``_refresh``:
        demand summed over the sorted member list in a Python loop, the
        move sum via the identical numpy pairwise reduction.
        """
        members = self._members[row]
        ordered = sorted(members)
        charger = int(self._charger[row])
        total = 0.0
        for i in ordered:
            total += self._demand_list[i]
        self._demand[row] = total
        self._price[row] = self.instance.charging_price_for_demand(total, charger)
        # ccs-lint: ignore[CCS008] -- deliberate: the object engine's
        # ``_refresh`` performs this exact pairwise reduction on the same
        # operands; sharing the call keeps both engines bit-identical.
        self._move[row] = float(self._moving[ordered, charger].sum())
        self._size[row] = len(ordered)

    def _create(self, charger: int, members: Set[int]) -> int:
        self._cand = None
        row = self._new_row(charger)
        fingerprint = 0
        for i in members:
            if int(self._dev_row[i]) != -1:
                raise ValueError(f"device {i} already placed")
            self._dev_row[i] = row
            fingerprint ^= self._dev_token[i]
        self._members[row] = set(members)
        self._fp[row] = fingerprint
        self._refresh(row)
        self._total_cost += self._group_cost(row)
        self._zhash ^= self._key_row(row)
        return row

    # ------------------------------------------------------------------ #
    # queries

    @property
    def total_cost(self) -> float:
        """Comprehensive cost of the current structure (incrementally maintained)."""
        return self._total_cost

    @property
    def n_coalitions(self) -> int:
        """Number of live coalitions."""
        return self._k

    def zobrist_hash(self) -> int:
        """Incrementally maintained 64-bit partition hash (object-engine equal)."""
        return self._zhash

    def state_key(self) -> FrozenSet[Tuple[int, FrozenSet[int]]]:
        """Canonical partition form — comparable across engines."""
        return frozenset(
            (int(self._charger[r]), frozenset(self._members[r]))
            for r in range(self._k)
        )

    def first_move(
        self, devices: Sequence[int], rule: SwitchRule
    ) -> Optional[Tuple[int, SwitchMove]]:
        """The first of *devices* with a permitted move, and that move.

        Returns ``(position in devices, move)``, where the move is exactly
        what ``rule.best_move(structure, device)`` would return on the
        equivalent object structure; ``None`` when no listed device may
        move.  All rows are scored in one array pass.
        """
        if self._cand is None:
            k = self._k
            self._cand = _Candidates(
                self._cid[:k],
                self._charger[:k],
                self._size[:k],
                self._demand[:k],
                self._price[:k],
                self._move[:k],
                self._cap,
            )
        dev = np.array(devices, dtype=np.int64)
        return _kernel_first_move(
            devices=dev,
            src=self._dev_row[dev],
            rule=rule,
            scheme=self.scheme,
            instance=self.instance,
            total_now=self._total_cost,
            cand=self._cand,
            avail=_availability_mask(self.instance),
            moving=self._moving,
            sp=self._sp,
            sc=self._sc,
            demands=self.instance._demands,  # type: ignore[attr-defined]
        )

    def best_move(self, device: int, rule: SwitchRule) -> Optional[SwitchMove]:
        """The permitted move minimizing *device*'s own cost, vectorized.

        The one-row case of :meth:`first_move`: exactly what
        ``rule.best_move(structure, device)`` returns on the equivalent
        object structure — same move, same deltas, or ``None``.
        """
        hit = self.first_move((device,), rule)
        return None if hit is None else hit[1]

    def is_nash(self, rule: SwitchRule) -> bool:
        """True iff no device has a permitted deviation (vectorized audit)."""
        return all(
            self.best_move(device, rule) is None
            for device in range(self.instance.n_devices)
        )

    # ------------------------------------------------------------------ #
    # moves

    def move(self, device: int, target: Optional[int], charger: int) -> None:
        """Move *device* to coalition *target* (or found a singleton).

        Mirrors ``CoalitionStructure.move`` exactly, including the
        validation order and the total-cost accumulation sequence.
        """
        src = int(self._dev_row[device])
        if target is not None:
            dest = self._row_of_cid[target]
            if dest == src:
                raise ValueError(f"device {device} is already in coalition {target}")
            dest_ch = int(self._charger[dest])
            if not self.instance.chargers[dest_ch].admits(int(self._size[dest]) + 1):
                raise ValueError(
                    f"coalition {target} is at capacity on charger {dest_ch}"
                )
            charger = dest_ch

        self._cand = None
        token = self._dev_token[device]
        self._zhash ^= self._key_row(src)
        self._total_cost -= self._group_cost(src)
        members = self._members[src]
        members.discard(device)
        self._fp[src] ^= token
        if members:
            self._refresh(src)
            self._total_cost += self._group_cost(src)
            self._zhash ^= self._key_row(src)
        else:
            self._delete_row(src)

        if target is None:
            dest = self._new_row(charger)
        else:
            # Re-resolve: the swap-remove above may have renumbered rows.
            dest = self._row_of_cid[target]
            self._zhash ^= self._key_row(dest)
            self._total_cost -= self._group_cost(dest)
        self._members[dest].add(device)
        self._fp[dest] ^= token
        self._refresh(dest)
        self._total_cost += self._group_cost(dest)
        self._zhash ^= self._key_row(dest)
        self._dev_row[device] = dest

    # ------------------------------------------------------------------ #
    # export / verification

    def to_schedule(
        self, solver: str, metadata: Optional[Dict[str, float]] = None
    ) -> Schedule:
        """Freeze into a schedule, sessions in cid (creation) order.

        The object engine's dict iteration yields coalitions in insertion
        order, which — cids being monotone — is ascending cid order; the
        packed rows are permuted by swap-removes, so sort to match.
        """
        order = sorted(range(self._k), key=lambda r: int(self._cid[r]))
        sessions = [
            Session(
                charger=int(self._charger[r]), members=frozenset(self._members[r])
            )
            for r in order
        ]
        return Schedule(sessions, solver=solver, metadata=metadata)

    def check_invariants(self) -> None:
        """Audit partition coverage, caches, capacity, and the Zobrist hash.

        The array-engine counterpart of
        ``CoalitionStructure.check_invariants``, with the same tolerances.
        """
        seen: Set[int] = set()
        recomputed = 0.0
        zobrist = 0
        for row in range(self._k):
            members = self._members[row]
            if not members:
                raise AssertionError(f"row {row} is an empty coalition")
            charger = int(self._charger[row])
            capacity = self.instance.chargers[charger].capacity
            if capacity is not None and len(members) > capacity:
                raise AssertionError(f"row {row} exceeds capacity {capacity}")
            overlap = seen & members
            if overlap:
                raise AssertionError(f"devices {sorted(overlap)} in multiple rows")
            seen |= members
            for i in members:
                if int(self._dev_row[i]) != row:
                    raise AssertionError(f"device {i} row pointer drifted")
            if self._row_of_cid[int(self._cid[row])] != row:
                raise AssertionError(f"cid index drifted for row {row}")
            ordered = sorted(members)
            true_demand = sum(self._demand_list[i] for i in ordered)
            true_price = self.instance.charging_price_for_demand(
                true_demand, charger
            )
            # ccs-lint: ignore[CCS008] -- audit recomputation mirroring the
            # object engine's identical pairwise reduction.
            true_move = float(self._moving[ordered, charger].sum())
            for label, cached, true in (
                ("total_demand", float(self._demand[row]), true_demand),
                ("price", float(self._price[row]), true_price),
                ("move_sum", float(self._move[row]), true_move),
            ):
                if abs(cached - true) > CACHE_REL_TOL * max(1.0, abs(true)):
                    raise AssertionError(
                        f"row {row}: cached {label} {cached} drifted from {true}"
                    )
            if int(self._size[row]) != len(members):
                raise AssertionError(f"row {row}: cached size drifted")
            fingerprint = 0
            for i in members:
                fingerprint ^= self._dev_token[i]
            if fingerprint != self._fp[row]:
                raise AssertionError(f"row {row}: cached fingerprint drifted")
            zobrist ^= _splitmix64(fingerprint ^ self._ch_token[charger])
            recomputed += true_price + true_move
        expected = {
            i for i in range(self.instance.n_devices) if int(self._dev_row[i]) != -1
        }
        if seen != expected:
            raise AssertionError("array state does not cover its placed devices")
        if abs(recomputed - self._total_cost) > TOTAL_COST_REL_TOL * max(
            1.0, abs(recomputed)
        ):
            raise AssertionError(
                f"cached total cost {self._total_cost} drifted from {recomputed}"
            )
        if zobrist != self._zhash:
            raise AssertionError("cached Zobrist hash drifted from recomputation")


class StructureArrayView:
    """Vectorized candidate scans over a live object ``CoalitionStructure``.

    The incremental planner keeps its object structure (placement,
    retirement, and journaling all read it), but its improvement and
    repair sweeps spend their time in the candidate scan.  This view
    packs the live coalitions' cached aggregates into arrays — rebuilt
    lazily whenever the structure's mutation counter moves — and runs
    the same kernel as :class:`ArrayState`, so every scan returns
    bitwise-identical moves to ``rule.best_move`` on the structure.
    """

    def __init__(self, structure: CoalitionStructure):
        self.structure = structure
        self._built_version = -1
        self._cap = _capacity_vector(structure.instance.chargers)
        self._cand: Optional[_Candidates] = None
        self._row_of_cid: Dict[int, int] = {}

    def _ensure(self) -> _Candidates:
        st = self.structure
        if self._cand is None or st._version != self._built_version:
            coals = list(st.coalitions())
            self._cand = _Candidates(
                np.array([c.cid for c in coals], dtype=np.int64),
                np.array([c.charger for c in coals], dtype=np.int64),
                np.array([len(c.members) for c in coals], dtype=np.int64),
                np.array([c.total_demand for c in coals], dtype=float),
                np.array([c.price for c in coals], dtype=float),
                np.array([c.move_sum for c in coals], dtype=float),
                self._cap,
            )
            self._row_of_cid = {c.cid: row for row, c in enumerate(coals)}
            self._built_version = st._version
        return self._cand

    def first_move(
        self, devices: Sequence[int], rule: SwitchRule
    ) -> Optional[Tuple[int, SwitchMove]]:
        """The first of *devices* with a permitted move, and that move.

        Returns ``(position in devices, move)`` with the move bitwise
        equal to ``rule.best_move(structure, devices[position])``, or
        ``None`` when no listed device may move.  The devices must be
        placed; all of them are scored in one array pass.
        """
        cand = self._ensure()
        st = self.structure
        instance = st.instance
        of_device, row_of_cid = st._of_device, self._row_of_cid
        return _kernel_first_move(
            devices=np.array(devices, dtype=np.int64),
            src=np.array([row_of_cid[of_device[d]] for d in devices], dtype=np.int64),
            rule=rule,
            scheme=st.scheme,
            instance=instance,  # type: ignore[arg-type]
            total_now=st.total_cost,
            cand=cand,
            avail=_availability_mask(instance),
            moving=instance._moving_cost,  # type: ignore[attr-defined]
            sp=instance.singleton_price_matrix(),
            sc=instance.singleton_cost_matrix(),
            demands=instance._demands,  # type: ignore[attr-defined]
        )

    def best_move(self, device: int, rule: SwitchRule) -> Optional[SwitchMove]:
        """Vectorized ``rule.best_move(structure, device)`` (bit-identical).

        The one-row case of :meth:`first_move`.
        """
        hit = self.first_move((device,), rule)
        return None if hit is None else hit[1]

    def best_insert(self, device: int) -> Optional[Tuple[Optional[int], int]]:
        """Vectorized planner insert scan: cheapest placement for *device*."""
        cand = self._ensure()
        instance = self.structure.instance
        return _kernel_best_insert(
            device=device,
            scheme=self.structure.scheme,
            instance=instance,  # type: ignore[arg-type]
            demand_i=instance._demand_list[device],  # type: ignore[attr-defined]
            cand_cid=cand.cids,
            cand_charger=cand.chargers,
            cand_size=cand.sizes,
            cand_demand=cand.demands,
            cap=self._cap,
            avail=_availability_mask(instance),
            mv_row=instance._moving_cost[device],  # type: ignore[attr-defined]
            sc_row=instance.singleton_cost_matrix()[device],
        )
