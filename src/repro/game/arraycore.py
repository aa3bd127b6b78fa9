"""Vectorized CCSGA candidate scans over a structure's packed rows.

The object scan (:meth:`~repro.game.switching.SwitchRule.best_move`)
evaluates a device's candidate moves with a Python loop over live
coalitions — fast in *algorithmic* terms after the PR-1 incremental-cost
work, but still ~1 µs of interpreter overhead per candidate, which caps
throughput near n ≈ 800.  A
:class:`~repro.game.coalition.CoalitionStructure` also keeps its cached
aggregates struct-of-arrays, one packed row per live coalition
(:meth:`~repro.game.coalition.CoalitionStructure.packed_rows`):

====================  =========================================  =========
quantity              array (one row per live coalition)         dtype
====================  =========================================  =========
coalition id          ``cids[0:k]``                              int64
charger binding       ``chargers[0:k]``                          int64
member count          ``sizes[0:k]``                             int64
cached Σ demand       ``demands[0:k]``                           float64
cached session price  ``prices[0:k]``                            float64
cached Σ moving cost  ``moves[0:k]``                             float64
====================  =========================================  =========

and :class:`StructureArrayView` evaluates **all** candidate moves of a
scan over those rows, plus the instance's moving-cost and singleton
matrices, with a handful of numpy ops.  Rows are packed (a dying
coalition's row is swap-removed), so every scan reads contiguous
``[0:k]`` views with no gather step, and their order is arbitrary: no
result below depends on it.

**Bit-identity contract.**  Every scan returns exactly what the object
scan returns on the same structure: the same permitted switch for every
device (identical tie-breaks), with the same deltas to the last bit.
That is why

- every element is computed with the object scan's formula and op order
  (the same ``(a + (b + c)) - (d + e)`` delta grouping), from the same
  cached aggregates the object scan reads;
- session prices come from :class:`~repro.wpt.vector.ChargerPriceTable`,
  whose vectorized tariff arithmetic is bitwise equal to the scalar
  path (both route pow through numpy — see
  :class:`~repro.wpt.pricing.PowerLawTariff`);
- candidate selection replicates ``SwitchRule.best_move``'s
  lexicographic key ``(own_delta, is_singleton, charger, cid)`` with an
  argmin chain instead of a first-strictly-smaller scan (the key is
  unique per candidate, so both find the same winner in any row order).

The kernel scores a whole list of devices at once (``first_move``: one
row per device) and reports the first row with a permitted move.
:func:`~repro.game.switching.best_response_sweep` calls it once per
segment of a sweep, for ``ccsga(engine="array")`` and for the service
planner's improvement and repair passes alike.  The planner's inserts
go through :class:`InsertBatch`,
which scores a fold's devices once and rescores one packed row per
placement.

dtype discipline: everything float64 / int64; narrowing dtypes and
unordered reductions in this module are rejected by ccs-lint rule
CCS008.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.costsharing import CostSharingScheme
from ..errors import ConfigurationError
from ..wpt import Charger
from .coalition import Coalition, CoalitionStructure
from .switching import SelfishSwitch, SociallyAwareSwitch, SwitchMove, SwitchRule

__all__ = [
    "InsertBatch",
    "StructureArrayView",
    "engine_supported",
]


def engine_supported(
    instance: object, scheme: CostSharingScheme, rule: SwitchRule
) -> bool:
    """True when the array engine can reproduce the object engine exactly.

    Requires a cost-sharing scheme with both scalar and vectorized
    aggregate fast paths (the two paper schemes) and one of the two
    built-in switch rules (exactly — a subclass may override ``permits``).
    Every instance qualifies: both kinds share
    :class:`~repro.core.instance.InstanceSurface`, whose vectorized session
    pricing the engine reads.
    """
    return (
        type(rule) in (SelfishSwitch, SociallyAwareSwitch)
        and getattr(scheme, "share_of", None) is not None
        and getattr(scheme, "share_of_vector", None) is not None
    )


def _capacity_vector(chargers: Sequence[Charger]) -> np.ndarray:
    """Per-charger slot capacities with ``None`` mapped to +inf."""
    return np.array(
        [float("inf") if c.capacity is None else float(c.capacity) for c in chargers],
        dtype=float,
    )


class _Candidates:
    """A structure's packed rows as scanned between two mutations.

    Cached on the structure (``scan_cache``), which drops it whenever a
    row changes.  An insert scan reads the rows as they are; a move scan
    also needs :meth:`joins`, derived on the first move scan.
    """

    __slots__ = ("k", "cids", "chargers", "sizes", "demands", "prices", "moves", "cap",
                 "_joins")

    def __init__(self, structure: CoalitionStructure, cap: np.ndarray):
        (self.cids, self.chargers, self.sizes,
         self.demands, self.prices, self.moves) = structure.packed_rows()
        self.k = self.cids.shape[0]
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
    structure: CoalitionStructure,
    cand: _Candidates,
    devices: np.ndarray,
    src: np.ndarray,
    rule: SwitchRule,
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
    instance, scheme = structure.instance, structure.scheme
    total_now = structure.total_cost
    avail = instance.availability_mask
    moving = instance._moving_cost
    sp = instance.singleton_price_matrix()
    sc = instance.singleton_cost_matrix()
    n = devices.shape[0]
    dem = instance._demands[devices]
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


class InsertBatch:
    """The planner's insert scans for one fold's devices, scored as a batch.

    Column ``b`` is ``devices[b]``, placed in that order by the caller;
    row ``r`` is packed row ``r``.  The constructor scores every (live
    coalition, device) join in one tariff call, with the object scan's
    element formula (``share + moving cost``) and ``inf`` for a join the
    object scan skips (full coalition, down charger), plus every
    device's best singleton, which is fixed for the fold: charger
    availability cannot change inside it.  After device ``b`` is placed,
    :meth:`placed` rescores, for the devices still pending, only the one
    packed row the placement wrote (a join) or appended (a new
    singleton).  A placement never deletes a row and changes no other,
    so :meth:`choice` for device ``b`` is bitwise what a fresh scan of
    the structure would choose.
    """

    __slots__ = ("structure", "_dem", "_mv", "_cost", "_cids", "_chargers", "_cap",
                 "_single", "_width")

    def __init__(self, structure: CoalitionStructure, cand: _Candidates,
                 solo: np.ndarray, devices: Sequence[int]):
        instance, scheme = structure.instance, structure.scheme
        self.structure = structure
        self._cap = cand.cap
        n = len(devices)
        devs = np.array(devices, dtype=np.int64)
        dem = self._dem = instance._demands[devs]
        # Charger-major, so a rescored row reads one charger's costs.
        mv = self._mv = instance._moving_cost.take(devs, axis=0).T
        avail = instance.availability_mask
        k = self._width = cand.k
        # Rows past ``k`` are written as placements append singletons.
        self._cost = np.empty((k + n, n), dtype=float)
        self._cids = cand.cids.tolist()
        self._chargers = cand.chargers.tolist()
        if k:
            joined, _, fits, n_fits = cand.joins()
            if avail is not None:
                fits = fits & avail[cand.chargers]
                n_fits = int(np.count_nonzero(fits))
            if n_fits:
                totals = cand.demands[:, None] + dem
                prices = instance.price_for_demand_vector(
                    totals, cand.chargers[:, None].repeat(n, axis=1)
                )
                share = scheme.share_of_vector(  # type: ignore[attr-defined]
                    instance, dem, joined[:, None], totals, prices
                )
                np.add(share, mv[cand.chargers], out=self._cost[:k])
            if n_fits < k:
                self._cost[:k][~fits] = np.inf
        # Each device's cheapest singleton among the chargers that are up
        # and admit a lone device (*solo*, ascending): argmin takes the
        # first minimum, the lowest-charger winner.
        if avail is not None:
            solo = solo[avail[solo]]
        self._single: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if solo.size:
            sc = instance.singleton_cost_matrix().take(devs, axis=0)
            if solo.size < sc.shape[1]:
                sc = sc[:, solo]
            self._single = (sc.min(axis=1), solo[sc.argmin(axis=1)])

    def choice(self, b: int) -> Optional[Tuple[Optional[int], int]]:
        """``(target cid or None, charger)`` for device ``b``, or ``None``.

        The cheapest placement under ``(cost, join-before-singleton,
        charger, cid)``, the planner's insert key.
        """
        best: Optional[Tuple[Optional[int], int]] = None
        low = np.inf
        if self._width:
            col = self._cost[: self._width, b]
            r = int(col.argmin())
            low = col[r]
            if low != np.inf:
                if np.count_nonzero(col == low) > 1:
                    chargers, cids = self._chargers, self._cids
                    r = min(np.flatnonzero(col == low).tolist(),
                            key=lambda t: (chargers[t], cids[t]))
                best = (self._cids[r], self._chargers[r])
        if self._single is not None:
            costs, at = self._single
            if best is None or costs[b] < low:
                return None, int(at[b])
        return best

    def placed(self, b: int, coalition: Coalition) -> None:
        """Device ``b`` went into *coalition*: rescore its row for the rest."""
        r = coalition.row
        if r == self._width:
            self._width += 1
            self._cids.append(coalition.cid)
            self._chargers.append(coalition.charger)
        assert r < self._width, "a placement never moves a packed row"
        lo = b + 1
        if lo == self._cost.shape[1]:
            return
        out = self._cost[r, lo:]
        j, size = coalition.charger, coalition.size + 1
        if size > self._cap[j]:
            out.fill(np.inf)
            return
        instance = self.structure.instance
        dem = self._dem[lo:]
        totals = coalition.total_demand + dem
        prices = instance.price_table().charger_prices(totals, j)
        share = self.structure.scheme.share_of_vector(  # type: ignore[attr-defined]
            instance, dem, size, totals, prices
        )
        np.add(share, self._mv[j, lo:], out=out)


class StructureArrayView:
    """Vectorized candidate scans over a live ``CoalitionStructure``.

    Reads the structure's packed rows (and caches what it derives from
    them on the structure until its next mutation), so every scan
    returns bitwise-identical moves to ``rule.best_move`` on the
    structure.  :func:`~repro.game.switching.best_response_sweep` scores
    its segments with :meth:`first_move`; the service's incremental
    planner also runs its inserts through :meth:`insert_batch`.
    """

    def __init__(self, structure: CoalitionStructure):
        if getattr(structure.scheme, "share_of_vector", None) is None:
            raise ConfigurationError(
                "array engine requires a cost-sharing scheme with the "
                "share_of_vector aggregate fast path"
            )
        self.structure = structure
        self._cap = _capacity_vector(structure.instance.chargers)
        #: Chargers admitting a lone device, ascending.
        self._solo = np.flatnonzero(self._cap >= 1)

    def _rows(self) -> _Candidates:
        st = self.structure
        cand = st.scan_cache
        if not isinstance(cand, _Candidates):
            cand = st.scan_cache = _Candidates(st, self._cap)
        return cand

    def first_move(
        self, devices: Sequence[int], rule: SwitchRule
    ) -> Optional[Tuple[int, SwitchMove]]:
        """The first of *devices* with a permitted move, and that move.

        Returns ``(position in devices, move)`` with the move bitwise
        equal to ``rule.best_move(structure, devices[position])``, or
        ``None`` when no listed device may move.  The devices must be
        placed; all of them are scored in one array pass.
        """
        st = self.structure
        coalitions, of_device = st._coalitions, st._of_device
        return _kernel_first_move(
            st,
            self._rows(),
            np.array(devices, dtype=np.int64),
            np.array([coalitions[of_device[d]].row for d in devices], dtype=np.int64),
            rule,
        )

    def insert_batch(self, devices: Sequence[int]) -> InsertBatch:
        """The insert scans of *devices* (unplaced), to be placed in order."""
        return InsertBatch(self.structure, self._rows(), self._solo, devices)
