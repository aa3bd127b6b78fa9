"""Switch rules — the deviation semantics of the coalition formation game.

A switch rule decides which unilateral moves a device is *permitted* to
make from the current coalition structure.  Two rules from the coalition-
formation literature:

- :class:`SociallyAwareSwitch` (CCSGA's default): a move is permitted when
  it strictly lowers the device's own cost **and** strictly lowers the
  total comprehensive cost.  The total cost is then an exact potential:
  every permitted switch decreases it, no structure repeats, and since the
  structure space is finite the dynamics reach a state with no permitted
  switch — a pure Nash equilibrium of the induced game.  This is the
  convergence argument behind the abstract's "CCSGA finally converges to a
  pure Nash Equilibrium".
- :class:`SelfishSwitch`: only the device's own cost must drop.  Under
  egalitarian sharing of submodular costs such best-response dynamics can
  cycle; CCSGA's driver therefore pairs this rule with cycle detection.
  Kept for the ablation comparing the two dynamics.

The candidate scan is the hot path of a CCSGA sweep and runs on the
coalition structure's incremental-cost engine: the cost of *leaving* the
current coalition is computed once per device and reused across every
contemplated destination, each *join* is priced with a single tariff
evaluation on the target's cached aggregates, and the found-a-singleton
scan reads one precomputed row of the singleton-cost matrix.

:func:`best_response_sweep` is the one loop that plays a rule, for
``ccsga`` and the service planner alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

from ..numeric import DEFAULT_REL_TOL
from .coalition import CoalitionStructure

if TYPE_CHECKING:  # pragma: no cover - type-only; arraycore imports this module
    from .arraycore import StructureArrayView

__all__ = ["SwitchMove", "SwitchRule", "SelfishSwitch", "SociallyAwareSwitch",
           "best_response_sweep"]


@dataclass(frozen=True)
class SwitchMove:
    """A contemplated deviation: *device* moves to *target* (None = new singleton).

    ``charger`` is the charger of the destination coalition (or of the new
    singleton).  ``own_delta``/``total_delta`` are the cost changes the
    move would cause for the device and for the system.
    """

    device: int
    target: Optional[int]
    charger: int
    own_delta: float
    total_delta: float


def _scan_deltas(
    structure: CoalitionStructure, device: int
) -> Iterator[Tuple[float, float, Optional[int], int]]:
    """Fused candidate scan: yield ``(own_delta, total_delta, target, charger)``.

    One pass over live coalitions plus the charger axis, with exactly one
    tariff evaluation per candidate (the hypothetical session price after
    the join — shared between the device's new share and the system-cost
    delta).  Materializing :class:`SwitchMove` objects is left to callers
    so :meth:`SwitchRule.best_move` can screen thousands of rejected
    candidates without allocating.
    """
    instance = structure.instance
    scheme = structure.scheme
    own_now = structure.individual_cost(device)
    total_now = structure.total_cost
    src = structure.coalition_of(device)
    leave = structure.leave_delta(device)
    fast_share = getattr(scheme, "share_of", None)
    demand = instance._demand_list[device]
    moving = instance._moving_cost
    chargers = instance.chargers
    # Charger availability (fault semantics): down chargers never receive
    # moves.  `availability_mask` is None while every charger is up (always,
    # on a frozen CCSInstance), and the scan then skips the check.
    available = (
        None if instance.availability_mask is None else instance.charger_available
    )

    for coalition in list(structure.coalitions()):
        if coalition is src:
            continue
        j = coalition.charger
        if available is not None and not available(j):
            continue
        size = len(coalition.members)
        if not chargers[j].admits(size + 1):
            continue
        new_total = coalition.total_demand + demand
        new_price = instance.charging_price_for_demand(new_total, j)
        move_ij = float(moving[device, j])
        if fast_share is not None:
            share = fast_share(instance, device, size + 1, new_total, new_price)
        else:
            members = sorted(coalition.members | {device})
            share = scheme.shares(instance, members, j)[device]
        own_new = share + move_ij
        join = (new_price + (coalition.move_sum + move_ij)) - coalition.group_cost
        total_new = total_now + leave + join
        yield own_new - own_now, total_new - total_now, coalition.cid, j

    # Founding a singleton at charger j adds exactly the singleton group
    # cost — one vectorized row read over the precomputed matrix covers
    # every charger's total-cost delta at once.
    singleton_prices = instance.singleton_price_matrix()[device]
    total_new_row = total_now + leave + instance.singleton_cost_matrix()[device]
    singleton_already = src.size == 1
    for j in range(instance.n_chargers):
        if singleton_already and j == src.charger:
            continue  # identical structure, not a move
        if available is not None and not available(j):
            continue
        if fast_share is not None:
            share = fast_share(instance, device, 1, demand, float(singleton_prices[j]))
        else:
            share = scheme.shares(instance, [device], j)[device]
        own_new = share + float(moving[device, j])
        yield own_new - own_now, float(total_new_row[j]) - total_now, None, j


def candidate_moves(structure: CoalitionStructure, device: int) -> Iterator[SwitchMove]:
    """Enumerate every admissible deviation of *device* with its cost deltas.

    Candidates: joining any other live coalition with spare capacity, or
    founding a singleton at any charger.  Moves "to where I already am" are
    excluded.  Shared by every switch rule so they differ only in which
    moves they *permit*.
    """
    for own_delta, total_delta, target, charger in _scan_deltas(structure, device):
        yield SwitchMove(device, target, charger, own_delta, total_delta)


class SwitchRule:
    """Base class: a predicate over :class:`SwitchMove` plus a tolerance.

    ``tol`` guards against floating-point ping-pong: improvements smaller
    than ``tol`` do not count as improvements.

    ``has_potential`` declares that the dynamics under this rule admit an
    exact potential function, so no coalition structure can ever repeat.
    The CCSGA driver skips cycle-detection bookkeeping entirely for such
    rules; rules without the guarantee (the selfish ablation) are watched
    via the structure's O(1) Zobrist hash instead.
    """

    name = "abstract"
    has_potential = False

    def __init__(self, tol: float = DEFAULT_REL_TOL):
        if tol < 0:
            raise ValueError(f"tol must be nonnegative, got {tol}")
        self.tol = tol

    def permits(self, move: SwitchMove) -> bool:
        """True if the rule allows this deviation."""
        raise NotImplementedError

    def _permits_deltas(
        self,
        device: int,
        target: Optional[int],
        charger: int,
        own_delta: float,
        total_delta: float,
    ) -> bool:
        """Allocation-free permission check used by :meth:`best_move`.

        The built-in rules override this with a pure delta predicate;
        the default materializes a :class:`SwitchMove` and defers to
        :meth:`permits` so custom rules that only override ``permits``
        keep working.
        """
        return self.permits(SwitchMove(device, target, charger, own_delta, total_delta))

    def best_move(
        self, structure: CoalitionStructure, device: int
    ) -> Optional[SwitchMove]:
        """The permitted move minimizing the device's own cost, or ``None``.

        Ties break toward smaller own_delta, then joining existing
        coalitions over founding singletons, then lower charger index —
        deterministic so experiments are reproducible.
        """
        best_key = None
        best: Optional[Tuple[Optional[int], int, float, float]] = None
        for own_delta, total_delta, target, charger in _scan_deltas(structure, device):
            if not self._permits_deltas(device, target, charger, own_delta, total_delta):
                continue
            key = (own_delta, target is None, charger, -1 if target is None else target)
            if best_key is None or key < best_key:
                best_key = key
                best = (target, charger, own_delta, total_delta)
        if best is None:
            return None
        return SwitchMove(device, best[0], best[1], best[2], best[3])


class SelfishSwitch(SwitchRule):
    """Permit any move that strictly lowers the device's own cost."""

    name = "selfish"

    def permits(self, move: SwitchMove) -> bool:
        return move.own_delta < -self.tol

    def _permits_deltas(
        self,
        device: int,
        target: Optional[int],
        charger: int,
        own_delta: float,
        total_delta: float,
    ) -> bool:
        return own_delta < -self.tol


class SociallyAwareSwitch(SwitchRule):
    """Permit moves lowering both the device's cost and the total cost.

    The conjunction makes total comprehensive cost an exact potential of
    the dynamics — the convergence engine of CCSGA (and why the driver
    needs no cycle detection under this rule: ``has_potential = True``).
    """

    name = "socially-aware"
    has_potential = True

    def permits(self, move: SwitchMove) -> bool:
        return move.own_delta < -self.tol and move.total_delta < -self.tol

    def _permits_deltas(
        self,
        device: int,
        target: Optional[int],
        charger: int,
        own_delta: float,
        total_delta: float,
    ) -> bool:
        return own_delta < -self.tol and total_delta < -self.tol


def best_response_sweep(
    structure: CoalitionStructure,
    rule: SwitchRule,
    order: Sequence[int],
    first: int,
    view: Optional["StructureArrayView"] = None,
) -> Iterator[Tuple[int, SwitchMove]]:
    """One round-robin best-response pass over the devices in *order*.

    Each device in turn plays ``rule.best_move``; every permitted move is
    applied with ``structure.move``, then yielded as ``(position, move)``.
    Devices are scored a segment at a time (one ``view.first_move`` call,
    or a ``rule.best_move`` loop without a *view*): nothing changes
    between two devices of a segment, so the moves are a one-device
    loop's.  The first segment has *first* rows, one after a move-free
    segment is twice as long, and a move restarts at *first*.
    ``first=len(order)`` scores the rest of the list per call; ``first=1``
    suits passes where most devices move, and crosses a move-free
    stretch of ``r`` rows in about ``log2(r)`` calls.
    """
    first = max(first, 1)
    pos, size = 0, first
    while pos < len(order):
        segment = order[pos : pos + size]
        if view is not None:
            hit = view.first_move(segment, rule)
        else:
            moves = (rule.best_move(structure, device) for device in segment)
            hit = next(((at, move) for at, move in enumerate(moves) if move is not None), None)
        if hit is None:
            pos += len(segment)
            size *= 2
            continue
        at, move = hit
        structure.move(move.device, move.target, move.charger)
        pos += at + 1
        size = first
        yield pos - 1, move
