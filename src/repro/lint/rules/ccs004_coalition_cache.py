"""CCS004 — coalition cached state mutated outside the refresh APIs."""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["CoalitionCacheRule"]

#: Cached aggregate fields of :class:`repro.game.coalition.Coalition`.
CACHED_FIELDS = frozenset({"total_demand", "price", "move_sum", "fingerprint"})

#: In-place mutators that would bypass the refresh discipline when called
#: on a coalition's ``members`` set.
SET_MUTATORS = frozenset(
    {"add", "discard", "remove", "clear", "update", "pop", "difference_update",
     "intersection_update", "symmetric_difference_update"}
)


@register
class CoalitionCacheRule(Rule):
    """Coalition cached fields are only written by ``game/coalition.py``.

    **Invariant.** ``Coalition.total_demand`` / ``.price`` / ``.move_sum``
    / ``.fingerprint`` — and the ``members`` set they are derived from —
    are written only by the refresh APIs in
    :mod:`repro.game.coalition` (``_refresh`` / ``_create`` / ``_leave``
    / ``_join`` / ``_delete``), which keep the cached aggregates, the
    packed rows, the structure's running total cost, and the Zobrist
    hash coherent on every membership change.

    **Why.** The PR-1 incremental-cost engine prices every candidate move
    from these cached scalars instead of re-walking member lists; the
    CCSGA cycle detector trusts the incrementally-maintained Zobrist
    hash.  A stray ``coalition.price = ...`` or ``members.add(...)``
    elsewhere desynchronizes cache from membership: candidate costs go
    quietly wrong, ``check_invariants`` starts failing far from the
    culprit, and the pinned dynamics goldens drift.

    **Approved fix.** Mutate through ``CoalitionStructure.move`` (batch
    dynamics) or the ``place`` / ``remove`` / ``retire`` extensions of
    ``GrowableCoalitionStructure`` (live service plans).  A new kind of
    mutation is built from the helpers in ``game/coalition.py`` —
    ``_create``, ``_leave`` and ``_join`` (the halves of ``move``) and
    ``_delete`` — as ``place`` and ``remove`` are, never by writing the
    fields or ``members`` itself.

    **Allowlisted.** ``repro/game/coalition.py`` — the refresh APIs.
    """

    code = "CCS004"
    title = "write to coalition cached state outside game/coalition.py"
    allow = ("repro/game/coalition.py",)

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr in CACHED_FIELDS:
                        yield self.finding(
                            info,
                            node,
                            f"assignment to cached coalition field '.{target.attr}' "
                            "outside the refresh APIs in game/coalition.py",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in SET_MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "members"
                ):
                    yield self.finding(
                        info,
                        node,
                        f"in-place mutation '.members.{func.attr}(...)' bypasses the "
                        "coalition refresh discipline (use move/place/remove/retire)",
                    )
