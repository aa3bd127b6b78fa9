"""CCSGA — the coalition-formation-game algorithm for large-scale CCS.

CCSGA treats every device as a selfish player whose strategy is the
charging session it joins and whose cost is its intragroup share plus its
own moving cost (the cost-sharing scheme is a parameter — the paper's two
schemes live in :mod:`.costsharing`).  The dynamics:

1. Start from the noncooperative structure (every device a singleton at
   its cheapest charger) — or from any warm-start schedule.
2. Sweep the devices round-robin; each device plays its best *permitted*
   switch (join another session, or found a new singleton at some
   charger).  The default :class:`~repro.game.switching.SociallyAwareSwitch`
   rule permits a switch only when it lowers both the device's own cost
   and the total comprehensive cost, which makes total cost an exact
   potential: every switch strictly decreases it, no structure repeats,
   and the finite structure space forces convergence to a state with no
   permitted deviation — a **pure Nash equilibrium** of the induced game
   (the abstract's convergence theorem).
3. Stop after the first full sweep with no switch.

Under the :class:`~repro.game.switching.SelfishSwitch` ablation the
potential argument does not apply; the driver then watches for structure
revisits and raises :class:`~repro.errors.ConvergenceError` on a cycle
instead of looping forever.

Per-sweep work is ``O(n * (sessions + chargers))`` share evaluations —
no submodular minimization — which is why CCSGA is the fast, large-scale
algorithm in the paper's comparison (reproduced by the Fig 9 benchmark).

**Engines.**  The dynamics always walk one
:class:`~repro.game.coalition.CoalitionStructure` through
:func:`~repro.game.switching.best_response_sweep`, the sweep the service
planner also runs; the ``engine`` parameter (or the ``CCS_ENGINE``
environment variable) picks how the sweep finds best moves:

- ``"object"`` — ``rule.best_move``, a Python loop over the candidates;
  the reference implementation, and the only one for Shapley sharing
  and custom rules.
- ``"array"`` — :class:`~repro.game.arraycore.StructureArrayView`, which
  scores a segment of devices' candidates with numpy ops over the
  structure's packed rows; ~10-40x more share evaluations per second at
  n >= 5,000.
- ``"auto"`` (default) — array when the scheme/rule/instance support it
  (the two paper schemes with the two built-in rules), object otherwise.

The engines are **bit-identical**: same switch sequence, same trace, same
schedule, same total cost to the last bit (``tests/test_game_array.py``
enforces this on every golden fixture and under hypothesis fuzz).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError, ConvergenceError
from ..rng import RandomState, ensure_rng
from ..game import (
    CoalitionStructure,
    PotentialTrace,
    SociallyAwareSwitch,
    StructureArrayView,
    SwitchRule,
    best_response_sweep,
    engine_supported,
    is_nash_equilibrium,
)
from .costsharing import CostSharingScheme, EgalitarianSharing
from .instance import CCSInstance
from .schedule import Schedule, validate_schedule

__all__ = ["CCSGAResult", "ccsga", "resolve_engine"]

_ENGINES = ("object", "array", "auto")


def resolve_engine(
    engine: Optional[str],
    instance: object,
    scheme: CostSharingScheme,
    rule: SwitchRule,
) -> str:
    """Resolve an ``engine`` request to a concrete ``"object"``/``"array"``.

    ``None`` defers to the ``CCS_ENGINE`` environment variable (default
    ``"auto"``).  ``"auto"`` picks the array engine whenever
    :func:`~repro.game.arraycore.engine_supported` holds and silently
    falls back to the object engine otherwise.  Asking for ``"array"``
    via the *argument* is strict — it raises
    :class:`~repro.errors.ConfigurationError` when the combination
    cannot be vectorized (e.g. Shapley sharing) — while via the
    *environment* it is advisory and falls back like ``"auto"``, so
    ``CCS_ENGINE=array`` can blanket a whole test run (the CI
    engine-parity step) without breaking non-vectorizable cases.
    """
    strict = engine is not None
    requested = engine if engine is not None else os.environ.get("CCS_ENGINE", "auto")
    if requested not in _ENGINES:
        raise ConfigurationError(
            f"unknown engine {requested!r}; expected one of {_ENGINES}"
        )
    if requested == "object":
        return "object"
    supported = engine_supported(instance, scheme, rule)
    if requested == "array":
        if not supported:
            if not strict:
                return "object"
            raise ConfigurationError(
                "engine='array' requires a cost-sharing scheme with "
                "share_of/share_of_vector fast paths (egalitarian or "
                "proportional), a built-in switch rule, and an instance "
                "with vectorized pricing; use engine='auto' to fall back"
            )
        return "array"
    return "array" if supported else "object"


@dataclass(frozen=True)
class CCSGAResult:
    """A CCSGA run: the schedule plus game-dynamics diagnostics."""

    schedule: Schedule
    switches: int
    sweeps: int
    trace: PotentialTrace
    nash_certified: bool
    engine: str = "object"


def ccsga(
    instance: CCSInstance,
    scheme: Optional[CostSharingScheme] = None,
    rule: Optional[SwitchRule] = None,
    warm_start: Optional[Schedule] = None,
    max_sweeps: int = 10_000,
    certify: bool = True,
    rng: RandomState = None,
    engine: Optional[str] = None,
) -> CCSGAResult:
    """Run CCSGA on *instance* and return the converged coalition structure.

    Parameters
    ----------
    scheme:
        Intragroup cost-sharing scheme; default egalitarian (the paper's
        first scheme).
    rule:
        Switch permission rule; default socially-aware (guaranteed
        convergence).  With the selfish rule a detected cycle raises
        :class:`~repro.errors.ConvergenceError`.
    warm_start:
        Optional schedule to start the dynamics from instead of the
        noncooperative singletons.
    max_sweeps:
        Safety bound on full device sweeps; exceeded only on a bug or an
        adversarial tolerance, and raises ``ConvergenceError``.
    certify:
        Certify that the terminal structure is a pure Nash equilibrium.
        The object engine re-verifies it by exhaustive deviation
        enumeration (cheap; disable in tight loops).  On the array engine
        the certificate is the last sweep's verdict: that sweep scored
        every device's deviations with the vectorized scan on the
        terminal structure and found none permitted, so a second scan
        could only repeat it.  ``False`` skips certification.
    rng:
        Optional randomness: when given, each sweep visits devices in a
        fresh random order.  Different orders can land on different Nash
        equilibria, which the price-of-anarchy analysis exploits; the
        default (``None``) keeps the deterministic ``0..n-1`` order.
    engine:
        State-representation engine: ``"object"``, ``"array"``, or
        ``"auto"`` (see module docs).  ``None`` reads ``CCS_ENGINE``
        from the environment, defaulting to ``"auto"``.  Both engines
        produce bit-identical results whenever both apply.
    """
    scheme = scheme if scheme is not None else EgalitarianSharing()
    rule = rule if rule is not None else SociallyAwareSwitch()
    resolved = resolve_engine(engine, instance, scheme, rule)

    if warm_start is not None:
        structure = CoalitionStructure.from_schedule(instance, scheme, warm_start)
    else:
        structure = CoalitionStructure.singletons(instance, scheme)
    view = StructureArrayView(structure) if resolved == "array" else None

    trace = PotentialTrace()
    trace.record(structure.total_cost)
    # Cycle detection is only needed when the rule lacks a potential
    # function (the selfish ablation): a potential-guaranteed rule can
    # never revisit a structure, so tracking seen states would only burn
    # O(switches) memory.  When tracking, the incrementally maintained
    # 64-bit Zobrist hash replaces the old O(n) state_key() rehash.
    track_states = not rule.has_potential
    seen_states = {structure.zobrist_hash()} if track_states else None
    switches = 0
    sweeps = 0

    generator = ensure_rng(rng) if rng is not None else None

    while sweeps < max_sweeps:
        sweeps += 1
        switched_this_sweep = False
        if generator is not None:
            order = [int(i) for i in generator.permutation(instance.n_devices)]
        else:
            order = list(range(instance.n_devices))
        # Most devices move in the early sweeps and nobody in the last, so
        # segments start at one row and double while nobody moves.
        for _ in best_response_sweep(structure, rule, order, 1, view):
            switches += 1
            switched_this_sweep = True
            trace.record(structure.total_cost)
            if track_states:
                assert seen_states is not None
                key = structure.zobrist_hash()
                if key in seen_states:
                    raise ConvergenceError(
                        f"switch dynamics revisited a coalition structure after "
                        f"{switches} switches (rule={rule.name!r}); the game has "
                        "no potential under this rule",
                        iterations=switches,
                    )
                seen_states.add(key)
        if not switched_this_sweep:
            break
    else:
        raise ConvergenceError(
            f"CCSGA exceeded {max_sweeps} sweeps without converging",
            iterations=switches,
        )

    if not certify:
        certified = False
    elif view is not None:
        # Same predicate as is_nash_equilibrium (no device has a permitted
        # deviation), which the last sweep evaluated on this structure.
        certified = not switched_this_sweep
    else:
        certified = is_nash_equilibrium(structure, rule)
    schedule = structure.to_schedule(
        solver="ccsga",
        metadata={
            "switches": float(switches),
            "sweeps": float(sweeps),
            "nash_certified": 1.0 if certified else 0.0,
        },
    )
    validate_schedule(schedule, instance)
    return CCSGAResult(
        schedule=schedule,
        switches=switches,
        sweeps=sweeps,
        trace=trace,
        nash_certified=certified,
        engine=resolved,
    )
