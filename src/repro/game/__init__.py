"""Coalition-formation-game toolkit backing CCSGA."""

from .arraycore import StructureArrayView, engine_supported
from .coalition import Coalition, CoalitionStructure
from .equilibrium import blocking_moves, is_nash_equilibrium
from .incentives import (
    IncentiveProfile,
    MisreportOutcome,
    incentive_profile,
    misreport_gain,
)
from .mergesplit import MergeSplitResult, merge_and_split
from .potential import PotentialTrace
from .quality import EquilibriumQuality, equilibrium_quality, sample_equilibria
from .switching import (
    SelfishSwitch,
    SociallyAwareSwitch,
    SwitchMove,
    SwitchRule,
    best_response_sweep,
    candidate_moves,
)

__all__ = [
    "StructureArrayView",
    "engine_supported",
    "Coalition",
    "CoalitionStructure",
    "SwitchMove",
    "SwitchRule",
    "SelfishSwitch",
    "SociallyAwareSwitch",
    "best_response_sweep",
    "candidate_moves",
    "is_nash_equilibrium",
    "blocking_moves",
    "PotentialTrace",
    "MergeSplitResult",
    "MisreportOutcome",
    "misreport_gain",
    "IncentiveProfile",
    "incentive_profile",
    "merge_and_split",
    "EquilibriumQuality",
    "equilibrium_quality",
    "sample_equilibria",
]
