"""Online cooperative charging (extension): requests arrive over time.

Policies here consume a stream of
:class:`~repro.service.request.ChargingRequest` sorted by
``submitted_at``, as every generator in :mod:`repro.service.loadgen`
makes (Poisson, timed bursts, 1 h and 24 h diurnal profiles, spatial
bursts, keyed and clustered streams), and are judged against the
clairvoyant offline solver on the same devices.
"""

from .harness import OnlineOutcome, compare_policies, evaluate_policy
from .scheduler import BatchScheduler, GreedyDispatch, OnlineRun, OpenSession

__all__ = [
    "OpenSession",
    "OnlineRun",
    "GreedyDispatch",
    "BatchScheduler",
    "OnlineOutcome",
    "evaluate_policy",
    "compare_policies",
]
