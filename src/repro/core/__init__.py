"""Core: negotiation, guarantees, user models, metrics, the full system.

The system itself is imported from its modules, :mod:`repro.core.system`
and :mod:`repro.core.easy` (or from the root :mod:`repro` package): they
drive :mod:`repro.scheduling`, which uses this package's negotiation, so
re-exporting them here would make the two packages' initialisation a cycle.
"""

from repro.core.fastpath import AnalyticalEvaluator
from repro.core.guarantee import DeadlineOffer, QoSGuarantee
from repro.core.metrics import JobOutcome, SimulationMetrics, finalize
from repro.core.negotiation import (
    DeadlineSuggestion,
    NegotiationOutcome,
    Negotiator,
)
from repro.core.users import (
    EarliestDeadlineUser,
    RiskThresholdUser,
    SlackBoundedUser,
    UserModel,
)

__all__ = [
    "AnalyticalEvaluator",
    "DeadlineOffer",
    "QoSGuarantee",
    "JobOutcome",
    "finalize",
    "SimulationMetrics",
    "DeadlineSuggestion",
    "NegotiationOutcome",
    "Negotiator",
    "EarliestDeadlineUser",
    "RiskThresholdUser",
    "SlackBoundedUser",
    "UserModel",
]
