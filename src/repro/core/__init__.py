"""Core: negotiation, guarantees, user models, metrics, the full system."""

from repro.core.calibration import (
    CalibrationBucket,
    brier_score,
    calibration_buckets,
    calibration_gap,
    reliability_diagram,
)
from repro.core.easy import EasyBackfillSystem
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.guarantee import DeadlineOffer, QoSGuarantee
from repro.core.metrics import (
    JobOutcome,
    MetricsCollector,
    SimulationMetrics,
)
from repro.core.negotiation import (
    DeadlineSuggestion,
    NegotiationOutcome,
    Negotiator,
)
from repro.core.system import (
    ProbabilisticQoSSystem,
    SimulationResult,
    SystemConfig,
    simulate,
)
from repro.core.users import (
    EarliestDeadlineUser,
    RiskThresholdUser,
    SlackBoundedUser,
    UserModel,
)

__all__ = [
    "CalibrationBucket",
    "brier_score",
    "calibration_buckets",
    "calibration_gap",
    "reliability_diagram",
    "EasyBackfillSystem",
    "AnalyticalEvaluator",
    "DeadlineOffer",
    "QoSGuarantee",
    "JobOutcome",
    "MetricsCollector",
    "SimulationMetrics",
    "DeadlineSuggestion",
    "NegotiationOutcome",
    "Negotiator",
    "ProbabilisticQoSSystem",
    "SimulationResult",
    "SystemConfig",
    "simulate",
    "EarliestDeadlineUser",
    "RiskThresholdUser",
    "SlackBoundedUser",
    "UserModel",
]
