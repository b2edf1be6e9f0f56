"""Checkpointing: cooperative (risk-based) policy, baselines, run arithmetic."""

from repro.checkpointing.policies import (
    CheckpointDecision,
    CheckpointDecisionContext,
    CheckpointPolicy,
    CooperativePolicy,
    NeverPolicy,
    PeriodicPolicy,
    RiskFreePolicy,
    policy_by_name,
)
from repro.checkpointing.runtime import padded_remaining

__all__ = [
    "CheckpointDecision",
    "CheckpointDecisionContext",
    "CheckpointPolicy",
    "CooperativePolicy",
    "NeverPolicy",
    "PeriodicPolicy",
    "RiskFreePolicy",
    "policy_by_name",
    "padded_remaining",
]
