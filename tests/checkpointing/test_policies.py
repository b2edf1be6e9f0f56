"""Unit tests for checkpoint policies (Equation 1 and the deadline rule)."""

from __future__ import annotations

import pytest

from repro.checkpointing.policies import (
    CheckpointDecision,
    CheckpointDecisionContext,
    CooperativePolicy,
    NeverPolicy,
    PeriodicPolicy,
    RiskFreePolicy,
    policy_by_name,
)
from repro.prediction.base import NullPredictor, PredictedFailure, Predictor


class FixedPredictor(Predictor):
    """Returns a constant failure probability."""

    def __init__(self, probability: float) -> None:
        self.probability = probability

    def failure_probability(self, nodes, start, end):
        return self.probability

    def predicted_failures(self, nodes, start, end):
        if self.probability <= 0:
            return []
        return [PredictedFailure(time=start, node=0, probability=self.probability)]


def ctx(
    p_f=0.5,
    skipped=0,
    interval=3600.0,
    overhead=720.0,
    remaining=7200.0,
    now=10_000.0,
    deadline=None,
):
    return CheckpointDecisionContext(
        now=now,
        job_id=1,
        nodes=[0, 1],
        interval=interval,
        overhead=overhead,
        skipped_since_checkpoint=skipped,
        remaining_work=remaining,
        deadline=deadline,
        predictor=FixedPredictor(p_f),
    )


class TestEquationOne:
    def test_performs_when_risk_exceeds_cost(self):
        # p_f * d * I = 0.5 * 1 * 3600 = 1800 >= 720.
        assert CooperativePolicy().should_checkpoint(ctx(p_f=0.5))

    def test_skips_when_risk_below_cost(self):
        # 0.1 * 1 * 3600 = 360 < 720.
        assert not CooperativePolicy().should_checkpoint(ctx(p_f=0.1))

    def test_boundary_is_perform(self):
        # Equality satisfies "the inequality holds": 0.2 * 3600 = 720.
        assert CooperativePolicy().should_checkpoint(ctx(p_f=0.2))

    def test_skipped_intervals_raise_the_stakes(self):
        # 0.1 * d * 3600 crosses 720 at d = 2 (one prior skip).
        assert not CooperativePolicy().should_checkpoint(ctx(p_f=0.1, skipped=0))
        assert CooperativePolicy().should_checkpoint(ctx(p_f=0.1, skipped=1))

    def test_zero_probability_always_skips(self):
        assert not CooperativePolicy().should_checkpoint(ctx(p_f=0.0, skipped=50))

    def test_d_property(self):
        assert ctx(skipped=0).d == 1
        assert ctx(skipped=3).d == 4


class TestDeadlineRule:
    def test_skips_to_save_the_deadline(self):
        # Performing (720s) would cross the deadline; skipping would not.
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=1500.0)
        assert not CooperativePolicy().should_checkpoint(context)

    def test_performs_when_deadline_is_safe_either_way(self):
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=5000.0)
        assert CooperativePolicy().should_checkpoint(context)

    def test_performs_when_deadline_is_lost_either_way(self):
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=500.0)
        assert CooperativePolicy().should_checkpoint(context)

    def test_rule_can_be_disabled(self):
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=1500.0)
        assert CooperativePolicy(deadline_aware=False).should_checkpoint(context)

    def test_no_deadline_means_no_override(self):
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=None)
        assert CooperativePolicy().should_checkpoint(context)
        assert context.meets_deadline_if(True) is None


class TestBaselinePolicies:
    def test_periodic_always_performs(self):
        assert PeriodicPolicy().should_checkpoint(ctx(p_f=0.0))

    def test_never_never_performs(self):
        assert not NeverPolicy().should_checkpoint(ctx(p_f=1.0, skipped=10))

    def test_risk_free_performs_on_any_prediction(self):
        assert RiskFreePolicy().should_checkpoint(ctx(p_f=0.01))
        assert not RiskFreePolicy().should_checkpoint(ctx(p_f=0.0))


class TestDecisionRationale:
    """decide() explains what should_checkpoint() only answers."""

    def test_skip_reports_risk_below_overhead_with_evidence(self):
        decision = CooperativePolicy().decide(ctx(p_f=0.1))
        assert decision == CheckpointDecision(
            perform=False,
            reason="risk-below-overhead",
            failure_probability=0.1,
            at_risk=3600.0,
        )

    def test_perform_reports_risk_exceeds_overhead(self):
        decision = CooperativePolicy().decide(ctx(p_f=0.5))
        assert decision.perform
        assert decision.reason == "risk-exceeds-overhead"
        assert decision.at_risk == 3600.0

    def test_deadline_rescue_is_named(self):
        context = ctx(p_f=0.9, remaining=1000.0, now=0.0, deadline=1500.0)
        decision = CooperativePolicy().decide(context)
        assert not decision.perform
        assert decision.reason == "deadline-rescue"

    def test_at_risk_scales_with_skipped_intervals(self):
        assert CooperativePolicy().decide(ctx(p_f=0.1, skipped=3)).at_risk == 4 * 3600.0

    def test_should_checkpoint_delegates_to_decide(self):
        for policy in (
            CooperativePolicy(), PeriodicPolicy(), NeverPolicy(), RiskFreePolicy(),
        ):
            for context in (ctx(p_f=0.0), ctx(p_f=0.5)):
                assert policy.should_checkpoint(context) == policy.decide(
                    context
                ).perform

    def test_baseline_reasons(self):
        assert PeriodicPolicy().decide(ctx()).reason == "periodic-always"
        assert NeverPolicy().decide(ctx()).reason == "never-policy"
        assert RiskFreePolicy().decide(ctx(p_f=0.3)).reason == "failure-predicted"
        assert (
            RiskFreePolicy().decide(ctx(p_f=0.0)).reason == "no-failure-predicted"
        )


class TestDecisionRange:
    """A decision's reported p_f is held to [0, 1] when it is built."""

    @pytest.mark.parametrize("p_f", [None, 0.0, 0.25, 1.0])
    def test_in_range_accepted(self, p_f):
        assert CheckpointDecision(True, "x", failure_probability=p_f)

    @pytest.mark.parametrize("p_f", [-0.1, 1.2, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, p_f):
        with pytest.raises(ValueError, match="not in \\[0, 1\\]"):
            CheckpointDecision(True, "x", failure_probability=p_f)

    def test_doubled_probability_fails_at_the_decision(self):
        # A risk-free policy that reports p_f + p_f: the result reaches
        # only trace records, so the decision itself must reject it.
        class DoubledRiskFree(RiskFreePolicy):
            def decide(self, ctx):
                p_f = ctx.failure_probability()
                return CheckpointDecision(
                    perform=p_f > 0.0,
                    reason="failure-predicted",
                    failure_probability=p_f + p_f,
                )

        assert DoubledRiskFree().decide(ctx(p_f=0.25)).failure_probability == 0.5
        with pytest.raises(ValueError, match="failure probability"):
            DoubledRiskFree().decide(ctx(p_f=0.6))


class TestClearWindowDecision:
    """The skip a policy commits to at every p_f = 0 request is exactly
    what decide() returns there."""

    @pytest.mark.parametrize("policy", [CooperativePolicy(), RiskFreePolicy()])
    @pytest.mark.parametrize("skipped", [0, 3])
    def test_matches_decide_at_zero_probability(self, policy, skipped):
        context = ctx(p_f=0.0, skipped=skipped, remaining=1000.0, now=0.0, deadline=1.0)
        decision = policy.clear_window_decision(context.d, 3600.0, 720.0)
        assert decision == policy.decide(context)
        assert not decision.perform

    def test_cooperative_at_zero_overhead_does_not_opt_in(self):
        # 0 < C fails at C = 0, so Equation 1 performs at p_f = 0.
        assert CooperativePolicy().should_checkpoint(ctx(p_f=0.0, overhead=0.0))
        assert CooperativePolicy().clear_window_decision(1, 3600.0, 0.0) is None

    def test_periodic_and_never_do_not_opt_in(self):
        for policy in (PeriodicPolicy(), NeverPolicy()):
            assert policy.clear_window_decision(1, 3600.0, 720.0) is None


class TestContextProbability:
    def test_window_covers_next_checkpoint_completion(self):
        recorded = {}

        class SpyPredictor(NullPredictor):
            def failure_probability(self, nodes, start, end):
                recorded["window"] = (start, end)
                return 0.0

        context = CheckpointDecisionContext(
            now=1000.0,
            job_id=1,
            nodes=[0],
            interval=3600.0,
            overhead=720.0,
            skipped_since_checkpoint=0,
            remaining_work=10_000.0,
            deadline=None,
            predictor=SpyPredictor(),
        )
        context.failure_probability()
        start, end = recorded["window"]
        assert start == 1000.0
        assert end == 1000.0 + 720.0 + 3600.0 + 720.0

    def test_window_clamps_to_remaining_work(self):
        recorded = {}

        class SpyPredictor(NullPredictor):
            def failure_probability(self, nodes, start, end):
                recorded["window"] = (start, end)
                return 0.0

        context = CheckpointDecisionContext(
            now=0.0,
            job_id=1,
            nodes=[0],
            interval=3600.0,
            overhead=720.0,
            skipped_since_checkpoint=0,
            remaining_work=100.0,
            deadline=None,
            predictor=SpyPredictor(),
        )
        context.failure_probability()
        assert recorded["window"][1] == 720.0 + 100.0 + 720.0


class TestFactory:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("cooperative", CooperativePolicy),
            ("periodic", PeriodicPolicy),
            ("never", NeverPolicy),
            ("risk-free", RiskFreePolicy),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(policy_by_name(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            policy_by_name("quantum")

    def test_deadline_flag_forwarded(self):
        policy = policy_by_name("cooperative", deadline_aware=False)
        assert policy.deadline_aware is False
