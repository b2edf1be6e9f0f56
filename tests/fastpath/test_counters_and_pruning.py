"""Probe/prefilter/pruned counter split, pruning safety, and parameter
plumbing for the negotiation fast path.

``negotiation.dialogue.probes`` counts only candidates actually priced by
``make_offer``; capacity-prefiltered candidates land in
``negotiation.dialogue.prefilter_rejects`` and threshold-pruned ones in
``negotiation.dialogue.pruned``.
"""

from __future__ import annotations

import random

import pytest

import repro.core.system
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.negotiation import Negotiator
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.core.users import RiskThresholdUser, SlackBoundedUser
from repro.failures.events import FailureEvent, FailureTrace, RawEvent, Severity
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.prediction.online import OnlinePredictor
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from repro.workload.job import JobLog
from tests.fastpath.probe_oracle import PRICING

HOUR = 3600.0


def build(mode, node_count=8, trace=None, **kwargs):
    ledger = ReservationLedger(node_count)
    predictor = TracePredictor(
        trace if trace is not None else FailureTrace([]), accuracy=1.0, seed=1
    )
    negotiator = Negotiator(
        ledger,
        FlatTopology(node_count),
        predictor,
        fault_aware_scorer(predictor),
        evaluator=PRICING[mode](predictor, node_count),
        **kwargs,
    )
    return negotiator, ledger


def counters(negotiator):
    """The dialogue's and its evaluator's counters."""
    return {**negotiator.counters(), **negotiator.evaluator.counters()}


class TestCounterSplit:
    def test_probes_count_only_priced_candidates(self):
        negotiator, ledger = build("probe")
        # Full-width bookings make the early candidates fail the capacity
        # prefilter: they must not count as probes.
        ledger.reserve(90, range(8), 0.0, HOUR)
        ledger.reserve(91, range(8), HOUR, 2 * HOUR)
        outcome = negotiator.negotiate(
            1, size=8, duration=HOUR, now=0.0, user=RiskThresholdUser(0.5)
        )
        assert outcome.start == 2 * HOUR
        tally = counters(negotiator)
        assert tally["negotiation.dialogue.prefilter_rejects"] == 2
        assert tally["negotiation.dialogue.probes"] == 1
        assert tally.get("negotiation.dialogue.pruned", 0) == 0

    def test_pruned_candidates_counted_separately_from_probes(self):
        trace = generate_failure_trace(
            60 * 86400.0, FailureModelSpec(nodes=8, rate_per_day=24.0), seed=3
        )
        tallies = {}
        for mode in ("probe", "analytical"):
            negotiator, _ = build(mode, trace=trace)
            for job in range(10):
                negotiator.negotiate(
                    job, size=8, duration=8 * HOUR, now=0.0,
                    user=RiskThresholdUser(0.97),
                )
            tallies[mode] = counters(negotiator)
        assert tallies["probe"].get("negotiation.dialogue.pruned", 0) == 0
        pruned = tallies["analytical"]["negotiation.dialogue.pruned"]
        assert pruned > 0
        # Every pruned candidate is a probe the fast path did not pay.
        assert (
            tallies["analytical"]["negotiation.dialogue.probes"] + pruned
            >= tallies["probe"]["negotiation.dialogue.probes"]
        )
        assert (
            tallies["analytical"]["negotiation.dialogue.probes"]
            < tallies["probe"]["negotiation.dialogue.probes"]
        )

    def test_advisory_counter_increments(self):
        negotiator, _ = build("analytical")
        result = negotiator.suggest_deadline(
            4, HOUR, 0.0, target_probability=0.9
        )
        assert result.found
        assert counters(negotiator)["negotiation.dialogue.advisories"] == 1

    def test_fastpath_cache_counters_live(self):
        # Mirror the system wiring: one shared evaluator answers both the
        # offer pricing and the fault-aware placement.  Trace-backed
        # placement is one window query on the failure index, so it never
        # touches the per-node term cache; an online predictor's placement
        # scores are memoised terms, so its dialogue does.
        trace = generate_failure_trace(
            30 * 86400.0, FailureModelSpec(nodes=8, rate_per_day=12.0), seed=5
        )
        rng = random.Random(5)
        log = sorted(
            (
                RawEvent(
                    time=rng.uniform(0.0, 30 * HOUR),
                    node=rng.randrange(8),
                    severity=rng.choice([Severity.WARNING, Severity.ERROR]),
                )
                for _ in range(80)
            ),
            key=lambda e: e.time,
        )
        predictors = {
            "trace": TracePredictor(trace, accuracy=1.0, seed=1),
            "online": OnlinePredictor(log, health=None),
        }
        tallies = {}
        for name, predictor in predictors.items():
            evaluator = AnalyticalEvaluator(predictor, 8)
            negotiator = Negotiator(
                ReservationLedger(8),
                FlatTopology(8),
                predictor,
                fault_aware_scorer(evaluator),
                evaluator=evaluator,
            )
            negotiator.negotiate(
                1, size=6, duration=6 * HOUR, now=0.0, user=RiskThresholdUser(0.9)
            )
            tallies[name] = counters(negotiator)
        assert tallies["trace"]["negotiation.fastpath.evaluations"] >= 1
        assert tallies["trace"].get("negotiation.fastpath.term_cache_misses", 0) == 0
        assert tallies["online"]["negotiation.fastpath.evaluations"] >= 1
        assert tallies["online"]["negotiation.fastpath.term_cache_misses"] >= 1


class TestPruningSafety:
    def test_slack_bounded_user_is_never_pruned(self):
        # Every window is dirty: a threshold-only user would decline for a
        # long time, but this user's patience runs out first and they accept
        # a below-threshold offer.  Pruning on the threshold would skip the
        # very offer they accept.
        trace = FailureTrace(
            [
                FailureEvent(event_id=i + 1, time=i * 200.0, node=i % 8)
                for i in range(3000)
            ]
        )
        results = {}
        for mode in ("probe", "analytical"):
            negotiator, _ = build(mode, trace=trace)
            user = SlackBoundedUser(
                risk_threshold=1.0, max_slack=0.0, first_offer_start=0.0
            )
            outcome = negotiator.negotiate(
                1, size=8, duration=10 * HOUR, now=0.0, user=user
            )
            results[mode] = (
                outcome.start,
                outcome.nodes,
                outcome.guarantee,
                outcome.offers_made,
                counters(negotiator)["negotiation.dialogue.pruned"],
            )
        assert results["probe"] == results["analytical"]
        assert results["analytical"][4] == 0  # no pruning for slack users
        assert results["analytical"][2].probability < 1.0  # accepted on slack

    def test_threshold_pruning_never_changes_the_booking(self):
        trace = generate_failure_trace(
            45 * 86400.0, FailureModelSpec(nodes=8, rate_per_day=20.0), seed=7
        )
        for threshold in (0.5, 0.9, 0.97, 1.0):
            bookings = {}
            for mode in ("probe", "analytical"):
                negotiator, _ = build(mode, trace=trace, max_offers=30)
                outcomes = [
                    negotiator.negotiate(
                        j, size=7, duration=9 * HOUR, now=0.0,
                        user=RiskThresholdUser(threshold),
                    )
                    for j in range(6)
                ]
                # offers_declined may legitimately shrink under pruning, so
                # compare everything the simulation acts on instead of the
                # whole guarantee.
                bookings[mode] = [
                    (
                        o.start,
                        o.nodes,
                        o.reserved_end,
                        o.guarantee.deadline,
                        o.guarantee.probability,
                        o.guarantee.predicted_failure_probability,
                        o.guarantee.planned_start,
                        o.guarantee.planned_nodes,
                        o.forced,
                    )
                    for o in outcomes
                ]
            assert bookings["probe"] == bookings["analytical"]


class TestParameterPlumbing:
    def test_jump_epsilon_changes_the_jump_target(self):
        trace = FailureTrace(
            [FailureEvent(event_id=n + 1, time=HOUR, node=n) for n in range(8)]
        )
        for mode in ("probe", "analytical"):
            negotiator, _ = build(
                mode, trace=trace, failure_jump_epsilon=600.0
            )
            outcome = negotiator.negotiate(
                1, size=8, duration=2 * HOUR, now=0.0, user=RiskThresholdUser(0.99)
            )
            assert outcome.start == HOUR + 600.0

    def test_system_config_plumbs_mode_and_epsilon(self, monkeypatch):
        # The only pricing seam is the evaluator class the system builds;
        # a substituted one reaches the negotiator untouched.
        monkeypatch.setattr(
            repro.core.system, "AnalyticalEvaluator", PRICING["probe"]
        )
        trace = FailureTrace([])
        config = SystemConfig(node_count=8, failure_jump_epsilon=42.0)
        system = ProbabilisticQoSSystem(config, JobLog([], name="empty"), trace)
        negotiator = system.scheduler.negotiator
        assert negotiator.failure_jump_epsilon == 42.0
        assert isinstance(system.evaluator, PRICING["probe"])
        assert negotiator.evaluator is system.evaluator

    def test_system_shares_one_evaluator(self):
        system = ProbabilisticQoSSystem(
            SystemConfig(node_count=8), JobLog([], name="empty"), FailureTrace([])
        )
        assert isinstance(system.evaluator, AnalyticalEvaluator)
        assert system.scheduler.negotiator.evaluator is system.evaluator

    def test_invalid_mode_and_epsilon_rejected(self):
        # There is one pricing path: no mode switch is accepted anywhere.
        with pytest.raises(TypeError, match="negotiation_mode"):
            SystemConfig(negotiation_mode="probe")
        with pytest.raises(ValueError, match="failure_jump_epsilon"):
            SystemConfig(failure_jump_epsilon=0.0)
        ledger = ReservationLedger(4)
        predictor = TracePredictor(FailureTrace([]), accuracy=1.0, seed=1)
        with pytest.raises(TypeError, match="mode"):
            Negotiator(ledger, FlatTopology(4), predictor, mode="probe")
        with pytest.raises(ValueError, match="failure_jump_epsilon"):
            Negotiator(
                ledger, FlatTopology(4), predictor, failure_jump_epsilon=-1.0
            )

    def test_evaluator_wrapping_is_idempotent(self):
        predictor = TracePredictor(FailureTrace([]), accuracy=1.0, seed=1)
        inner = AnalyticalEvaluator(predictor, 8)
        outer = AnalyticalEvaluator(inner, 8)
        assert outer.backing is predictor
