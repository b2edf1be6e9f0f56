"""The fast path against the reference oracles: the analytical evaluator,
the probe oracle and the checking oracle (``probe_oracle.py``) produce
identical bookings, dialogue outcomes, and full-simulation trajectories.

Pruned candidates never reach the table, so ``offers_made`` /
``offers_declined`` may legitimately shrink on the fast path; everything
the simulation acts on — start, partition, deadline, promise, forcedness —
must match bit for bit.
"""

from __future__ import annotations

import random
from typing import Iterable, List

import repro.core.system
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.negotiation import Negotiator
from repro.core.system import SystemConfig, simulate
from repro.core.users import RiskThresholdUser
from repro.experiments.runner import estimate_horizon
from repro.failures.events import FailureEvent, FailureTrace, RawEvent, Severity
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.prediction.base import PredictedFailure, Predictor
from repro.prediction.online import OnlinePredictor
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from repro.workload.synthetic import log_by_name
from tests.fastpath.probe_oracle import (
    PRICING,
    CheckingOracle,
    OracleDisagreement,
)

import pytest

HOUR = 3600.0


def booking_fields(outcome):
    return (
        outcome.start,
        outcome.nodes,
        outcome.reserved_end,
        outcome.guarantee.probability,
        outcome.guarantee.predicted_failure_probability,
        outcome.guarantee.deadline,
        outcome.forced,
    )


def random_scene(rng: random.Random):
    nodes = rng.randrange(4, 13)
    horizon = rng.uniform(20 * HOUR, 120 * HOUR)
    events = [
        FailureEvent(
            event_id=i + 1,
            time=rng.uniform(0.0, horizon),
            node=rng.randrange(nodes),
        )
        for i in range(rng.randrange(0, 40))
    ]
    trace = FailureTrace(events)
    accuracy = rng.choice([1.0, rng.random()])
    bookings = []
    cursor = 0.0
    for job in range(rng.randrange(0, 5)):
        width = rng.randrange(1, nodes)
        start = cursor + rng.uniform(0.0, 2 * HOUR)
        end = start + rng.uniform(HOUR, 8 * HOUR)
        bookings.append((1000 + job, range(width), start, end))
        cursor = end  # stacked in time, so bookings never collide
    return nodes, trace, accuracy, bookings


def run_mode(mode, nodes, trace, accuracy, bookings, jobs, seed):
    ledger = ReservationLedger(nodes)
    for job_id, span, start, end in bookings:
        ledger.reserve(job_id, span, start, end)
    predictor = TracePredictor(trace, accuracy=accuracy, seed=seed)
    negotiator = Negotiator(
        ledger,
        FlatTopology(nodes),
        predictor,
        fault_aware_scorer(predictor),
        max_offers=60,
        evaluator=PRICING[mode](predictor, nodes),
    )
    results = []
    for job_id, size, duration, threshold in jobs:
        outcome = negotiator.negotiate(
            job_id, size, duration, 0.0, RiskThresholdUser(threshold)
        )
        results.append(booking_fields(outcome))
    return results


class TestDialogueEquivalence:
    def test_randomized_dialogues_identical_across_modes(self):
        rng = random.Random(20050628)
        for case in range(150):
            nodes, trace, accuracy, bookings = random_scene(rng)
            jobs = [
                (
                    j,
                    rng.randrange(1, nodes + 1),
                    rng.uniform(HOUR, 12 * HOUR),
                    rng.choice([0.5, 0.9, 0.95, 0.99, 1.0]),
                )
                for j in range(rng.randrange(1, 6))
            ]
            probe = run_mode("probe", nodes, trace, accuracy, bookings, jobs, case)
            analytical = run_mode(
                "analytical", nodes, trace, accuracy, bookings, jobs, case
            )
            oracle = run_mode("oracle", nodes, trace, accuracy, bookings, jobs, case)
            assert probe == analytical
            assert probe == oracle

    def test_online_predictor_dialogues_identical(self):
        rng = random.Random(41)
        nodes = 6
        log = [
            RawEvent(
                time=rng.uniform(0.0, 30 * HOUR),
                node=rng.randrange(nodes),
                severity=rng.choice([Severity.WARNING, Severity.ERROR]),
            )
            for _ in range(80)
        ]
        log.sort(key=lambda e: e.time)
        results = {}
        for mode in ("probe", "analytical", "oracle"):
            ledger = ReservationLedger(nodes)
            predictor = OnlinePredictor(log, health=None)
            negotiator = Negotiator(
                ledger,
                FlatTopology(nodes),
                predictor,
                fault_aware_scorer(predictor),
                evaluator=PRICING[mode](predictor, nodes),
            )
            results[mode] = [
                booking_fields(
                    negotiator.negotiate(
                        j, 4, 6 * HOUR, 0.0, RiskThresholdUser(0.9)
                    )
                )
                for j in range(4)
            ]
        assert results["probe"] == results["analytical"]
        assert results["probe"] == results["oracle"]


class TestSimulationEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"proactive_evacuation": True, "evacuation_threshold": 0.2},
            {"opportunistic_start": True},
        ],
    )
    def test_full_simulation_identical_across_modes(self, overrides, monkeypatch):
        log = log_by_name("sdsc", seed=23, job_count=80)
        horizon = estimate_horizon(log, 128)
        trace = generate_failure_trace(
            horizon, FailureModelSpec(nodes=128, rate_per_day=6.0), seed=23
        )
        config = SystemConfig(
            accuracy=0.9, user_threshold=0.9, seed=23, **overrides
        )
        results = {}
        for mode, pricing in PRICING.items():
            # The system builds its one shared evaluator by this name.
            monkeypatch.setattr(repro.core.system, "AnalyticalEvaluator", pricing)
            outcome = simulate(config, log, trace)
            results[mode] = (outcome.metrics, outcome.outcomes)
        assert results["probe"] == results["analytical"]
        assert results["probe"] == results["oracle"]


class _IncoherentPredictor(Predictor):
    """A predictor whose set-level probability is NOT the independent
    combination of its node terms (it takes the max instead), breaking the
    fast-path independence assumption on purpose."""

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        if end <= start:
            return 0.0
        return max((self._hazard(n) for n in nodes), default=0.0)

    def _hazard(self, node: int) -> float:
        return 0.4 if node % 2 == 0 else 0.3

    def node_failure_term(self, node: int, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return self._hazard(node)

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        return []


class TestOracleContract:
    def test_oracle_flags_non_decomposable_predictor(self):
        predictor = _IncoherentPredictor()
        negotiator = Negotiator(
            ReservationLedger(4),
            FlatTopology(4),
            predictor,
            scorer=None,
            evaluator=CheckingOracle(predictor, 4),
        )
        with pytest.raises(OracleDisagreement):
            negotiator.make_offer(size=4, duration=HOUR, start=0.0)

    def test_oracle_accepts_within_loose_tolerance(self):
        predictor = _IncoherentPredictor()
        negotiator = Negotiator(
            ReservationLedger(4),
            FlatTopology(4),
            predictor,
            scorer=None,
            evaluator=CheckingOracle(predictor, 4, tolerance=1.0),
        )
        offer = negotiator.make_offer(size=4, duration=HOUR, start=0.0)
        # The probe value is emitted, not the analytical one.
        assert offer.failure_probability == 0.4
