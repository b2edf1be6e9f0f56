"""Unit tests for the deadline-negotiation dialogue."""

from __future__ import annotations

import pytest

from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.negotiation import Negotiator
from repro.core.users import EarliestDeadlineUser, RiskThresholdUser
from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from tests.fastpath.probe_oracle import PRICING

HOUR = 3600.0


def make_negotiator(
    node_count=8, failures=None, accuracy=1.0, max_offers=400, mode="analytical"
):
    """``mode`` picks the pricing: the library's fast path, or one of the
    reference oracles (``probe``, ``oracle``) of the fast-path tests."""
    ledger = ReservationLedger(node_count)
    trace = failures if failures is not None else FailureTrace([])
    predictor = TracePredictor(trace, accuracy=accuracy, seed=1)
    negotiator = Negotiator(
        ledger,
        FlatTopology(node_count),
        predictor,
        fault_aware_scorer(predictor),
        max_offers=max_offers,
        evaluator=PRICING[mode](predictor, node_count),
    )
    return negotiator, ledger, predictor


def all_nodes_fail_at(time, nodes=8):
    return FailureTrace(
        [FailureEvent(event_id=n + 1, time=time, node=n) for n in range(nodes)]
    )


class TestOffers:
    def test_offer_on_empty_cluster_starts_now(self):
        negotiator, _, _ = make_negotiator()
        offer = negotiator.make_offer(size=4, duration=HOUR, start=0.0)
        assert offer.start == 0.0
        assert offer.probability == 1.0

    def test_offer_reports_failure_probability(self):
        negotiator, _, predictor = make_negotiator(
            failures=all_nodes_fail_at(HOUR)
        )
        offer = negotiator.make_offer(size=8, duration=2 * HOUR, start=0.0)
        assert offer.probability == pytest.approx(
            1.0 - offer.failure_probability
        )
        assert offer.failure_probability > 0.0

    def test_offer_picks_safest_partition(self):
        failures = FailureTrace([FailureEvent(event_id=1, time=HOUR, node=0)])
        negotiator, _, _ = make_negotiator(failures=failures)
        offer = negotiator.make_offer(size=4, duration=2 * HOUR, start=0.0)
        assert 0 not in offer.nodes
        assert offer.probability == 1.0

    def test_offer_none_when_infeasible(self):
        negotiator, ledger, _ = make_negotiator()
        ledger.reserve(99, range(8), 0.0, HOUR)
        assert negotiator.make_offer(size=4, duration=HOUR, start=0.0) is None

    def test_offers_nondecreasing_deadlines(self):
        negotiator, ledger, _ = make_negotiator()
        ledger.reserve(99, range(8), 0.0, HOUR)
        ledger.reserve(98, range(4), 2 * HOUR, 3 * HOUR)
        deadlines = [
            o.deadline for o in negotiator.iter_offers(4, HOUR, 0.0)
        ]
        assert deadlines == sorted(deadlines)


class TestDialogue:
    def test_impatient_user_takes_first_offer(self):
        negotiator, ledger, _ = make_negotiator(failures=all_nodes_fail_at(HOUR))
        outcome = negotiator.negotiate(
            1, size=8, duration=2 * HOUR, now=0.0, user=EarliestDeadlineUser()
        )
        assert outcome.start == 0.0
        assert outcome.guarantee.offers_declined == 0
        assert not outcome.forced
        assert ledger.get(1) is not None

    @pytest.mark.parametrize("mode", ["probe", "analytical", "oracle"])
    def test_cautious_user_jumps_past_the_failure(self, mode):
        negotiator, _, _ = make_negotiator(
            failures=all_nodes_fail_at(HOUR), mode=mode
        )
        outcome = negotiator.negotiate(
            1, size=8, duration=2 * HOUR, now=0.0, user=RiskThresholdUser(0.99)
        )
        assert outcome.start > HOUR
        assert outcome.guarantee.probability >= 0.99
        if mode == "analytical":
            # The declined offer is provably below threshold, so pruning
            # skips it: nothing was laid on the table before the accept.
            assert outcome.guarantee.offers_declined == 0
        else:
            assert outcome.guarantee.offers_declined >= 1

    def test_deadline_is_start_plus_duration(self):
        negotiator, _, _ = make_negotiator()
        outcome = negotiator.negotiate(
            1, size=2, duration=HOUR, now=50.0, user=EarliestDeadlineUser()
        )
        assert outcome.guarantee.deadline == outcome.start + HOUR

    def test_oversized_job_rejected(self):
        negotiator, _, _ = make_negotiator(node_count=4)
        with pytest.raises(ValueError, match="exceeds cluster width"):
            negotiator.negotiate(
                1, size=5, duration=HOUR, now=0.0, user=EarliestDeadlineUser()
            )

    def test_dialogue_cap_imposes_best_offer(self):
        # Low accuracy: detectable failure probability stays below 0.3, so
        # promised p stays below 0.95 only when a failure is detected; make
        # every window contain a detected failure by flooding the trace.
        failures = FailureTrace(
            [
                FailureEvent(event_id=i + 1, time=i * 100.0, node=i % 4)
                for i in range(2000)
            ]
        )
        negotiator, _, _ = make_negotiator(
            node_count=4, failures=failures, accuracy=1.0, max_offers=5
        )
        outcome = negotiator.negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        assert outcome.forced
        assert outcome.offers_made == 5

    def test_sequential_negotiations_respect_bookings(self):
        negotiator, ledger, _ = make_negotiator()
        first = negotiator.negotiate(
            1, size=8, duration=HOUR, now=0.0, user=EarliestDeadlineUser()
        )
        second = negotiator.negotiate(
            2, size=8, duration=HOUR, now=0.0, user=EarliestDeadlineUser()
        )
        assert second.start >= first.reserved_end


class TestSuggestDeadline:
    @pytest.mark.parametrize("mode", ["probe", "analytical"])
    def test_suggests_earliest_hitting_target(self, mode):
        negotiator, ledger, _ = make_negotiator(
            failures=all_nodes_fail_at(HOUR), mode=mode
        )
        result = negotiator.suggest_deadline(
            size=8, duration=2 * HOUR, now=0.0, target_probability=0.99
        )
        assert result.found
        assert result.status == "found"
        assert result.offer.start > HOUR
        assert result.offer.probability >= 0.99
        # Advisory only: nothing booked.
        assert len(ledger) == 0

    @pytest.mark.parametrize("mode", ["probe", "analytical"])
    def test_unreachable_target_reports_cap(self, mode):
        failures = FailureTrace(
            [
                FailureEvent(event_id=i + 1, time=i * 100.0, node=i % 4)
                for i in range(2000)
            ]
        )
        negotiator, _, _ = make_negotiator(
            node_count=4, failures=failures, max_offers=5, mode=mode
        )
        result = negotiator.suggest_deadline(
            4, 50 * HOUR, 0.0, target_probability=1.0
        )
        assert result.offer is None
        assert not result.found
        assert result.status == "cap_reached"
        assert result.offers_examined >= 5

    @pytest.mark.parametrize("mode", ["probe", "analytical"])
    def test_oversized_job_reports_infeasible(self, mode):
        negotiator, _, _ = make_negotiator(node_count=4, mode=mode)
        result = negotiator.suggest_deadline(
            5, HOUR, 0.0, target_probability=0.5
        )
        assert result.offer is None
        assert result.status == "infeasible"
