"""Forced-dialogue behaviour at the ``max_offers`` safety cap.

When the cap ends a dialogue, the negotiator imposes the *safest* offer
seen, flags the outcome ``forced``, counts it under
``negotiation.dialogue.forced``, and ``offers_declined`` must reflect that
every tabled offer was declined.  All of it must hold identically on the
fast path and on the probe oracle (the fast path's forced dialogue reruns
unpruned).
"""

from __future__ import annotations

import pytest

from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.negotiation import Negotiator
from repro.core.users import RiskThresholdUser
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.registry import MetricsRegistry
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer
from tests.fastpath.probe_oracle import PRICING

HOUR = 3600.0
CAP = 5


def flooded_trace(nodes=4, count=2000):
    """A failure every 100 s somewhere: every long window is dirty, so no
    offer ever reaches probability 1 and a U=1 user never accepts."""
    return FailureTrace(
        [
            FailureEvent(event_id=i + 1, time=i * 100.0, node=i % nodes)
            for i in range(count)
        ]
    )


def forced_negotiator(mode, registry=None, max_offers=CAP):
    ledger = ReservationLedger(4)
    predictor = TracePredictor(flooded_trace(), accuracy=1.0, seed=1)
    negotiator = Negotiator(
        ledger,
        FlatTopology(4),
        predictor,
        fault_aware_scorer(predictor),
        max_offers=max_offers,
        registry=registry,
        evaluator=PRICING[mode](predictor, 4),
    )
    return negotiator


@pytest.mark.parametrize("mode", ["probe", "analytical"])
class TestForcedDialogue:
    def test_cap_forces_and_counts(self, mode):
        registry = MetricsRegistry()
        negotiator = forced_negotiator(mode, registry=registry)
        outcome = negotiator.negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        assert outcome.forced
        assert outcome.offers_made == CAP
        counters = registry.snapshot()["counters"]
        assert counters["negotiation.dialogue.forced"] == 1
        assert counters["negotiation.dialogue.dialogues"] == 1

    def test_imposed_offer_is_safest_seen(self, mode):
        negotiator = forced_negotiator(mode)
        # Replay the enumeration the dialogue saw (threshold-free, so it is
        # the exact candidate walk for both pricings) and find the safest.
        offers = list(negotiator.iter_offers(4, 50 * HOUR, 0.0))
        assert len(offers) == CAP
        safest = max(offers, key=lambda o: o.probability)
        outcome = negotiator.negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        assert outcome.start == safest.start
        assert outcome.nodes == safest.nodes
        assert outcome.guarantee.probability == safest.probability
        assert outcome.guarantee.probability < 1.0

    def test_offers_declined_counts_every_tabled_offer(self, mode):
        negotiator = forced_negotiator(mode)
        outcome = negotiator.negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        # Forced: the user declined all of them; the imposition is not an
        # acceptance.
        assert outcome.guarantee.offers_declined == outcome.offers_made == CAP

    def test_offers_declined_excludes_the_accepted_offer(self, mode):
        negotiator = forced_negotiator(mode)
        # A lax user accepts the first offer: nothing was declined.
        outcome = negotiator.negotiate(
            2, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(0.5)
        )
        assert not outcome.forced
        assert outcome.guarantee.offers_declined == outcome.offers_made - 1

    def test_forced_outcome_identical_to_probe(self, mode):
        reference = forced_negotiator("probe").negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        outcome = forced_negotiator(mode).negotiate(
            1, size=4, duration=50 * HOUR, now=0.0, user=RiskThresholdUser(1.0)
        )
        assert outcome.start == reference.start
        assert outcome.nodes == reference.nodes
        assert outcome.guarantee == reference.guarantee
        assert outcome.offers_made == reference.offers_made
