#!/usr/bin/env python3
"""The negotiation dialogue up close: deadlines traded for probability.

Constructs a small cluster whose failure trace contains a predictable
failure right where an impatient user's job would run, then walks through
the offers the system makes:

* an impatient user (low U) takes the earliest deadline and rides the risk;
* a cautious user (high U) declines until the system offers a window clear
  of predicted failures — a later deadline with a higher promise;
* the `suggest_deadline` API answers "when could you promise me 99%?"
  without booking anything.

This is the paper's market mechanism in miniature: relaxing the deadline
buys probability.

Run:  python examples/negotiation_demo.py
"""

from __future__ import annotations

from repro.cluster.machine import Cluster
from repro.cluster.topology import FlatTopology
from repro.core.negotiation import Negotiator
from repro.core.users import RiskThresholdUser
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.registry import MetricsRegistry
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import fault_aware_scorer

NODES = 8
HOUR = 3600.0


def main() -> None:
    # A failure on every node three hours from now: no partition dodges it.
    failures = FailureTrace(
        [
            FailureEvent(event_id=n + 1, time=3 * HOUR, node=n, subsystem="power")
            for n in range(NODES)
        ]
    )
    # Accuracy 0.9: the failures are almost certainly detectable.
    predictor = TracePredictor(failures, accuracy=0.9, seed=11)
    cluster = Cluster(node_count=NODES)
    # The negotiator skips offers a threshold user is certain to decline
    # without laying them on the table (see DESIGN.md "Analytical
    # negotiation fast path"); the registry counts those pruned offers.
    registry = MetricsRegistry()
    pruned = registry.counter("negotiation.dialogue.pruned")
    negotiator = Negotiator(
        cluster.ledger, FlatTopology(NODES), predictor,
        scorer=fault_aware_scorer(predictor), registry=registry,
    )

    size, duration = NODES, 4 * HOUR  # a 4-hour job needing every node
    print(f"job: {size} nodes x {duration / HOUR:.0f}h; "
          f"all nodes have a predicted failure at t=3h\n")

    print("offers on the table (earliest first):")
    for i, offer in enumerate(negotiator.iter_offers(size, duration, 0.0)):
        print(
            f"  offer {i}: start t={offer.start / HOUR:5.2f}h  "
            f"deadline t={offer.deadline / HOUR:5.2f}h  "
            f"promised p={offer.probability:.3f}  (p_f={offer.failure_probability:.3f})"
        )
        if i >= 4:
            break

    for threshold in (0.1, 0.95):
        user = RiskThresholdUser(threshold)
        pruned_before = pruned.value
        outcome = negotiator.negotiate(
            job_id=int(threshold * 100), size=size, duration=duration,
            now=0.0, user=user,
        )
        g = outcome.guarantee
        print(
            f"\nuser with U={threshold:g} accepted after declining "
            f"{g.offers_declined} offer(s) and skipping "
            f"{pruned.value - pruned_before:.0f} pruned one(s):\n"
            f"  \"job can be completed by t={g.deadline / HOUR:.2f}h "
            f"with probability {g.probability:.3f}\""
        )
        cluster.ledger.release(g.job_id)  # clean slate for the next user

    suggestion = negotiator.suggest_deadline(
        size, duration, 0.0, target_probability=0.99
    )
    offer = suggestion.offer
    assert suggestion.found and offer is not None, suggestion.status
    print(
        f"\nsuggest_deadline(target p>=0.99): start the job at "
        f"t={offer.start / HOUR:.2f}h, deadline t={offer.deadline / HOUR:.2f}h, "
        f"promised p={offer.probability:.3f} "
        f"({suggestion.offers_examined} offer(s) examined)"
    )


if __name__ == "__main__":
    main()
