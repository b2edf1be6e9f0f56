"""Skipping blocked candidates changes nothing but the work done.

The negotiation dialogue and the restart booking walk the ledger's
candidate start times and drop every candidate whose window cannot have
enough free nodes.  They test the first such candidate on the capacity
skyline and then skip, without a test, every later candidate that starts
before the over-full segment ends (``CapacityProfile.blocked_until``).

The reference here is the plain walk, which tests every candidate with
the skyline on its own.  Over random ledgers and failure traces both walks
must produce the same offers and the same restart booking, and count the
same prefilter rejects and restart probes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.reservations import CapacityProfile, ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.trace import TracePredictor
from repro.scheduling.fcfs import ConservativeBackfillScheduler
from repro.scheduling.placement import fault_aware_scorer

NODES = 8

bookings = st.lists(
    st.tuples(
        st.sets(st.integers(0, NODES - 1), min_size=1, max_size=NODES),
        st.integers(0, 40),  # start, in units of 100 s
        st.integers(1, 20),  # duration, in units of 100 s
    ),
    max_size=12,
)
failures = st.lists(
    st.tuples(st.floats(0.0, 8000.0), st.integers(0, NODES - 1)), max_size=8
)


def plain_walk(size, duration):
    """A ``blocked_until`` that blocks nothing past ``start`` itself, so
    every candidate is tested with ``window_fits`` on its own.  It reads
    the job's size and duration from here, not from its caller."""

    def blocked_until(profile, start, end, most_busy):
        if profile.window_fits(start, start + duration, size, NODES):
            return start
        return math.nextafter(start, math.inf)

    return blocked_until


def build(spec, failure_spec):
    ledger = ReservationLedger(NODES)
    for job_id, (nodes, start, duration) in enumerate(spec, start=100):
        # Overlaps are allowed so the skyline can exceed any one node's
        # share, as extended bookings make it in a simulation.
        ledger.reserve(
            job_id, nodes, start * 100.0, (start + duration) * 100.0,
            allow_overlap=True,
        )
    trace = FailureTrace(
        [FailureEvent(event_id=i + 1, time=t, node=n) for i, (t, n) in enumerate(failure_spec)]
    )
    predictor = TracePredictor(trace, accuracy=1.0, seed=1)
    scheduler = ConservativeBackfillScheduler(
        ledger, FlatTopology(NODES), predictor, fault_aware_scorer(predictor),
        max_offers=30,
    )
    return ledger, scheduler


def walk(spec, failure_spec, size, duration, earliest, threshold):
    ledger, scheduler = build(spec, failure_spec)
    offers = [
        (o.start, tuple(o.nodes), o.deadline, o.probability)
        for o in scheduler.negotiator.iter_offers(
            size, duration, earliest, threshold=threshold
        )
    ]
    booking = scheduler.schedule_restart(999, size, duration, earliest)
    counters = {**scheduler.counters(), **scheduler.negotiator.counters()}
    return (
        offers,
        (booking.start, tuple(booking.nodes), booking.end),
        tuple(ledger.get(999).nodes),
        counters.get("negotiation.dialogue.prefilter_rejects", 0),
        counters.get("negotiation.dialogue.pruned", 0),
        counters.get("scheduling.fcfs.restart_probes", 0),
    )


@settings(max_examples=120, deadline=None)
@given(
    spec=bookings,
    failure_spec=failures,
    size=st.integers(1, NODES),
    duration=st.integers(1, 20),
    earliest=st.integers(0, 30),
    threshold=st.sampled_from([None, 0.5, 0.95]),
)
def test_skipping_matches_the_plain_walk(
    spec, failure_spec, size, duration, earliest, threshold
):
    duration *= 100.0
    args = (spec, failure_spec, size, duration, earliest * 100.0, threshold)
    skipped = walk(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CapacityProfile, "blocked_until", plain_walk(size, duration))
        plain = walk(*args)
    assert skipped == plain
