"""Equivalence of the incremental ledger against the frozen seed ledger.

The optimisation contract is *bit-identical behaviour*: under any legal
mix of ``reserve``/``release``/``truncate``/``extend`` (including the
sanctioned ``allow_overlap`` restores that make per-node end times
unsorted), the incremental ledger must

* report the ``max_usage`` and ``blocked_until`` brute-force sums over
  the live bookings give (:func:`oracle_max_usage` and
  :func:`oracle_blocked_until`, which share no code with
  :class:`CapacityProfile`), for bounds on either side of the live
  booked width, and keep its in-place skyline in the same canonical form
  a from-scratch :class:`CapacityProfile` rebuild has,
* find every live booking active at one instant of a window exactly
  when the window's skyline maximum is the booked width,
* answer ``node_free``/``free_nodes``/``candidate_times`` identically, and
* return byte-identical ``find_slot`` results,

at every step.  The driver below replays a seeded random mutation stream
into both ledgers side by side and cross-checks after each op; with
``NUM_SEQUENCES`` independent sequences this covers >10k mutations.  A
second driver books at a moving "now" on a wide cluster, so most queries
see every live booking active at once and take the ledger's unheld-set
answer; it also checks the kept set against one rebuilt from the
bookings.  A third runs whole negotiation dialogues against a deep
queue on both ledgers and requires identical outcomes.
"""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

import pytest

from repro.cluster.nodeset import NodeSet
from repro.cluster.reservations import CapacityProfile, ReservationLedger
from repro.cluster.topology import FlatTopology
from repro.core.negotiation import Negotiator
from repro.core.users import RiskThresholdUser
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.prediction.trace import TracePredictor

_SEED = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "seed_ledger.py"
_spec = importlib.util.spec_from_file_location("seed_ledger", _SEED)
seed_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_ledger)
SeedReservationLedger = seed_ledger.SeedReservationLedger

#: Independent random mutation sequences (acceptance floor: 1000).
NUM_SEQUENCES = 1000
#: Mutations per sequence.
OPS_PER_SEQUENCE = 12
NODES = 12


def _probe_windows(rng, ledger):
    """Windows to cross-check: random plus boundary-aligned ones."""
    horizon = 1.0
    reservations = ledger.reservations()
    windows = []
    for r in reservations[:4]:
        windows.append((r.start, r.end))
        windows.append((r.start - 0.5, r.end + 0.5))
        horizon = max(horizon, r.end)
    for _ in range(3):
        a = rng.uniform(0.0, horizon * 1.1)
        windows.append((a, a + rng.uniform(0.1, horizon)))
    return windows


def oracle_max_usage(reservations, start, end):
    """Brute-force skyline maximum over ``[start, end)``: at ``start`` and
    at every booking boundary inside the window, sum the widths of the
    bookings that cover it."""
    probes = {start}
    for r in reservations:
        probes.update(t for t in (r.start, r.end) if start <= t < end)
    return max(
        sum(len(r.nodes) for r in reservations if r.start <= t < r.end)
        for t in probes
    )


def oracle_blocked_until(reservations, start, end, most_busy):
    """Brute-force ``blocked_until``: find the last instant of ``[start,
    end)`` at which more than ``most_busy`` nodes are booked, then the
    first booking boundary past it at which the booked count changes."""
    if most_busy < 0:
        return math.inf

    def usage(t):
        return sum(len(r.nodes) for r in reservations if r.start <= t < r.end)

    bounds = sorted({t for r in reservations for t in (r.start, r.end)})
    probes = [start] + [t for t in bounds if start <= t < end]
    over = [t for t in probes if usage(t) > most_busy]
    if not over:
        return start
    last = max(over)
    return next(t for t in bounds if t > last and usage(t) != usage(last))


def _check_queries(bounds, fast, windows):
    """The skyline queries and the all-active test against the oracles;
    ``bounds`` draws the ``blocked_until`` bounds (its own stream, so the
    mutation streams stay as they were)."""
    live = fast.profile()
    reservations = fast.reservations()
    assert live.booked == sum(len(r.nodes) for r in reservations)
    assert fast._start_times == sorted(r.start for r in reservations)
    for start, end in windows:
        most = oracle_max_usage(reservations, start, end)
        assert live.max_usage(start, end) == most
        if reservations:
            assert fast._all_active(start, end) == (most == live.booked)
        most_busy = bounds.randint(-1, live.booked + 2)
        assert live.blocked_until(start, end, most_busy) == oracle_blocked_until(
            reservations, start, end, most_busy
        )


def _check_equivalence(
    rng, fast: ReservationLedger, seed: SeedReservationLedger, bounds
):
    assert fast.reservations() == seed.reservations()
    assert fast.candidate_times(0.0) == seed.candidate_times(0.0)

    live = fast.profile()
    rebuilt = CapacityProfile(fast.reservations())
    assert (live.times, live.levels) == (rebuilt.times, rebuilt.levels)
    windows = _probe_windows(rng, fast)
    _check_queries(bounds, fast, windows)
    for start, end in windows:
        assert fast.free_nodes(start, end) == seed.free_nodes(start, end)

    size = rng.randint(1, NODES)
    duration = rng.uniform(1.0, 400.0)
    earliest = rng.uniform(0.0, 600.0)
    assert fast.find_slot(size, duration, earliest) == seed.find_slot(
        size, duration, earliest
    )


def _apply_random_op(rng, fast, seed, next_id):
    """One random mutation, mirrored into both ledgers; returns new id."""
    live = sorted(fast._by_job)
    op = rng.random()
    if not live or op < 0.45:
        size = rng.randint(1, NODES // 2)
        duration = rng.uniform(10.0, 300.0)
        earliest = rng.uniform(0.0, 500.0)
        start, nodes = fast.find_slot(size, duration, earliest)
        fast.reserve(next_id, nodes, start, start + duration)
        seed.reserve(next_id, nodes, start, start + duration)
        return next_id + 1
    job_id = rng.choice(live)
    booking = fast.get(job_id)
    if op < 0.60:
        fast.release(job_id)
        seed.release(job_id)
    elif op < 0.75:
        new_end = rng.uniform(booking.start, booking.end + 50.0)
        if new_end <= booking.start:
            new_end = booking.start + 1.0
        fast.truncate(job_id, new_end)
        seed.truncate(job_id, new_end)
    elif op < 0.90:
        new_end = booking.end + rng.uniform(0.0, 120.0)
        fast.extend(job_id, new_end)
        seed.extend(job_id, new_end)
    else:
        # Release/restore with allow_overlap after extending a neighbour:
        # exercises overlapping bookings and unsorted per-node end times.
        other = rng.choice(live)
        if other != job_id:
            fast.extend(other, fast.get(other).end + 90.0)
            seed.extend(other, seed.get(other).end + 90.0)
        fast.release(job_id)
        seed.release(job_id)
        fast.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
        seed.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
    return next_id


@pytest.mark.parametrize("chunk", range(4))
def test_incremental_profile_matches_seed_ledger(chunk):
    per_chunk = NUM_SEQUENCES // 4
    for sequence in range(per_chunk):
        rng = random.Random(chunk * per_chunk + sequence)
        bounds = random.Random(-1 - chunk * per_chunk - sequence)
        fast = ReservationLedger(NODES)
        seed = SeedReservationLedger(NODES)
        next_id = 1
        for _ in range(OPS_PER_SEQUENCE):
            next_id = _apply_random_op(rng, fast, seed, next_id)
            _check_equivalence(rng, fast, seed, bounds)


def test_live_profile_follows_every_mutation():
    # profile() hands out the live skyline: a reference taken before a
    # mutation answers for the ledger after it.
    ledger = ReservationLedger(8)
    held = ledger.profile()
    windows = [(0.0, 100.0), (5.0, 10.0), (10.0, 15.0), (12.0, 18.0), (20.0, 40.0)]
    for mutate in (
        lambda: ledger.reserve(1, [0, 1], 10.0, 20.0),
        lambda: ledger.reserve(2, [2], 5.0, 15.0),
        lambda: ledger.extend(1, 30.0),
        lambda: ledger.truncate(2, 12.0),
        lambda: ledger.reserve(3, [0], 15.0, 25.0, allow_overlap=True),
        lambda: ledger.release(1),
        lambda: ledger.release(2),
        lambda: ledger.release(3),
    ):
        mutate()
        assert ledger.profile() is held
        for start, end in windows:
            assert held.max_usage(start, end) == oracle_max_usage(
                ledger.reservations(), start, end
            )
    assert held.max_usage(0.0, 100.0) == 0


class TestFreeSetMemo:
    """reserve() validates against a free set memoised per window; a
    mutation between the query and the booking must invalidate it."""

    def test_extend_into_the_window_is_seen_by_reserve(self):
        ledger = ReservationLedger(8)
        ledger.reserve(1, [0, 1], 0.0, 10.0)
        ledger.reserve(2, [2, 3], 0.0, 50.0)
        free = ledger.free_nodes_set(20.0, 30.0)
        assert free == [0, 1, 4, 5, 6, 7]
        ledger.extend(1, 25.0)  # job 1 now holds nodes 0-1 into the window
        with pytest.raises(ValueError, match="node 0 not free"):
            ledger.reserve(3, free, 20.0, 30.0)
        assert 3 not in ledger

    def test_release_then_reserve_on_the_same_window(self):
        ledger = ReservationLedger(8)
        ledger.reserve(1, [0, 1, 2, 3], 0.0, 10.0)
        ledger.reserve(2, [4, 5, 6, 7], 0.0, 50.0)
        assert ledger.free_nodes_set(5.0, 15.0) == []
        with pytest.raises(ValueError, match="node 0 not free"):
            ledger.reserve(3, [0, 1], 5.0, 15.0)
        ledger.release(1)
        booking = ledger.reserve(3, [0, 1], 5.0, 15.0)
        assert booking.nodes == (0, 1)
        assert ledger.free_nodes_set(5.0, 15.0) == [2, 3]


def test_scored_flat_placement_matches_seed_find_slot():
    # The seed ledger ranks every free node with a per-node scorer inside
    # find_slot; the library places at find_slot's start through the
    # topology's window scorer.  Both must book the same nodes.
    seed_scorer = lambda node, start, end: (node * 7919) % 13
    scorer = lambda free, start, end: {n: seed_scorer(n, start, end) for n in free}
    topology = FlatTopology(NODES)
    rng = random.Random(42)
    fast = ReservationLedger(NODES)
    seed = SeedReservationLedger(NODES)
    for job_id in range(1, 30):
        size = rng.randint(1, NODES // 2)
        duration = rng.uniform(10.0, 300.0)
        earliest = rng.uniform(0.0, 500.0)
        start, _ = fast.find_slot(size, duration, earliest)
        free = fast.free_nodes_set(start, start + duration)
        nodes = topology.select_partition(
            free, size, start, start + duration, scorer
        )
        assert (start, nodes) == seed.find_slot(
            size, duration, earliest, scorer=seed_scorer
        )
        fast.reserve(job_id, nodes, start, start + duration)
        seed.reserve(job_id, nodes, start, start + duration)


# ----------------------------------------------------------------------
# Wide cluster: bookings all active at a moving "now"
# ----------------------------------------------------------------------
#: Wide enough that most free-set queries see every booking active at
#: one instant and take the unheld-set answer instead of a sweep.
WIDE_NODES = 256
WIDE_SEQUENCES = 24
WIDE_OPS = 60


def _unheld_oracle(ledger):
    """The nodes no live booking holds at any time, from the bookings
    alone: ``(runs, count)``."""
    held = set()
    for r in ledger.reservations():
        held.update(r.nodes)
    unheld = NodeSet.from_iterable(set(range(ledger.node_count)) - held)
    return list(unheld.runs), len(unheld)


def _check_unheld(fast):
    if fast._unheld is not None:
        assert (fast._unheld, fast._unheld_size) == _unheld_oracle(fast)


def _check_wide(rng, fast, seed, now, tally, bounds):
    assert fast.reservations() == seed.reservations()
    _check_unheld(fast)
    windows = [(now, now + rng.uniform(1.0, 300.0)) for _ in range(3)]
    windows += [(r.start, r.end) for r in fast.reservations()[:2]]
    _check_queries(bounds, fast, windows)
    for start, end in windows:
        tally["queries"] += 1
        if fast.profile().max_usage(start, end) == fast.profile().booked:
            tally["all_active"] += 1
        assert fast.free_nodes(start, end) == seed.free_nodes(start, end)
    size = rng.randint(1, WIDE_NODES)
    duration = rng.uniform(1.0, 400.0)
    assert fast.find_slot(size, duration, now) == seed.find_slot(size, duration, now)
    _check_unheld(fast)


def _apply_wide_op(rng, fast, seed, now, next_id):
    """One random mutation at ``now``, mirrored into both ledgers;
    returns ``(now, next_id)``."""
    live = sorted(fast._by_job)
    op = rng.random()
    if not live or op < 0.40:
        size = rng.randint(1, 24)
        duration = rng.uniform(10.0, 300.0)
        # One booking in twenty starts ahead, across nodes held earlier.
        earliest = now if op < 0.38 else now + rng.uniform(0.0, 300.0)
        start, nodes = fast.find_slot(size, duration, earliest)
        fast.reserve(next_id, nodes, start, start + duration)
        seed.reserve(next_id, nodes, start, start + duration)
        return now, next_id + 1
    if op < 0.65:
        # Time passes; bookings that ended by then finish.
        now += rng.uniform(0.0, 120.0)
        for r in fast.reservations():
            if r.end <= now:
                fast.release(r.job_id)
                seed.release(r.job_id)
        return now, next_id
    job_id = rng.choice(live)
    booking = fast.get(job_id)
    if op < 0.75:
        fast.release(job_id)
        seed.release(job_id)
    elif op < 0.84:
        new_end = rng.uniform(max(booking.start, now), booking.end)
        if new_end <= booking.start:
            new_end = booking.start + 1.0
        fast.truncate(job_id, new_end)
        seed.truncate(job_id, new_end)
    elif op < 0.92:
        # Book the job's first node right after it, then extend the job
        # into that booking: two live bookings hold the node at once.
        node = booking.nodes[0]
        after = (booking.end, booking.end + rng.uniform(10.0, 200.0))
        if node in fast.free_nodes_set(*after):
            fast.reserve(next_id, [node], *after)
            seed.reserve(next_id, [node], *after)
            next_id += 1
        new_end = booking.end + rng.uniform(1.0, 120.0)
        fast.extend(job_id, new_end)
        seed.extend(job_id, new_end)
    else:
        # Release/restore with allow_overlap after extending a neighbour.
        other = rng.choice(live)
        if other != job_id:
            fast.extend(other, fast.get(other).end + 90.0)
            seed.extend(other, seed.get(other).end + 90.0)
        fast.release(job_id)
        seed.release(job_id)
        fast.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
        seed.reserve(
            job_id, booking.nodes, booking.start, booking.end, allow_overlap=True
        )
    return now, next_id


def test_wide_cluster_unheld_set_matches_seed_ledger():
    tally = {"queries": 0, "all_active": 0, "dropped": 0, "rebuilt": 0}
    for sequence in range(WIDE_SEQUENCES):
        rng = random.Random(10_000 + sequence)
        bounds = random.Random(-10_000 - sequence)
        fast = ReservationLedger(WIDE_NODES)
        seed = SeedReservationLedger(WIDE_NODES)
        now, next_id = 0.0, 1
        for _ in range(WIDE_OPS):
            now, next_id = _apply_wide_op(rng, fast, seed, now, next_id)
            dropped = fast._unheld is None
            tally["dropped"] += dropped
            _check_wide(rng, fast, seed, now, tally, bounds)
            tally["rebuilt"] += dropped and fast._unheld is not None
    # The stream must exercise the new answer and the drop/rebuild cycle.
    assert tally["all_active"] > tally["queries"] // 2
    assert tally["dropped"] > 0 and tally["rebuilt"] > 0


# ----------------------------------------------------------------------
# Negotiation dialogues against a deep queue
# ----------------------------------------------------------------------
DIALOGUE_SEED = 20050628


def build_deep_ledger(ledger_cls, nodes, bookings, seed):
    """A deep conservative-backfilling queue: ``bookings`` jobs packed by
    ``find_slot`` itself."""
    rng = random.Random(seed)
    ledger = ledger_cls(nodes)
    clock = 0.0
    for job_id in range(1, bookings + 1):
        size = rng.randint(1, max(1, nodes // 2))
        duration = rng.uniform(600.0, 6.0 * 3600.0)
        start, chosen = ledger.find_slot(size, duration, clock)
        ledger.reserve(job_id, chosen, start, start + duration)
        clock += rng.uniform(0.0, 120.0)
    return ledger


def run_dialogues(ledger, nodes, jobs, seed):
    """Negotiate and book ``jobs`` submissions back to back for a picky
    user: ``(outcomes, counters)``, the counters being the negotiator's
    and its evaluator's."""
    rng = random.Random(seed + 2)
    failures = generate_failure_trace(
        60.0 * 86400.0, spec=FailureModelSpec(nodes=nodes), seed=seed
    )
    predictor = TracePredictor(failures, accuracy=0.7, seed=seed)
    user = RiskThresholdUser(0.9)
    negotiator = Negotiator(ledger, FlatTopology(nodes), predictor, scorer=None)
    outcomes = []
    clock = 0.0
    for job_id in range(10_000, 10_000 + jobs):
        size = rng.randint(1, max(1, nodes // 2))
        duration = rng.uniform(1800.0, 8.0 * 3600.0)
        outcome = negotiator.negotiate(job_id, size, duration, clock, user)
        outcomes.append(
            (outcome.start, outcome.nodes, outcome.reserved_end, outcome.offers_made)
        )
        clock += rng.uniform(0.0, 60.0)
    return outcomes, {**negotiator.counters(), **negotiator.evaluator.counters()}


def test_dialogues_on_a_deep_queue_match_seed_ledger():
    # 32 nodes, 20 warm bookings, 8 dialogues: offers, prefilter, free-set
    # checks and bookings interleave the way the simulator drives them.
    outcomes = {}
    for cls in (ReservationLedger, SeedReservationLedger):
        ledger = build_deep_ledger(cls, 32, 20, DIALOGUE_SEED)
        outcomes[cls] = run_dialogues(ledger, 32, 8, DIALOGUE_SEED)[0]
        assert len(ledger.reservations()) == 28
    assert outcomes[ReservationLedger] == outcomes[SeedReservationLedger]
