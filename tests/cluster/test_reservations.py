"""Unit and property tests for the reservation ledger and capacity profile."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.reservations import CapacityProfile, Reservation, ReservationLedger
from tests.cluster.test_profile_equivalence import oracle_max_usage


@pytest.fixture
def ledger():
    return ReservationLedger(8)


class TestReserve:
    def test_basic_booking(self, ledger):
        reservation = ledger.reserve(1, [0, 1, 2], 10.0, 20.0)
        assert reservation.nodes == (0, 1, 2)
        assert 1 in ledger
        assert len(ledger) == 1

    def test_overlap_rejected(self, ledger):
        ledger.reserve(1, [0, 1], 10.0, 20.0)
        with pytest.raises(ValueError, match="not free"):
            ledger.reserve(2, [1, 2], 15.0, 25.0)

    def test_adjacent_windows_allowed(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reserve(2, [0], 20.0, 30.0)  # half-open: no conflict
        assert len(ledger) == 2

    def test_disjoint_nodes_same_window_allowed(self, ledger):
        ledger.reserve(1, [0, 1], 10.0, 20.0)
        ledger.reserve(2, [2, 3], 10.0, 20.0)
        assert len(ledger) == 2

    def test_duplicate_job_rejected(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        with pytest.raises(ValueError, match="already"):
            ledger.reserve(1, [1], 30.0, 40.0)

    def test_empty_nodes_rejected(self, ledger):
        with pytest.raises(ValueError, match="empty"):
            ledger.reserve(1, [], 10.0, 20.0)

    def test_degenerate_window_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.reserve(1, [0], 20.0, 20.0)

    def test_out_of_range_node_rejected(self, ledger):
        with pytest.raises(ValueError, match="out of range"):
            ledger.reserve(1, [8], 10.0, 20.0)

    def test_allow_overlap_bypasses_check(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reserve(2, [0], 15.0, 25.0, allow_overlap=True)
        assert len(ledger) == 2


class TestReleaseAndResize:
    def test_release_frees_window(self, ledger):
        ledger.reserve(1, [0, 1], 10.0, 20.0)
        ledger.release(1)
        assert 1 not in ledger
        ledger.reserve(2, [0, 1], 10.0, 20.0)

    def test_release_unknown_raises(self, ledger):
        with pytest.raises(KeyError):
            ledger.release(99)

    def test_truncate_frees_tail(self, ledger):
        ledger.reserve(1, [0], 10.0, 100.0)
        ledger.truncate(1, 50.0)
        ledger.reserve(2, [0], 50.0, 80.0)
        assert ledger.get(1).end == 50.0

    def test_truncate_never_grows(self, ledger):
        ledger.reserve(1, [0], 10.0, 100.0)
        result = ledger.truncate(1, 200.0)
        assert result.end == 100.0

    def test_truncate_below_start_rejected(self, ledger):
        ledger.reserve(1, [0], 10.0, 100.0)
        with pytest.raises(ValueError):
            ledger.truncate(1, 5.0)

    def test_extend_grows_booking(self, ledger):
        ledger.reserve(1, [0], 10.0, 100.0)
        ledger.extend(1, 150.0)
        assert ledger.get(1).end == 150.0
        assert not ledger.node_free(0, 120.0, 140.0)

    def test_extend_never_shrinks(self, ledger):
        ledger.reserve(1, [0], 10.0, 100.0)
        assert ledger.extend(1, 50.0).end == 100.0


class TestQueries:
    def test_node_free_semantics(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        assert ledger.node_free(0, 0.0, 10.0)  # half-open before
        assert ledger.node_free(0, 20.0, 30.0)  # half-open after
        assert not ledger.node_free(0, 15.0, 16.0)
        assert not ledger.node_free(0, 5.0, 25.0)

    def test_free_nodes(self, ledger):
        ledger.reserve(1, [0, 1], 10.0, 20.0)
        assert ledger.free_nodes(10.0, 20.0) == [2, 3, 4, 5, 6, 7]
        assert ledger.free_nodes(30.0, 40.0) == list(range(8))

    def test_candidate_times_contains_earliest_and_ends(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reserve(2, [1], 15.0, 30.0)
        assert ledger.candidate_times(12.0) == [12.0, 20.0, 30.0]

    def test_candidate_times_dedupes(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reserve(2, [1], 10.0, 20.0)
        assert ledger.candidate_times(0.0) == [0.0, 20.0]

    def test_reservations_sorted_by_start(self, ledger):
        ledger.reserve(1, [0], 50.0, 60.0)
        ledger.reserve(2, [1], 10.0, 20.0)
        assert [r.job_id for r in ledger.reservations()] == [2, 1]


class TestFindSlot:
    def test_empty_ledger_starts_immediately(self, ledger):
        start, nodes = ledger.find_slot(3, 100.0, earliest=5.0)
        assert start == 5.0
        assert nodes == [0, 1, 2]

    def test_waits_for_capacity(self, ledger):
        # Block 6 of 8 nodes until t=100; a 4-node job must wait.
        ledger.reserve(1, [0, 1, 2, 3, 4, 5], 0.0, 100.0)
        start, nodes = ledger.find_slot(4, 50.0, earliest=0.0)
        assert start == 100.0
        assert len(nodes) == 4

    def test_fits_into_hole(self, ledger):
        ledger.reserve(1, list(range(8)), 100.0, 200.0)
        start, nodes = ledger.find_slot(8, 50.0, earliest=0.0)
        assert start == 0.0  # the hole before the big booking

    def test_oversized_request_rejected(self, ledger):
        with pytest.raises(ValueError, match="on a 8-node"):
            ledger.find_slot(9, 10.0, earliest=0.0)

    def test_invalid_duration_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.find_slot(1, 0.0, earliest=0.0)


class TestCapacityProfile:
    def test_empty_profile(self):
        profile = CapacityProfile([])
        assert profile.max_usage(0.0, 100.0) == 0
        assert profile.window_fits(0.0, 100.0, free_needed=8, total=8)

    def test_single_reservation(self):
        profile = CapacityProfile([Reservation(1, (0, 1, 2), 10.0, 20.0)])
        assert profile.max_usage(0.0, 10.0) == 0
        assert profile.max_usage(10.0, 20.0) == 3
        assert profile.max_usage(5.0, 15.0) == 3
        assert profile.max_usage(20.0, 30.0) == 0

    def test_overlapping_reservations_sum(self):
        profile = CapacityProfile(
            [
                Reservation(1, (0, 1), 0.0, 100.0),
                Reservation(2, (2, 3, 4), 50.0, 150.0),
            ]
        )
        assert profile.max_usage(0.0, 50.0) == 2
        assert profile.max_usage(60.0, 90.0) == 5
        assert profile.max_usage(0.0, 200.0) == 5
        assert profile.max_usage(100.0, 200.0) == 3

    def test_window_fits_is_conservative_only_one_way(self):
        # Two staggered 1-node bookings: capacity says 1 node max used,
        # but no node is free for the whole window.
        profile = CapacityProfile(
            [
                Reservation(1, (0,), 0.0, 50.0),
                Reservation(2, (1,), 50.0, 100.0),
            ]
        )
        # Prefilter optimistically passes...
        assert profile.window_fits(0.0, 100.0, free_needed=1, total=2)
        # ...but a definite "does not fit" is always truthful.
        assert not profile.window_fits(0.0, 100.0, free_needed=2, total=2)

    @settings(max_examples=60, deadline=None)
    @given(
        bookings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),  # first node
                st.integers(min_value=1, max_value=4),  # width
                st.floats(min_value=0.0, max_value=900.0),  # start
                st.floats(min_value=1.0, max_value=400.0),  # duration
            ),
            max_size=12,
        ),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=1200.0),
            st.floats(min_value=1.0, max_value=400.0),
        ),
    )
    def test_max_usage_matches_brute_force(self, bookings, window):
        reservations = []
        for i, (first, width, start, duration) in enumerate(bookings):
            nodes = tuple(range(first, min(first + width, 8)))
            reservations.append(Reservation(i, nodes, start, start + duration))
        profile = CapacityProfile(reservations)
        w_start, w_len = window
        w_end = w_start + w_len
        assert profile.max_usage(w_start, w_end) == oracle_max_usage(
            reservations, w_start, w_end
        )

    def test_blocked_until_blocks_every_window_for_a_too_wide_job(self):
        profile = CapacityProfile([Reservation(1, (0,), 10.0, 20.0)])
        assert profile.blocked_until(0.0, 5.0, -1) == math.inf
        assert profile.blocked_until(30.0, 40.0, -1) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        bookings=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),  # width
                st.floats(min_value=0.0, max_value=900.0),  # start
                st.floats(min_value=1.0, max_value=400.0),  # duration
            ),
            max_size=12,
        ),
        window=st.tuples(
            st.floats(min_value=0.0, max_value=1200.0),
            st.floats(min_value=1.0, max_value=400.0),
        ),
        most_busy=st.integers(min_value=0, max_value=8),
        later=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_blocked_until_skips_only_windows_that_cannot_fit(
        self, bookings, window, most_busy, later
    ):
        reservations = [
            Reservation(i, tuple(range(width)), start, start + duration)
            for i, (width, start, duration) in enumerate(bookings)
        ]
        profile = CapacityProfile(reservations)
        w_start, w_len = window
        blocked = profile.blocked_until(w_start, w_start + w_len, most_busy)
        over = oracle_max_usage(reservations, w_start, w_start + w_len) > most_busy
        assert (blocked > w_start) == over
        if over:
            # A same-length window starting anywhere before `blocked`
            # still meets the over-full segment.
            shifted = w_start + later * (blocked - w_start)
            if shifted < blocked:
                assert oracle_max_usage(
                    reservations, shifted, shifted + w_len
                ) > most_busy


class TestLedgerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # size
                st.floats(min_value=1.0, max_value=300.0),  # duration
                st.floats(min_value=0.0, max_value=500.0),  # earliest
            ),
            max_size=15,
        )
    )
    def test_find_slot_bookings_never_conflict(self, requests):
        ledger = ReservationLedger(8)
        for job_id, (size, duration, earliest) in enumerate(requests):
            start, nodes = ledger.find_slot(size, duration, earliest)
            assert start >= earliest
            assert len(nodes) == size
            # The returned window must genuinely be free before booking.
            for node in nodes:
                assert ledger.node_free(node, start, start + duration)
            ledger.reserve(job_id, nodes, start, start + duration)

    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.floats(min_value=1.0, max_value=300.0),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_find_slot_earliest_is_canonical(self, requests):
        """No feasible start exists strictly before the one returned, among
        the candidate boundary times."""
        ledger = ReservationLedger(8)
        for job_id, (size, duration) in enumerate(requests[:-1]):
            start, nodes = ledger.find_slot(size, duration, 0.0)
            ledger.reserve(job_id, nodes, start, start + duration)
        size, duration = requests[-1]
        start, _ = ledger.find_slot(size, duration, 0.0)
        for candidate in ledger.candidate_times(0.0):
            if candidate >= start:
                break
            free = ledger.free_nodes(candidate, candidate + duration)
            assert len(free) < size


class TestIncrementalCaches:
    """The ledger's cached views stay exact across the whole mutation API."""

    def test_reservations_returns_independent_copy(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        view = ledger.reservations()
        view.clear()
        assert [r.job_id for r in ledger.reservations()] == [1]

    def test_reservations_cached_between_mutations(self, ledger):
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reservations()
        assert ledger._sorted_version == ledger._version
        ledger.truncate(1, 15.0)
        assert ledger._sorted_version != ledger._version  # view is stale
        assert ledger.reservations()[0].end == 15.0

    def test_profile_tracks_every_mutation_kind(self, ledger):
        windows = [(0.0, 100.0), (10.0, 20.0), (15.0, 20.0), (25.0, 30.0), (12.0, 40.0)]

        def check():
            for start, end in windows:
                assert ledger.profile().max_usage(start, end) == oracle_max_usage(
                    ledger.reservations(), start, end
                )

        ledger.reserve(1, [0, 1, 2], 10.0, 20.0)
        ledger.reserve(2, [3], 12.0, 18.0)
        check()
        assert ledger.profile().max_usage(10.0, 20.0) == 4
        ledger.truncate(1, 15.0)
        check()
        assert ledger.profile().max_usage(18.0, 20.0) == 0
        ledger.extend(1, 30.0)
        check()
        assert ledger.profile().max_usage(25.0, 30.0) == 3
        ledger.release(2)
        ledger.release(1)
        check()
        assert ledger.profile().max_usage(0.0, 100.0) == 0

    def test_profile_counts_sanctioned_overlaps_twice(self, ledger):
        # An allow_overlap restore and its extended neighbour both book the
        # node; the aggregate skyline counts both, exactly like a
        # from-scratch rebuild over the same reservation list.
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.extend(1, 40.0)
        ledger.reserve(2, [0], 30.0, 50.0, allow_overlap=True)
        assert ledger.profile().max_usage(30.0, 40.0) == 2
        rebuilt = CapacityProfile(ledger.reservations())
        assert rebuilt.max_usage(30.0, 40.0) == 2

    def test_node_free_after_extend_unsorted_ends(self, ledger):
        # Job 1 extends past job 2's start: per-node ends become unsorted
        # and the prefix-max path must still see the overlap.
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger.reserve(2, [0], 20.0, 30.0)
        ledger.extend(1, 25.0)
        assert not ledger.node_free(0, 12.0, 15.0)
        assert not ledger.node_free(0, 27.0, 29.0)
        assert ledger.node_free(0, 30.0, 40.0)

    def test_free_nodes_past_horizon_fast_path(self, ledger):
        ledger.reserve(1, list(range(8)), 0.0, 100.0)
        assert ledger.free_nodes(100.0, 200.0) == list(range(8))
        assert ledger.free_nodes(500.0, 600.0) == list(range(8))

    def test_find_entry_with_shared_start_times(self, ledger):
        # Two jobs on the same node with the same start (allow_overlap
        # restore): release must remove exactly the right interval.
        ledger.reserve(1, [0], 10.0, 20.0)
        ledger.reserve(2, [0], 10.0, 30.0, allow_overlap=True)
        ledger.release(1)
        assert 2 in ledger and 1 not in ledger
        assert not ledger.node_free(0, 25.0, 28.0)
        ledger.release(2)
        assert ledger.free_nodes(0.0, 100.0) == list(range(8))

    def test_reserve_after_early_out_query_does_not_sweep(self, ledger, monkeypatch):
        # [20, 30) lies in a gap of the skyline: free_nodes_set answers it
        # without a sweep, and reserve's overlap check reuses that answer.
        ledger.reserve(1, [0, 1], 0.0, 10.0)
        ledger.reserve(2, [2], 40.0, 50.0)
        sweeps = []
        real_sweep = ledger._free_sweep

        def counting_sweep(start, end):
            sweeps.append((start, end))
            return real_sweep(start, end)

        monkeypatch.setattr(ledger, "_free_sweep", counting_sweep)
        free = ledger.free_nodes_set(20.0, 30.0)
        assert free == list(range(8))
        ledger.reserve(3, free[:4], 20.0, 30.0)
        assert sweeps == []
        # A real clash still raises the same error (the mutation bumped
        # the version, so this check sweeps afresh).
        with pytest.raises(ValueError, match="node 3 not free"):
            ledger.reserve(4, [3, 4], 25.0, 35.0)
        assert sweeps == [(25.0, 35.0)]


class TestUnheldSet:
    """When every live booking is active at one instant of the window, the
    free set is the nodes no booking holds, which the ledger keeps as runs
    updated by each mutation instead of sweeping the bookings."""

    def test_all_active_stream_sweeps_only_to_rebuild(self, monkeypatch):
        ledger = ReservationLedger(64)
        # A node held twice makes the release inexact: the set is dropped.
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger.reserve(2, [0], 10.0, 20.0)
        ledger.release(1)
        assert ledger._unheld is None
        ledger.release(2)
        sweeps = []
        real_sweep = ledger._free_sweep

        def counting_sweep(start, end):
            sweeps.append((start, end))
            return real_sweep(start, end)

        monkeypatch.setattr(ledger, "_free_sweep", counting_sweep)
        now = 100.0
        for job_id in range(10, 60):
            if job_id >= 14:
                ledger.release(job_id - 4)
            start, nodes = ledger.find_slot(job_id % 7 + 1, 50.0, now)
            assert start == now
            ledger.reserve(job_id, nodes, start, start + 50.0)
            held = {n for r in ledger.reservations() for n in r.nodes}
            for duration in (20.0, 30.0):
                free = ledger.free_nodes_set(now, now + duration)
                assert free == sorted(set(range(64)) - held)
            now += 5.0
        assert sweeps == [(-math.inf, math.inf)]

    def test_double_held_node_stays_busy_after_one_release(self, ledger):
        ledger.reserve(1, [0, 1], 0.0, 10.0)
        ledger.reserve(2, [0], 10.0, 20.0)
        ledger.extend(1, 15.0)  # node 0 is held by both jobs
        ledger.release(1)
        # Job 2 still holds node 0; every live booking is active in the
        # window, and the answer must not free the node.
        assert ledger.profile().max_usage(10.0, 20.0) == ledger.profile().booked
        assert ledger.free_nodes_set(10.0, 20.0) == list(range(1, 8))

    def test_booking_ahead_across_a_held_node(self, ledger):
        ledger.reserve(1, [1], 0.0, 10.0)
        ledger.reserve(2, [4, 6], 0.0, 10.0)
        assert ledger._unheld == [(0, 1), (2, 4), (5, 6), (7, 8)]
        # Nodes 0-6 are free over [20, 30) though 1, 4 and 6 are held
        # earlier: the booking spans several unheld runs.
        ledger.reserve(3, range(7), 20.0, 30.0)
        assert (ledger._unheld, ledger._unheld_size) == ([(7, 8)], 1)

    def test_truncate_and_extend_leave_the_set_alone(self, ledger):
        ledger.reserve(1, [0, 1, 2], 0.0, 10.0)
        ledger.reserve(2, [5], 0.0, 30.0)
        kept = (list(ledger._unheld), ledger._unheld_size)
        assert kept == ([(3, 5), (6, 8)], 4)
        ledger.truncate(1, 5.0)
        assert (ledger._unheld, ledger._unheld_size) == kept
        ledger.extend(1, 40.0)
        assert (ledger._unheld, ledger._unheld_size) == kept

    def test_rejected_reserve_leaves_the_set_alone(self, ledger):
        ledger.reserve(1, [0, 1, 2], 0.0, 10.0)
        kept = (list(ledger._unheld), ledger._unheld_size)
        with pytest.raises(ValueError, match="node 2 not free"):
            ledger.reserve(2, [2, 3, 4], 5.0, 15.0)
        with pytest.raises(ValueError, match="out of range"):
            ledger.reserve(3, [6, 7, 8], 20.0, 30.0)
        assert (ledger._unheld, ledger._unheld_size) == kept
        assert ledger.free_nodes_set(0.0, 10.0) == list(range(3, 8))


class TestTimeMultisets:
    """The sorted start and end time multisets lose exactly the removed
    booking's times; a time missing from them means the bookkeeping is
    corrupt, and removing it raises instead of passing silently."""

    def test_release_and_resize_keep_both_multisets(self, ledger):
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger.reserve(2, [1], 0.0, 10.0)
        ledger.reserve(3, [2], 5.0, 20.0)
        ledger.truncate(3, 15.0)
        ledger.release(1)
        assert (ledger._start_times, ledger._end_times) == ([0.0, 5.0], [10.0, 15.0])

    def test_release_with_a_missing_end_time_raises(self, ledger):
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger._end_times.remove(10.0)
        with pytest.raises(RuntimeError, match="bookkeeping corrupt"):
            ledger.release(1)

    def test_release_with_a_missing_start_time_raises(self, ledger):
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger._start_times.remove(0.0)
        with pytest.raises(RuntimeError, match="bookkeeping corrupt"):
            ledger.release(1)

    def test_resize_with_a_missing_end_time_raises(self, ledger):
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger.reserve(2, [1], 0.0, 12.0)
        ledger._end_times.remove(10.0)
        with pytest.raises(RuntimeError, match="bookkeeping corrupt"):
            ledger.extend(1, 20.0)
