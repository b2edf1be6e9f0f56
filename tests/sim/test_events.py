"""Unit tests for the event taxonomy and ordering keys."""

from __future__ import annotations

from repro.sim.events import Event, EventKind, TIE_BREAK_ORDER


class TestTieBreakOrder:
    def test_every_kind_has_a_priority(self):
        assert set(TIE_BREAK_ORDER) == set(EventKind)

    def test_priorities_are_distinct(self):
        values = list(TIE_BREAK_ORDER.values())
        assert len(set(values)) == len(values)

    def test_tie_attribute_ranks_the_kinds(self):
        # The event loop reads kind.tie and indexes its handlers by it.
        assert all(kind.tie == TIE_BREAK_ORDER[kind] for kind in EventKind)
        assert sorted(kind.tie for kind in EventKind) == list(range(len(EventKind)))

    def test_completions_precede_failures(self):
        # A job finishing at t must not be killed by a failure at t.
        assert TIE_BREAK_ORDER[EventKind.FINISH] < TIE_BREAK_ORDER[EventKind.FAILURE]
        assert (
            TIE_BREAK_ORDER[EventKind.CHECKPOINT_FINISH]
            < TIE_BREAK_ORDER[EventKind.FAILURE]
        )

    def test_recovery_precedes_start(self):
        # A start at the same instant as a recovery must see the node up.
        assert TIE_BREAK_ORDER[EventKind.RECOVERY] < TIE_BREAK_ORDER[EventKind.START]

    def test_failure_precedes_placement(self):
        # New work must never be placed on a node failing "as of" now.
        assert TIE_BREAK_ORDER[EventKind.FAILURE] < TIE_BREAK_ORDER[EventKind.ARRIVAL]
        assert TIE_BREAK_ORDER[EventKind.FAILURE] < TIE_BREAK_ORDER[EventKind.START]

    def test_wakeup_runs_last_among_semantic_kinds(self):
        # Only the passive OBS_SAMPLE snapshot runs after a wakeup; every
        # kind that mutates simulation state precedes it.
        semantic = [k for k in EventKind if k is not EventKind.OBS_SAMPLE]
        assert TIE_BREAK_ORDER[EventKind.WAKEUP] == max(
            TIE_BREAK_ORDER[k] for k in semantic
        )

    def test_obs_sample_observes_the_final_state(self):
        assert TIE_BREAK_ORDER[EventKind.OBS_SAMPLE] == max(
            TIE_BREAK_ORDER.values()
        )


class TestEvent:
    def test_sort_key_orders_by_time_first(self):
        early = Event(time=1.0, kind=EventKind.WAKEUP, seq=5)
        late = Event(time=2.0, kind=EventKind.FINISH, seq=0)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_orders_by_kind_at_equal_time(self):
        finish = Event(time=1.0, kind=EventKind.FINISH, seq=5)
        start = Event(time=1.0, kind=EventKind.START, seq=0)
        assert finish.sort_key() < start.sort_key()

    def test_sort_key_orders_by_seq_last(self):
        first = Event(time=1.0, kind=EventKind.WAKEUP, seq=0)
        second = Event(time=1.0, kind=EventKind.WAKEUP, seq=1)
        assert first.sort_key() < second.sort_key()

    def test_cancel_sets_flag(self):
        event = Event(time=1.0, kind=EventKind.WAKEUP)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    def test_payload_defaults_to_empty_dict(self):
        event = Event(time=1.0, kind=EventKind.WAKEUP)
        assert event.payload == {}
