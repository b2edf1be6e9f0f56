"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventLoop, SimulationError
from repro.sim.events import EventKind


def make_loop_with_log():
    loop = EventLoop()
    log = []
    for kind in EventKind:
        loop.register(kind, lambda ev: log.append((ev.time, ev.kind, ev.payload)))
    return loop, log


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop, log = make_loop_with_log()
        loop.schedule(5.0, EventKind.WAKEUP)
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(3.0, EventKind.WAKEUP)
        loop.run()
        assert [t for t, _, _ in log] == [1.0, 3.0, 5.0]

    def test_now_advances_to_event_time(self):
        loop, _ = make_loop_with_log()
        loop.schedule(42.0, EventKind.WAKEUP)
        loop.run()
        assert loop.now == 42.0

    def test_schedule_in_uses_relative_delay(self):
        loop, log = make_loop_with_log()
        loop.schedule(10.0, EventKind.WAKEUP)
        loop.register(
            EventKind.WAKEUP,
            lambda ev: loop.schedule_in(5.0, EventKind.RECOVERY, node=1)
            if ev.kind is EventKind.WAKEUP
            else None,
        )
        loop.register(EventKind.RECOVERY, lambda ev: log.append(ev.time))
        loop.run()
        assert log == [15.0]

    def test_scheduling_in_the_past_raises(self):
        loop, _ = make_loop_with_log()
        loop.schedule(10.0, EventKind.WAKEUP)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule(5.0, EventKind.WAKEUP)

    def test_negative_delay_raises(self):
        loop, _ = make_loop_with_log()
        with pytest.raises(SimulationError):
            loop.schedule_in(-1.0, EventKind.WAKEUP)

    def test_payload_is_delivered(self):
        loop, log = make_loop_with_log()
        loop.schedule(1.0, EventKind.FAILURE, node=7, event_id=3)
        loop.run()
        assert log[0][2] == {"node": 7, "event_id": 3}


class TestTieBreaking:
    def test_same_time_orders_by_kind_priority(self):
        loop, log = make_loop_with_log()
        # Scheduled in "wrong" order on purpose.
        loop.schedule(1.0, EventKind.START)
        loop.schedule(1.0, EventKind.FAILURE)
        loop.schedule(1.0, EventKind.FINISH)
        loop.schedule(1.0, EventKind.RECOVERY)
        loop.run()
        kinds = [k for _, k, _ in log]
        assert kinds == [
            EventKind.FINISH,
            EventKind.RECOVERY,
            EventKind.FAILURE,
            EventKind.START,
        ]

    def test_same_time_same_kind_is_fifo(self):
        loop, log = make_loop_with_log()
        for marker in range(5):
            loop.schedule(1.0, EventKind.WAKEUP, marker=marker)
        loop.run()
        assert [p["marker"] for _, _, p in log] == [0, 1, 2, 3, 4]

    def test_same_time_tie_breaks_follow_kind_then_insertion_order(self):
        loop, log = make_loop_with_log()
        loop.schedule(10.0, EventKind.ARRIVAL, n=0)
        loop.schedule(10.0, EventKind.FINISH, n=1)
        loop.schedule(10.0, EventKind.FINISH, n=2)
        loop.schedule(10.0, EventKind.FAILURE, n=3)
        loop.run()
        # FINISH (tie-break 1) before FAILURE (3) before ARRIVAL (4);
        # equal kinds by insertion order.
        assert [p["n"] for _, _, p in log] == [1, 2, 3, 0]


class TestCancellation:
    def test_cancelled_event_is_not_dispatched(self):
        loop, log = make_loop_with_log()
        event = loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.RECOVERY, node=0)
        event.cancel()
        loop.run()
        assert [k for _, k, _ in log] == [EventKind.RECOVERY]

    def test_cancel_during_handler(self):
        loop = EventLoop()
        log = []
        later = {}

        def on_first(ev):
            later["event"].cancel()

        loop.register(EventKind.WAKEUP, on_first)
        loop.register(EventKind.RECOVERY, lambda ev: log.append(ev.time))
        loop.schedule(1.0, EventKind.WAKEUP)
        later["event"] = loop.schedule(2.0, EventKind.RECOVERY, node=0)
        loop.run()
        assert log == []

    def test_cancelled_head_is_skipped_by_peek_and_pop(self):
        loop, _ = make_loop_with_log()
        first = loop.schedule(1.0, EventKind.WAKEUP)
        second = loop.schedule(2.0, EventKind.WAKEUP)
        assert loop.peek_time() == 1.0
        first.cancel()
        assert loop.peek_time() == 2.0
        assert loop.step() is second
        assert loop.peek_time() is None
        assert loop.step() is None

    def test_cancelled_events_do_not_count_as_pending(self):
        loop, _ = make_loop_with_log()
        event = loop.schedule(1.0, EventKind.WAKEUP)
        assert loop.pending_events == 1
        event.cancel()
        assert loop.pending_events == 0


class TestRunControl:
    def test_run_until_stops_the_clock_at_the_horizon(self):
        loop, log = make_loop_with_log()
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(10.0, EventKind.WAKEUP)
        dispatched = loop.run(until=5.0)
        assert dispatched == 1
        assert loop.now == 5.0
        assert loop.pending_events == 1

    def test_run_resumes_after_until(self):
        loop, log = make_loop_with_log()
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(10.0, EventKind.WAKEUP)
        loop.run(until=5.0)
        loop.run()
        assert len(log) == 2

    def test_max_events_bounds_dispatch(self):
        loop, log = make_loop_with_log()
        for t in range(10):
            loop.schedule(float(t), EventKind.WAKEUP)
        assert loop.run(max_events=3) == 3
        assert len(log) == 3

    def test_stop_requests_halt(self):
        loop = EventLoop()
        seen = []

        def handler(ev):
            seen.append(ev.time)
            loop.stop()

        loop.register(EventKind.WAKEUP, handler)
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        loop.run()
        assert seen == [1.0]

    def test_missing_handler_raises(self):
        loop = EventLoop()
        loop.schedule(1.0, EventKind.WAKEUP)
        with pytest.raises(SimulationError, match="no handler"):
            loop.run()

    def test_reentrant_run_raises(self):
        loop = EventLoop()

        def handler(ev):
            loop.run()

        loop.register(EventKind.WAKEUP, handler)
        loop.schedule(1.0, EventKind.WAKEUP)
        with pytest.raises(SimulationError, match="reentrant"):
            loop.run()

    def test_processed_events_counter(self):
        loop, _ = make_loop_with_log()
        for t in range(4):
            loop.schedule(float(t), EventKind.WAKEUP)
        loop.run()
        assert loop.processed_events == 4

    def test_handlers_can_chain_events(self):
        loop = EventLoop()
        seen = []

        def handler(ev):
            seen.append(ev.time)
            if ev.time < 3.0:
                loop.schedule_in(1.0, EventKind.WAKEUP)

        loop.register(EventKind.WAKEUP, handler)
        loop.schedule(0.0, EventKind.WAKEUP)
        loop.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]


class TestDeterminism:
    def test_identical_schedules_produce_identical_histories(self):
        histories = []
        for _ in range(2):
            loop, log = make_loop_with_log()
            loop.schedule(2.0, EventKind.FAILURE, node=1)
            loop.schedule(2.0, EventKind.FINISH, job_id=9)
            loop.schedule(1.0, EventKind.ARRIVAL, job_id=3)
            loop.run()
            histories.append([(t, k.value, tuple(sorted(p))) for t, k, p in log])
        assert histories[0] == histories[1]


class TestQueueIntrospectionFastPaths:
    """peek_time / pending_events are O(1)-amortized; verify exactness."""

    def test_peek_time_skips_cancelled_head(self):
        loop, _ = make_loop_with_log()
        first = loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        first.cancel()
        assert loop.peek_time() == 2.0

    def test_peek_time_compacts_cancelled_events(self):
        loop, _ = make_loop_with_log()
        events = [loop.schedule(float(t), EventKind.WAKEUP) for t in range(5)]
        for event in events[:4]:
            event.cancel()
        assert loop.peek_time() == 4.0
        # The cancelled prefix was physically removed from the heap.
        assert len(loop._heap) == 1

    def test_peek_time_does_not_advance_clock_or_dispatch(self):
        loop, log = make_loop_with_log()
        loop.schedule(7.0, EventKind.WAKEUP)
        assert loop.peek_time() == 7.0
        assert loop.now == 0.0
        assert log == []

    def test_pending_events_tracks_schedule_cancel_dispatch(self):
        loop, _ = make_loop_with_log()
        events = [loop.schedule(float(t), EventKind.WAKEUP) for t in range(1, 4)]
        assert loop.pending_events == 3
        events[1].cancel()
        assert loop.pending_events == 2
        loop.step()
        assert loop.pending_events == 1
        loop.run()
        assert loop.pending_events == 0

    def test_double_cancel_decrements_once(self):
        loop, _ = make_loop_with_log()
        event = loop.schedule(1.0, EventKind.WAKEUP)
        event.cancel()
        event.cancel()
        assert loop.pending_events == 0

    def test_cancel_after_dispatch_is_harmless(self):
        loop, _ = make_loop_with_log()
        event = loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        loop.step()
        event.cancel()  # already dispatched; count must not go stale
        assert loop.pending_events == 1

    def test_run_after_peek_dispatches_everything(self):
        loop, log = make_loop_with_log()
        doomed = loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        doomed.cancel()
        assert loop.peek_time() == 2.0
        assert loop.run() == 1
        assert [t for t, _, _ in log] == [2.0]


class TestDispatchCounts:
    def test_counting_is_off_by_default(self):
        loop, _ = make_loop_with_log()
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.run()
        assert loop.dispatch_counts() == {}

    def test_counts_tally_per_kind_when_enabled(self):
        loop, _ = make_loop_with_log()
        loop.enable_dispatch_counts()
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        loop.schedule(3.0, EventKind.RECOVERY, node=1)
        loop.run()
        assert loop.dispatch_counts() == {"wakeup": 2, "recovery": 1}

    def test_cancelled_events_are_not_counted(self):
        loop, _ = make_loop_with_log()
        loop.enable_dispatch_counts()
        doomed = loop.schedule(1.0, EventKind.WAKEUP)
        loop.schedule(2.0, EventKind.WAKEUP)
        doomed.cancel()
        loop.run()
        assert loop.dispatch_counts() == {"wakeup": 1}

    def test_counts_returns_a_copy(self):
        loop, _ = make_loop_with_log()
        loop.enable_dispatch_counts()
        loop.schedule(1.0, EventKind.WAKEUP)
        loop.run()
        counts = loop.dispatch_counts()
        counts["wakeup"] = 99
        assert loop.dispatch_counts() == {"wakeup": 1}
