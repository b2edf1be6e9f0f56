"""Unit and property tests for the per-run checkpoint state machine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing.runtime import JobRun, padded_remaining

I, C = 3600.0, 720.0


def make_run(total=10_000.0, saved=0.0, start=0.0):
    return JobRun(
        job_id=1,
        total_work=total,
        interval=I,
        overhead=C,
        saved_progress=saved,
        start_time=start,
    )


class TestScheduling:
    def test_first_event_is_request_for_long_jobs(self):
        kind, delay = make_run().next_event_delay()
        assert kind == "request"
        assert delay == I

    def test_first_event_is_finish_for_short_jobs(self):
        kind, delay = make_run(total=1800.0).next_event_delay()
        assert kind == "finish"
        assert delay == 1800.0

    def test_restart_resumes_at_interval_grid(self):
        run = make_run(total=20_000.0, saved=2 * I)
        kind, delay = run.next_event_delay()
        assert kind == "request"
        assert delay == I  # next request at progress 3I

    def test_no_request_coinciding_with_completion(self):
        run = make_run(total=2 * I)  # exactly two intervals
        run.reach_request(I)
        run.skip_checkpoint(I)
        kind, delay = run.next_event_delay()
        assert kind == "finish"
        assert delay == I

    def test_validation(self):
        with pytest.raises(ValueError):
            make_run(saved=10_000.0)  # saved == total
        with pytest.raises(ValueError):
            JobRun(1, 100.0, 0.0, C, 0.0, 0.0)


class TestProgressAccounting:
    def test_reach_request_advances_progress(self):
        run = make_run()
        run.reach_request(I)
        assert run.progress == I
        assert run.remaining_work == 10_000.0 - I

    def test_skip_keeps_unsaved_progress(self):
        run = make_run()
        run.reach_request(I)
        run.skip_checkpoint(I)
        assert run.saved_progress == 0.0
        assert run.skipped_since_checkpoint == 1
        assert run.checkpoints_skipped == 1

    def test_perform_makes_progress_durable(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        assert run.in_checkpoint
        run.complete_checkpoint(I + C)
        assert run.saved_progress == I
        assert run.last_checkpoint_start == I
        assert run.skipped_since_checkpoint == 0
        assert run.checkpoints_performed == 1

    def test_checkpoint_pause_contributes_no_progress(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        run.complete_checkpoint(I + C)
        run.reach_request(I + C + I)  # one more interval of execution
        assert run.progress == 2 * I

    def test_double_begin_rejected(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        with pytest.raises(RuntimeError):
            run.begin_checkpoint(I)

    def test_complete_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            make_run().complete_checkpoint(10.0)

    def test_finish_requires_all_work_done(self):
        run = make_run(total=1800.0)
        with pytest.raises(RuntimeError):
            run.finish(900.0)
        run2 = make_run(total=1800.0)
        run2.finish(1800.0)
        assert run2.progress == 1800.0


class TestKillAccounting:
    def test_kill_before_any_checkpoint_loses_whole_run(self):
        run = make_run(start=100.0)
        lost, durable = run.kill(2000.0)
        assert lost == 1900.0
        assert durable == 0.0

    def test_kill_after_checkpoint_loses_since_its_start(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        run.complete_checkpoint(I + C)
        lost, durable = run.kill(I + C + 500.0)
        # Rollback point is the checkpoint *start* (paper's c_{j_x}).
        assert lost == pytest.approx(C + 500.0)
        assert durable == I

    def test_kill_during_checkpoint_loses_inflight_work(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        lost, durable = run.kill(I + 300.0)
        assert durable == 0.0
        assert lost == pytest.approx(I + 300.0)

    def test_kill_respects_previous_run_progress(self):
        run = make_run(saved=2 * I, start=50_000.0)
        lost, durable = run.kill(50_000.0 + 100.0)
        assert durable == 2 * I  # earlier runs' checkpoints survive
        assert lost == pytest.approx(100.0)


class TestPlanSkips:
    def step(self, run):
        """Walk the requests one by one, skipping each: the request times
        and the finish time."""
        times = []
        while True:
            kind, delay = run.next_event_delay()
            now = run.segment_start + delay
            if kind == "finish":
                return times, now
            run.reach_request(now)
            run.skip_checkpoint(now)
            times.append(now)

    def test_clear_run_plans_every_request_and_the_finish(self):
        run = make_run(total=5.5 * I)
        kind, at = run.plan_skips(I, float("inf"))
        assert (kind, run.planned_skips) == ("finish", 5)
        # The plan does not advance the run.
        assert (run.progress, run.segment_start) == (0.0, 0.0)
        times, finish = self.step(make_run(total=5.5 * I))
        assert at == finish and len(times) == 5

    def test_plan_stops_at_the_first_window_reaching_the_failure(self):
        # Windows span C + I + C = 5040 s: the request at 3I = 10800 s
        # ends at 15840, past a failure at 15000; the one at 2I does not.
        run = make_run(total=10 * I)
        assert run.plan_skips(I, 15_000.0) == ("request", 3 * I)
        assert run.planned_skips == 2

    def test_half_open_window_ends_exactly_at_the_failure(self):
        run = make_run(total=10 * I)
        assert run.plan_skips(I, 3 * I + C + I + C) == ("request", 4 * I)
        assert run.planned_skips == 3

    def test_window_shrinks_with_the_remaining_work(self):
        # At 4I of 4.5I the window is C + 0.5I + C.
        run = make_run(total=4.5 * I)
        assert run.plan_skips(I, 4 * I + 2 * C + 0.5 * I) == ("finish", 4.5 * I)
        run = make_run(total=4.5 * I)
        assert run.plan_skips(I, 4 * I + 2 * C + 0.5 * I - 1.0) == ("request", 4 * I)

    @given(
        total=st.floats(min_value=I + 1.0, max_value=50_000.0),
        start=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_times_are_the_stepped_times(self, total, start):
        """The walk repeats the transitions' float steps exactly."""
        run = make_run(total=total, start=start)
        kind, delay = run.next_event_delay()
        assert kind == "request"
        kind, at = run.plan_skips(start + delay, float("inf"))
        times, finish = self.step(make_run(total=total, start=start))
        assert kind == "finish"
        assert at == finish
        assert run.planned_skips == len(times)


class TestPaddedRemaining:
    def test_short_remainder_has_no_checkpoints(self):
        assert padded_remaining(1800.0, I, C) == 1800.0

    def test_exact_interval_multiple(self):
        assert padded_remaining(2 * I, I, C) == 2 * I + C

    def test_invalid_remaining(self):
        with pytest.raises(ValueError):
            padded_remaining(0.0, I, C)

    @given(
        remaining=st.floats(min_value=1.0, max_value=5e5),
    )
    @settings(max_examples=50)
    def test_padded_at_least_remaining(self, remaining):
        padded = padded_remaining(remaining, I, C)
        assert padded >= remaining
        assert padded <= remaining + C * (remaining / I + 1)


class TestLifecycleProperty:
    @given(
        total=st.floats(min_value=100.0, max_value=50_000.0),
        decisions=st.lists(st.booleans(), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_run_conserves_work(self, total, decisions):
        """Walk a run to completion under arbitrary perform/skip decisions;
        wall time must equal work plus performed-checkpoint overheads."""
        run = JobRun(1, total, I, C, 0.0, 0.0)
        now = 0.0
        performed = 0
        decision_iter = iter(decisions)
        while True:
            kind, delay = run.next_event_delay()
            now += delay
            if kind == "finish":
                run.finish(now)
                break
            run.reach_request(now)
            if next(decision_iter, False):
                run.begin_checkpoint(now)
                now += C
                run.complete_checkpoint(now)
                performed += 1
            else:
                run.skip_checkpoint(now)
        assert now == pytest.approx(total + performed * C)
        assert run.progress == pytest.approx(total)
        assert run.checkpoints_performed == performed
