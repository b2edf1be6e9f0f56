"""Unit and property tests for the checkpointing run state machine on a
job's record (:class:`~repro.core.metrics.JobOutcome`) and the run
arithmetic in :mod:`repro.checkpointing.runtime`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing.runtime import padded_remaining
from repro.core.metrics import JobOutcome
from repro.core.system import SystemConfig
from repro.workload.job import Job

I, C = 3600.0, 720.0


def make_run(total=10_000.0, saved=0.0, start=0.0, size=1):
    """A job's record with a run started at ``start`` from ``saved``."""
    run = JobOutcome(Job(job_id=1, arrival_time=0.0, size=size, runtime=total))
    run.saved_progress = saved
    run.start(start, recovery_time=0.0)
    return run


class TestScheduling:
    def test_first_event_is_request_for_long_jobs(self):
        kind, delay = make_run().next_event_delay(I)
        assert kind == "request"
        assert delay == I

    def test_first_event_is_finish_for_short_jobs(self):
        kind, delay = make_run(total=1800.0).next_event_delay(I)
        assert kind == "finish"
        assert delay == 1800.0

    def test_restart_resumes_at_interval_grid(self):
        run = make_run(total=20_000.0, saved=2 * I)
        kind, delay = run.next_event_delay(I)
        assert kind == "request"
        assert delay == I  # next request at progress 3I

    def test_no_request_coinciding_with_completion(self):
        run = make_run(total=2 * I)  # exactly two intervals
        run.reach_request(I)
        run.skip_checkpoint(I)
        kind, delay = run.next_event_delay(I)
        assert kind == "finish"
        assert delay == I

    def test_validation(self):
        with pytest.raises(ValueError):
            make_run(saved=10_000.0)  # saved == total
        with pytest.raises(ValueError):
            make_run(saved=-1.0)
        # Interval and overhead are checked once, on the configuration.
        with pytest.raises(ValueError):
            SystemConfig(checkpoint_interval=0.0)
        with pytest.raises(ValueError):
            SystemConfig(checkpoint_overhead=-1.0)


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
        assert run.checkpoint_begun_at == I
        run.complete_checkpoint(I + C, C)
        assert run.saved_progress == I
        assert run.last_checkpoint_start == I
        assert run.skipped_since_checkpoint == 0
        assert run.checkpoints_performed == 1
        assert run.checkpoint_overhead == C

    def test_checkpoint_pause_contributes_no_progress(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        run.complete_checkpoint(I + C, C)
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
            make_run().complete_checkpoint(10.0, C)

    def test_finish_requires_all_work_done(self):
        run = make_run(total=1800.0)
        with pytest.raises(RuntimeError):
            run.complete(900.0)
        run2 = make_run(total=1800.0)
        run2.complete(1800.0)
        assert run2.progress == 1800.0
        assert (run2.finish, run2.running) == (1800.0, False)


class TestKillAccounting:
    def test_kill_before_any_checkpoint_loses_whole_run(self):
        run = make_run(start=100.0, size=4)
        lost = run.kill(2000.0)
        assert lost == 1900.0
        assert run.saved_progress == 0.0
        assert (run.failures, run.lost_node_seconds) == (1, 4 * 1900.0)
        assert not run.running

    def test_kill_after_checkpoint_loses_since_its_start(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        run.complete_checkpoint(I + C, C)
        lost = run.kill(I + C + 500.0)
        # Rollback point is the checkpoint *start* (paper's c_{j_x}).
        assert lost == pytest.approx(C + 500.0)
        assert run.saved_progress == I

    def test_kill_during_checkpoint_loses_inflight_work(self):
        run = make_run()
        run.reach_request(I)
        run.begin_checkpoint(I)
        lost = run.kill(I + 300.0)
        assert run.saved_progress == 0.0
        assert lost == pytest.approx(I + 300.0)

    def test_kill_respects_previous_run_progress(self):
        run = make_run(saved=2 * I, start=50_000.0)
        lost = run.kill(50_000.0 + 100.0)
        assert run.saved_progress == 2 * I  # earlier runs' checkpoints survive
        assert lost == pytest.approx(100.0)


class TestPlanSkips:
    def step(self, run):
        """Walk the requests one by one, skipping each: the request times
        and the finish time."""
        times = []
        while True:
            kind, delay = run.next_event_delay(I)
            now = run.segment_start + delay
            if kind == "finish":
                return times, now
            run.reach_request(now)
            run.skip_checkpoint(now)
            times.append(now)

    def test_clear_run_plans_every_request_and_the_finish(self):
        run = make_run(total=5.5 * I)
        kind, at = run.plan_skips(I, float("inf"), I, C)
        assert (kind, run.planned_skips) == ("finish", 5)
        # The plan does not advance the run.
        assert (run.progress, run.segment_start) == (0.0, 0.0)
        times, finish = self.step(make_run(total=5.5 * I))
        assert at == finish and len(times) == 5

    def test_plan_stops_at_the_first_window_reaching_the_failure(self):
        # Windows span C + I + C = 5040 s: the request at 3I = 10800 s
        # ends at 15840, past a failure at 15000; the one at 2I does not.
        run = make_run(total=10 * I)
        assert run.plan_skips(I, 15_000.0, I, C) == ("request", 3 * I)
        assert run.planned_skips == 2

    def test_half_open_window_ends_exactly_at_the_failure(self):
        run = make_run(total=10 * I)
        assert run.plan_skips(I, 3 * I + C + I + C, I, C) == ("request", 4 * I)
        assert run.planned_skips == 3

    def test_window_shrinks_with_the_remaining_work(self):
        # At 4I of 4.5I the window is C + 0.5I + C.
        run = make_run(total=4.5 * I)
        clear = 4 * I + 2 * C + 0.5 * I
        assert run.plan_skips(I, clear, I, C) == ("finish", 4.5 * I)
        run = make_run(total=4.5 * I)
        assert run.plan_skips(I, clear - 1.0, I, C) == ("request", 4 * I)

    @given(
        total=st.floats(min_value=I + 1.0, max_value=50_000.0),
        start=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_times_are_the_stepped_times(self, total, start):
        """The walk repeats the transitions' float steps exactly."""
        run = make_run(total=total, start=start)
        kind, delay = run.next_event_delay(I)
        assert kind == "request"
        kind, at = run.plan_skips(start + delay, float("inf"), I, C)
        times, finish = self.step(make_run(total=total, start=start))
        assert kind == "finish"
        assert at == finish
        assert run.planned_skips == len(times)


class TestRestart:
    def test_start_resets_every_run_field(self):
        """A restart reuses the record: nothing of the killed run survives
        but the durable progress and the lifetime totals."""
        run = make_run(total=10 * I, size=2)
        run.reach_request(I)
        run.begin_checkpoint(I)
        run.complete_checkpoint(I + C, C)
        run.reach_request(2 * I + C)
        run.skip_checkpoint(2 * I + C)
        run.plan_skips(3 * I + C, float("inf"), I, C)
        assert run.planned_skips > 0
        run.reach_request(3 * I + C)
        run.begin_checkpoint(3 * I + C)
        run.kill(3 * I + C + 10.0)

        run.start(50_000.0, recovery_time=600.0)
        assert run.running
        assert run.progress == run.saved_progress == I
        assert run.segment_start == 50_600.0
        assert run.skipped_since_checkpoint == 0
        assert run.last_checkpoint_start is None
        assert run.checkpoint_begun_at is None
        assert run.planned_skips == 0
        assert (run.first_start, run.last_start) == (0.0, 50_000.0)
        assert (run.checkpoints_performed, run.checkpoints_skipped) == (1, 1)
        # The rollback point is the new run's start, not the old checkpoint.
        assert run.kill(50_100.0) == 100.0
        assert run.failures == 2


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
        run = make_run(total=total)
        now = 0.0
        performed = 0
        decision_iter = iter(decisions)
        while True:
            kind, delay = run.next_event_delay(I)
            now += delay
            if kind == "finish":
                run.complete(now)
                break
            run.reach_request(now)
            if next(decision_iter, False):
                run.begin_checkpoint(now)
                now += C
                run.complete_checkpoint(now, C)
                performed += 1
            else:
                run.skip_checkpoint(now)
        assert now == pytest.approx(total + performed * C)
        assert run.progress == pytest.approx(total)
        assert run.checkpoints_performed == performed
