"""Tests for the recovery-time (R) model parameter.

The paper sets ``R = 0`` ("downtime in supercomputing clusters is typically
extremely expensive, and resources are usually on-hand to minimize this");
exposing R as a parameter lets that modelling choice be validated: small R
barely moves outcomes, large R visibly stretches restarts.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import JobOutcome
from repro.core.system import ProbabilisticQoSSystem, SystemConfig, simulate
from repro.failures.events import FailureEvent, FailureTrace
from repro.workload.job import Job, JobLog

HOUR = 3600.0


def one_wide_job():
    return JobLog(
        [Job(job_id=1, arrival_time=0.0, size=16, runtime=3 * HOUR)], name="wide"
    )


def config(recovery=0.0):
    return SystemConfig(
        node_count=16,
        accuracy=0.0,
        checkpoint_policy="periodic",
        recovery_time=recovery,
        seed=7,
    )


def started(saved, at=100.0, recovery=600.0):
    """A job's record whose run starts at ``at`` from ``saved``."""
    record = JobOutcome(Job(job_id=1, arrival_time=0.0, size=1, runtime=10_000.0))
    record.saved_progress = saved
    record.start(at, recovery)
    return record


class TestJobRunRestore:
    """Restores at the start of a job's run (:meth:`JobOutcome.start`)."""

    def test_fresh_start_pays_no_restore(self):
        assert started(0.0).segment_start == 100.0

    def test_restart_pays_restore_before_compute(self):
        assert started(3600.0).segment_start == 700.0

    def test_negative_restore_rejected(self):
        # R is checked once, on the configuration.
        with pytest.raises(ValueError):
            SystemConfig(recovery_time=-1.0)

    def test_kill_during_restore_loses_nothing_extra(self):
        record = started(3600.0)
        lost = record.kill(300.0)  # mid-restore
        assert record.saved_progress == 3600.0  # checkpointed progress intact
        assert lost == pytest.approx(200.0)  # occupied wall time since start


class TestSystemWithRecoveryTime:
    def test_zero_recovery_matches_paper_default(self):
        failures = FailureTrace([FailureEvent(1, 1.5 * HOUR, 0)])
        baseline = simulate(config(0.0), one_wide_job(), failures)
        explicit = simulate(SystemConfig(
            node_count=16, accuracy=0.0, checkpoint_policy="periodic", seed=7
        ), one_wide_job(), failures)
        assert baseline.metrics == explicit.metrics

    def test_restore_delays_completion_by_r(self):
        failures = FailureTrace([FailureEvent(1, 1.5 * HOUR, 0)])
        fast = simulate(config(0.0), one_wide_job(), failures)
        slow = simulate(config(900.0), one_wide_job(), failures)
        fast_finish = fast.outcomes[0].finish
        slow_finish = slow.outcomes[0].finish
        # Exactly one restart from a checkpoint: one restore window.
        assert slow_finish == pytest.approx(fast_finish + 900.0)

    def test_restore_not_charged_when_restarting_from_scratch(self):
        # No checkpoints performed (policy never): restart reads nothing.
        failures = FailureTrace([FailureEvent(1, 1.5 * HOUR, 0)])
        base = simulate(
            SystemConfig(
                node_count=16, accuracy=0.0, checkpoint_policy="never", seed=7
            ),
            one_wide_job(),
            failures,
        )
        with_r = simulate(
            SystemConfig(
                node_count=16,
                accuracy=0.0,
                checkpoint_policy="never",
                recovery_time=900.0,
                seed=7,
            ),
            one_wide_job(),
            failures,
        )
        assert base.outcomes[0].finish == with_r.outcomes[0].finish

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(recovery_time=-1.0)


class TestOneRecordPerJob:
    def test_record_survives_kill_and_restart(self):
        """The killed job's record is the one the run returns: the restart
        reused it, restored from its checkpoint and finished on it."""
        failures = FailureTrace([FailureEvent(1, 1.5 * HOUR, 0)])
        system = ProbabilisticQoSSystem(config(900.0), one_wide_job(), failures)
        killed = []
        kill = system._kill_job

        def spy(job_id, now):
            killed.append(system._states[job_id])
            kill(job_id, now)

        system._kill_job = spy
        result = system.run()
        assert len(killed) == 1
        (record,) = result.outcomes
        assert record is killed[0]
        assert record.failures == 1
        # Restarted once the failed node's 120 s repair ended.
        assert (record.first_start, record.last_start) == (0.0, 1.5 * HOUR + 120.0)
        # Rolled back to the checkpoint at 1 h (begun at I, written in C).
        assert record.lost_node_seconds == pytest.approx((0.5 * HOUR) * 16)
        assert record.finish == record.last_start + 900.0 + 2 * HOUR + 720.0
        # Nothing is left in flight once the job finished.
        assert not record.running
        assert record.start_event is None and record.run_event is None
        assert record.pending_decision is None and record.planned_skips == 0
