"""Unit tests for the QoS / utilization / lost-work metrics (Section 3.5)
over the per-job records."""

from __future__ import annotations

import pytest

from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import JobOutcome, finalize
from repro.workload.job import Job, JobLog


def guarantee(job_id, deadline, probability, negotiated_at=0.0):
    return QoSGuarantee(
        job_id=job_id,
        deadline=deadline,
        probability=probability,
        predicted_failure_probability=1.0 - probability,
        negotiated_at=negotiated_at,
        planned_start=negotiated_at,
        planned_nodes=(0,),
    )


def promised(job, deadline, probability):
    """The job's record with its promise."""
    return JobOutcome(job, guarantee(job.job_id, deadline, probability))


def ran(record, start, finish):
    """Run the record from ``start`` to its finish at ``finish``."""
    record.start(start, recovery_time=0.0)
    record.complete(finish)
    return record


class TestQoSEquation:
    def test_single_kept_promise(self):
        job = Job(job_id=1, arrival_time=0.0, size=4, runtime=100.0)
        record = ran(promised(job, deadline=200.0, probability=0.8), 0.0, 150.0)
        metrics = finalize([record], 8, 0.0, 0)
        # QoS = (e n q p) / (e n) = p = 0.8.
        assert metrics.qos == pytest.approx(0.8)

    def test_missed_deadline_scores_zero(self):
        job = Job(job_id=1, arrival_time=0.0, size=4, runtime=100.0)
        record = ran(promised(job, deadline=120.0, probability=0.9), 0.0, 150.0)
        assert finalize([record], 8, 0.0, 0).qos == 0.0

    def test_work_weighting(self):
        small = Job(job_id=1, arrival_time=0.0, size=1, runtime=100.0)  # work 100
        large = Job(job_id=2, arrival_time=0.0, size=3, runtime=100.0)  # work 300
        records = [
            ran(promised(small, 1000.0, 1.0), 0.0, 100.0),  # small kept
            ran(promised(large, 1000.0, 1.0), 0.0, 2000.0),  # large missed
        ]
        assert finalize(records, 8, 0.0, 0).qos == pytest.approx(100.0 / 400.0)

    def test_unfinished_job_breaks_promise(self):
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=100.0)
        assert finalize([promised(job, 500.0, 1.0)], 8, 0.0, 0).qos == 0.0


class TestUtilization:
    def test_definition(self):
        # One job: 4 nodes x 100 s on an 8-node cluster, span 200 s.
        job = Job(job_id=1, arrival_time=0.0, size=4, runtime=100.0)
        record = ran(promised(job, 500.0, 1.0), 50.0, 200.0)
        metrics = finalize([record], 8, 0.0, 0)
        assert metrics.span == 200.0
        assert metrics.utilization == pytest.approx(400.0 / (200.0 * 8))

    def test_uses_runtime_excluding_checkpoints(self):
        # Checkpoint overhead must not inflate the work numerator: the job
        # took 300 s of wall time but e_j is 100 s.
        job = Job(job_id=1, arrival_time=0.0, size=4, runtime=100.0)
        record = promised(job, 500.0, 1.0)
        record.start(0.0, recovery_time=0.0)
        record.reach_request(50.0)
        record.begin_checkpoint(50.0)
        record.complete_checkpoint(250.0, 200.0)
        record.complete(300.0)
        metrics = finalize([record], 8, 0.0, 0)
        assert metrics.total_work == 400.0
        assert metrics.checkpoint_overhead == 200.0


class TestLostWork:
    def test_accumulates_across_failures(self):
        job = Job(job_id=1, arrival_time=0.0, size=4, runtime=100.0)
        record = JobOutcome(job)
        record.start(0.0, recovery_time=0.0)
        record.kill(300.0)  # 300 s x 4 nodes
        record.start(1000.0, recovery_time=0.0)
        record.kill(1200.0)  # 200 s x 4 nodes
        assert record.lost_node_seconds == 2000.0
        assert record.failures == 2
        metrics = finalize([record], 8, record.lost_node_seconds, 0)
        assert metrics.lost_work == 2000.0
        assert metrics.failures_hitting_jobs == 2


class TestBookkeeping:
    def test_first_and_last_start(self):
        job = Job(job_id=1, arrival_time=10.0, size=1, runtime=100.0)
        record = JobOutcome(job)
        record.start(50.0, recovery_time=0.0)
        record.start(500.0, recovery_time=0.0)
        assert record.first_start == 50.0
        assert record.last_start == 500.0
        assert record.wait == 490.0  # paper uses the *last* start

    def test_checkpoint_counters(self):
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=100.0)
        record = JobOutcome(job)
        record.start(0.0, recovery_time=0.0)
        record.begin_checkpoint(0.0)
        record.complete_checkpoint(720.0, 720.0)
        record.skip_checkpoint(720.0)
        record.skip_checkpoint(720.0)
        metrics = finalize([record], 8, 0.0, 0)
        assert metrics.checkpoints_performed == 1
        assert metrics.checkpoints_skipped == 2
        assert metrics.checkpoint_overhead == 720.0

    def test_duplicate_registration_rejected(self):
        # One record per job id: a log cannot hold the same id twice.
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=100.0)
        with pytest.raises(ValueError):
            JobLog([job, job])

    def test_bounded_slowdown_floor(self):
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=10.0)
        record = ran(promised(job, 500.0, 1.0), 0.0, 10.0)
        assert record.bounded_slowdown == 1.0  # floored, not 1.0x runtime

    def test_empty_collector(self):
        metrics = finalize([], 8, 0.0, 0)
        assert metrics.qos == 1.0
        assert metrics.job_count == 0
        assert metrics.deadline_met_fraction == 1.0

    def test_forced_negotiations_counted(self):
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=10.0)
        records = [promised(job, 500.0, 0.5)]
        assert finalize(records, 8, 0.0, 1).forced_negotiations == 1

    def test_mean_promised_probability(self):
        records = [
            promised(Job(job_id=1, arrival_time=0.0, size=1, runtime=10.0), 500.0, 0.6),
            promised(Job(job_id=2, arrival_time=0.0, size=1, runtime=10.0), 500.0, 1.0),
        ]
        metrics = finalize(records, 8, 0.0, 0)
        assert metrics.mean_promised_probability == pytest.approx(0.8)


class TestRecordEquality:
    def test_equal_over_every_slot(self):
        job = Job(job_id=1, arrival_time=0.0, size=1, runtime=100.0)
        a, b = ran(JobOutcome(job), 0.0, 100.0), ran(JobOutcome(job), 0.0, 100.0)
        assert a == b
        b.reserved_end = 1.0
        assert a != b
        assert JobOutcome(job) != object()
