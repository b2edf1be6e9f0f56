"""Unit tests for the QoS / utilization / lost-work metrics (Section 3.5)
over the per-job records."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import JobOutcome, SimulationMetrics, finalize
from repro.core.system import SystemConfig, simulate
from repro.experiments.runner import estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.workload.job import Job, JobLog
from repro.workload.synthetic import log_by_name


def guarantee(job_id, deadline, probability, negotiated_at=0.0):
    return QoSGuarantee(
        job_id=job_id,
        deadline=deadline,
        probability=probability,
        predicted_failure_probability=1.0 - probability,
        negotiated_at=negotiated_at,
        planned_start=negotiated_at,
        planned_nodes=(0,),
        offers_declined=0,
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


def finalize_with_lists(outcomes, node_count, lost_work, forced_negotiations):
    """The list-building ``finalize`` that the generator sums replaced,
    kept verbatim as the oracle (non-empty input only)."""
    total_work = sum(o.job.work for o in outcomes)
    qos_numerator = sum(
        o.job.work * o.guarantee.probability
        for o in outcomes
        if o.guarantee is not None and o.met_deadline
    )
    qos = qos_numerator / total_work if total_work > 0 else 1.0

    finishes = [o.finish for o in outcomes if o.finish is not None]
    arrivals = [o.job.arrival_time for o in outcomes]
    span = (max(finishes) - min(arrivals)) if finishes else 0.0
    utilization = (
        total_work / (span * node_count) if span > 0 and node_count > 0 else 0.0
    )

    waits = [o.wait for o in outcomes if o.wait is not None]
    slowdowns = [
        o.bounded_slowdown for o in outcomes if o.bounded_slowdown is not None
    ]
    promised = [
        o.guarantee.probability for o in outcomes if o.guarantee is not None
    ]

    return SimulationMetrics(
        qos=qos,
        utilization=utilization,
        lost_work=lost_work,
        span=span,
        total_work=total_work,
        job_count=len(outcomes),
        completed_jobs=len(finishes),
        deadlines_met=sum(1 for o in outcomes if o.met_deadline),
        failures_hitting_jobs=sum(o.failures for o in outcomes),
        checkpoints_performed=sum(o.checkpoints_performed for o in outcomes),
        checkpoints_skipped=sum(o.checkpoints_skipped for o in outcomes),
        checkpoint_overhead=sum(o.checkpoint_overhead for o in outcomes),
        mean_wait=sum(waits) / len(waits) if waits else 0.0,
        mean_bounded_slowdown=(
            sum(slowdowns) / len(slowdowns) if slowdowns else 0.0
        ),
        mean_promised_probability=(
            sum(promised) / len(promised) if promised else 0.0
        ),
        forced_negotiations=forced_negotiations,
        evacuations=sum(o.evacuations for o in outcomes),
    )


def exactly(metrics):
    """Every field, floats by ``repr``: equal means bit-identical."""
    return repr(dataclasses.astuple(metrics))


class TestFinalizeOracle:
    """``finalize`` sums over generators; the list-based version is the
    oracle, and the two must agree to the last bit."""

    @pytest.mark.parametrize(
        "workload, user", [("nasa", 0.5), ("sdsc", 0.9), ("sdsc", 0.99)]
    )
    def test_equals_the_list_version_on_a_run(self, workload, user):
        log = log_by_name(workload, seed=4, job_count=300).scaled_sizes(128)
        failures = generate_failure_trace(
            estimate_horizon(log, 128),
            spec=FailureModelSpec(nodes=128, rate_per_day=40.0),
            seed=4,
        )
        config = SystemConfig(accuracy=0.7, user_threshold=user, seed=4)
        result = simulate(config, log, failures)
        args = (
            result.outcomes,
            config.node_count,
            result.metrics.lost_work,
            result.metrics.forced_negotiations,
        )
        assert exactly(finalize(*args)) == exactly(finalize_with_lists(*args))
        assert result.metrics.failures_hitting_jobs > 0

    def test_equals_the_list_version_on_partial_records(self):
        jobs = [
            Job(job_id=i, arrival_time=10.0 * i, size=1 + i % 3, runtime=700.0 + i)
            for i in range(1, 7)
        ]
        records = [
            ran(promised(jobs[0], 2000.0, 0.7), 15.0, 716.0),
            ran(JobOutcome(jobs[1]), 40.0, 742.0),  # finished, no promise
            promised(jobs[2], 2000.0, 0.9),  # promised, never started
            JobOutcome(jobs[3]),  # nothing at all
        ]
        started = promised(jobs[4], 3000.0, 0.3)
        started.start(100.0, recovery_time=0.0)  # running at the end
        records.append(started)
        records.append(ran(promised(jobs[5], 900.0, 1.0), 200.0, 906.0))
        for subset in (records, records[2:5], records[3:4]):
            assert exactly(finalize(subset, 8, 12.5, 1)) == exactly(
                finalize_with_lists(subset, 8, 12.5, 1)
            )
