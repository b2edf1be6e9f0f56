"""Integration tests for the EASY backfilling comparator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.easy import EasyBackfillSystem
from repro.core.metrics import SimulationMetrics
from repro.core.system import SystemConfig, simulate
from repro.experiments.runner import estimate_horizon
from repro.failures import aix_like_trace
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.audit import AUDIT_STATUS_OK, GuaranteeAudit
from repro.workload.job import Job, JobLog
from repro.workload.synthetic import sdsc_log

HOUR = 3600.0


def periodic(node_count):
    return SystemConfig(node_count=node_count, checkpoint_policy="periodic")


def never(node_count):
    return SystemConfig(node_count=node_count, checkpoint_policy="never")


def simulate_easy(config, workload, failures, **observers):
    return EasyBackfillSystem(config, workload, failures, **observers).run().metrics


class TestBasics:
    def test_all_jobs_complete_without_failures(self, tiny_jobs, empty_failures):
        metrics = simulate_easy(periodic(16), tiny_jobs, empty_failures)
        assert metrics.completed_jobs == 5
        assert metrics.lost_work == 0.0

    def test_deterministic(self, tiny_jobs, tiny_failures):
        a = simulate_easy(periodic(16), tiny_jobs, tiny_failures)
        b = simulate_easy(periodic(16), tiny_jobs, tiny_failures)
        assert a == b

    def test_oversized_job_rejected(self, empty_failures):
        log = JobLog([Job(1, 0.0, 32, 100.0)], name="big")
        with pytest.raises(ValueError):
            simulate_easy(periodic(16), log, empty_failures)

    def test_evacuation_is_rejected(self, tiny_jobs, empty_failures):
        config = SystemConfig(node_count=16, proactive_evacuation=True)
        with pytest.raises(ValueError):
            EasyBackfillSystem(config, tiny_jobs, empty_failures)

    def test_failure_requeues_and_completes(self):
        log = JobLog([Job(1, 0.0, 16, 2 * HOUR)], name="wide")
        failures = FailureTrace([FailureEvent(1, HOUR, 0)])
        metrics = simulate_easy(never(16), log, failures)
        assert metrics.completed_jobs == 1
        assert metrics.failures_hitting_jobs == 1
        assert metrics.lost_work == pytest.approx(HOUR * 16)


class TestBackfilling:
    def test_small_job_backfills_past_blocked_head(self):
        # Job 1 occupies 12 of 16 nodes for 2h; job 2 (8 nodes) must wait;
        # job 3 (4 nodes, short) backfills immediately under EASY.
        log = JobLog(
            [
                Job(1, 0.0, 12, 2 * HOUR),
                Job(2, 10.0, 8, HOUR),
                Job(3, 20.0, 4, 0.5 * HOUR),
            ],
            name="backfill",
        )
        metrics = simulate_easy(never(16), log, FailureTrace([]))
        assert metrics.completed_jobs == 3
        # Job 3 started at its arrival (backfilled), so its wait is ~0.
        assert metrics.mean_wait < 2 * HOUR / 2

    def test_backfill_never_delays_the_head(self):
        # A long 10-node job must NOT backfill in front of the 8-node head
        # when it would push the head's shadow start.
        log = JobLog(
            [
                Job(1, 0.0, 12, HOUR),       # running
                Job(2, 10.0, 8, HOUR),       # head: starts when job 1 ends
                Job(3, 20.0, 4, 10 * HOUR),  # would sit on head's nodes
            ],
            name="no-delay",
        )
        sim = EasyBackfillSystem(never(16), log, FailureTrace([]))
        start2 = sim.run().outcomes[1].first_start
        assert start2 == pytest.approx(HOUR, abs=1.0)  # not delayed by job 3


class TestTracing:
    def test_recorder_captures_the_schedule(self, tiny_jobs, empty_failures):
        from repro.obs.tracelog import TraceRecorder

        recorder = TraceRecorder()
        simulate_easy(periodic(16), tiny_jobs, empty_failures, recorder=recorder)
        counts = recorder.counts()
        assert counts["start"] == 5
        assert counts["finish"] == 5
        assert "negotiated" not in counts  # EASY makes no promises

    def test_failure_story_is_recorded(self):
        from repro.obs.tracelog import TraceRecorder

        log = JobLog([Job(1, 0.0, 16, 2 * HOUR)], name="wide")
        failures = FailureTrace([FailureEvent(1, HOUR, 0)])
        recorder = TraceRecorder()
        simulate_easy(never(16), log, failures, recorder=recorder)
        kinds = [r.kind for r in recorder.for_job(1)]
        assert kinds[0] == "start"
        assert "killed" in kinds
        assert "requeued" in kinds
        assert kinds[-1] == "finish"
        killed = recorder.of_kind("killed")[0]
        assert killed.detail["lost_wall_seconds"] == pytest.approx(HOUR)

    def test_trace_feeds_the_span_layer(self, tiny_jobs, tiny_failures):
        from repro.obs.tracelog import TraceRecorder
        from repro.obs.trace import timeline_from_records

        recorder = TraceRecorder()
        simulate_easy(periodic(16), tiny_jobs, tiny_failures, recorder=recorder)
        timeline = timeline_from_records(recorder.records)
        runs = [s for s in timeline.spans if s.name == "running"]
        assert len(runs) >= 5
        assert timeline.job_ids() == [1, 2, 3, 4, 5]


class TestDisciplineComparison:
    def test_easy_waits_are_no_worse_than_conservative(self):
        log = sdsc_log(seed=9, job_count=150).scaled_sizes(32)
        failures = FailureTrace([])
        easy = simulate_easy(periodic(32), log, failures)
        conservative = simulate(
            SystemConfig(node_count=32, accuracy=0.0, seed=9), log, failures
        ).metrics
        assert easy.completed_jobs == conservative.completed_jobs == 150
        # EASY trades promises for responsiveness: mean wait no worse than
        # the frozen conservative schedule (generous tolerance for ties).
        assert easy.mean_wait <= conservative.mean_wait * 1.1 + 60.0


#: Metrics of the standalone EASY simulator this class replaced, on
#: ``sdsc_log(seed=9, job_count=150).scaled_sizes(32)`` against
#: ``aix_like_trace(..., seed=9, nodes=32)``, keyed by checkpoint policy.
PINNED = {
    "periodic": SimulationMetrics(
        qos=0.0, utilization=0.6780487981767879, lost_work=1139103.1935075633,
        span=593313.1471559255, total_work=12873448.523890015, job_count=150,
        completed_jobs=150, deadlines_met=0, failures_hitting_jobs=21,
        checkpoints_performed=276, checkpoints_skipped=0,
        checkpoint_overhead=198720.0, mean_wait=52833.28234552936,
        mean_bounded_slowdown=33.19478464162328, mean_promised_probability=0.0,
        forced_negotiations=0, evacuations=0,
    ),
    "never": SimulationMetrics(
        qos=0.0, utilization=0.37109225508164034, lost_work=14574016.1330677,
        span=1084084.2428335184, total_work=12873448.523890015, job_count=150,
        completed_jobs=150, deadlines_met=0, failures_hitting_jobs=29,
        checkpoints_performed=0, checkpoints_skipped=435,
        checkpoint_overhead=0.0, mean_wait=81109.37907875987,
        mean_bounded_slowdown=51.26282565231633, mean_promised_probability=0.0,
        forced_negotiations=0, evacuations=0,
    ),
}

#: Checkpoint writes a failure cut short in the pinned periodic run.  The
#: standalone simulator charged a checkpoint when its write began, so it
#: counted these too; they never became durable.
CUT_SHORT_WRITES = {"periodic": 3, "never": 0}


class TestPinnedSchedule:
    @pytest.mark.parametrize("policy", ["periodic", "never"])
    def test_metrics_match_the_standalone_simulator(self, policy):
        log = sdsc_log(seed=9, job_count=150).scaled_sizes(32)
        failures = aix_like_trace(estimate_horizon(log, 32), seed=9, nodes=32)
        config = SystemConfig(node_count=32, checkpoint_policy=policy)
        pinned = PINNED[policy]
        cut_short = CUT_SHORT_WRITES[policy]
        expected = replace(
            pinned,
            checkpoints_performed=pinned.checkpoints_performed - cut_short,
            checkpoint_overhead=(
                pinned.checkpoint_overhead - cut_short * config.checkpoint_overhead
            ),
        )
        assert simulate_easy(config, log, failures) == expected

    def test_killed_job_returns_ahead_of_later_arrivals(self):
        # Job 1 holds the whole cluster and job 2 queues behind it.  A
        # failure kills job 1; it re-enters the queue by original arrival,
        # so it restarts first once node 0 is repaired.
        log = JobLog(
            [Job(1, 0.0, 16, 2 * HOUR), Job(2, 10.0, 16, HOUR)], name="requeue"
        )
        failures = FailureTrace([FailureEvent(1, HOUR, 0)])
        sim = EasyBackfillSystem(never(16), log, failures)
        first, second = sim.run().outcomes
        restart = HOUR + sim.config.downtime
        assert first.last_start == pytest.approx(restart)
        assert second.first_start == pytest.approx(
            restart + 2 * HOUR
        )


class TestCheckpointAccounting:
    def test_write_cut_short_by_a_failure_is_not_counted(self):
        # The first request comes after 1 h of execution; node 0 fails at
        # 4000 s, inside its 720 s write.  Only the restarted run's two
        # writes become durable, as the promising system also counts.
        log = JobLog([Job(1, 0.0, 16, 3 * HOUR)], name="mid-write")
        failures = FailureTrace([FailureEvent(1, 4000.0, 0)])
        easy = simulate_easy(periodic(16), log, failures)
        promising = simulate(
            SystemConfig(node_count=16, checkpoint_policy="periodic", accuracy=0.0),
            log,
            failures,
        ).metrics
        assert easy.failures_hitting_jobs == promising.failures_hitting_jobs == 1
        assert easy.checkpoints_performed == promising.checkpoints_performed == 2
        assert easy.checkpoint_overhead == promising.checkpoint_overhead == 1440.0


class TestAudit:
    def test_live_audit_sees_no_promises(self, tiny_jobs, tiny_failures):
        audit = GuaranteeAudit()
        result = EasyBackfillSystem(
            periodic(16), tiny_jobs, tiny_failures, recorder=audit
        ).run()
        assert result.metrics.completed_jobs == 5
        report = audit.report()
        assert report.total == 0
        assert report.status == AUDIT_STATUS_OK
