"""Integration tests for the proactive-evacuation extension."""

from __future__ import annotations

import pytest

from repro.core.system import ProbabilisticQoSSystem, SystemConfig, simulate
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.tracelog import TraceRecorder
from repro.workload.job import Job, JobLog

HOUR = 3600.0


def config(**overrides):
    defaults = dict(
        node_count=16,
        accuracy=1.0,
        user_threshold=0.0,  # impatient users: jobs land on risky slots
        seed=7,
        proactive_evacuation=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def wide_job_log(runtime=4 * HOUR):
    """One full-width job: placement cannot dodge failures, only
    evacuation (or checkpoints) can help."""
    return JobLog(
        [Job(job_id=1, arrival_time=0.0, size=16, runtime=runtime)], name="wide"
    )


def failure_mid_run():
    # Fails node 0 at 2.5h: after the 1h and 2h checkpoint requests.
    return FailureTrace([FailureEvent(1, 2.5 * HOUR, 0)])


class TestEvacuation:
    def test_evacuation_avoids_the_failure_entirely(self):
        recorder = TraceRecorder()
        system = ProbabilisticQoSSystem(
            config(), wide_job_log(), failure_mid_run(), recorder=recorder
        )
        result = system.run()
        m = result.metrics
        assert m.evacuations >= 1
        assert m.failures_hitting_jobs == 0
        assert m.lost_work == 0.0
        assert recorder.counts().get("evacuated", 0) == m.evacuations

    def test_disabled_flag_rides_out_the_failure(self):
        result = simulate(
            config(proactive_evacuation=False), wide_job_log(), failure_mid_run()
        )
        assert result.metrics.evacuations == 0
        # Cooperative checkpointing (a=1) checkpoints before the predicted
        # failure, so losses are bounded but the hit still lands.
        assert result.metrics.failures_hitting_jobs == 1

    def test_evacuated_job_completes(self):
        result = simulate(config(), wide_job_log(), failure_mid_run())
        outcome = result.outcomes[0]
        assert outcome.finish is not None
        assert outcome.evacuations >= 1

    def test_no_evacuation_without_predicted_failure(self, tiny_jobs, empty_failures):
        result = simulate(config(node_count=16), tiny_jobs, empty_failures)
        assert result.metrics.evacuations == 0

    def test_threshold_gates_evacuation(self):
        # The failure's detectability is below 1.0; a threshold above it
        # suppresses evacuation.
        result = simulate(
            config(evacuation_threshold=1.0), wide_job_log(), failure_mid_run()
        )
        assert result.metrics.evacuations == 0

    def test_undetectable_failure_not_evacuated(self):
        result = simulate(
            config(accuracy=0.0), wide_job_log(), failure_mid_run()
        )
        assert result.metrics.evacuations == 0
        assert result.metrics.failures_hitting_jobs == 1

    def test_evacuation_reduces_lost_work_on_realistic_slice(self):
        from repro.workload.synthetic import sdsc_log

        log = sdsc_log(seed=13, job_count=120).scaled_sizes(16)
        failures = FailureTrace(
            [FailureEvent(i + 1, i * 6 * HOUR, (3 * i) % 16) for i in range(80)]
        )
        base = simulate(
            config(proactive_evacuation=False, user_threshold=0.0), log, failures
        )
        evac = simulate(config(user_threshold=0.0), log, failures)
        assert evac.metrics.lost_work <= base.metrics.lost_work
        assert evac.metrics.completed_jobs == 120
