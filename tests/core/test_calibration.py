"""Unit and integration tests for promise calibration."""

from __future__ import annotations

import pytest

from repro.core.calibration import (
    CalibrationBucket,
    brier_score,
    calibration_buckets,
    calibration_gap,
    reliability_diagram,
)
from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import JobOutcome
from repro.workload.job import Job


def outcome(job_id, promised, kept, work_size=1):
    job = Job(job_id=job_id, arrival_time=0.0, size=work_size, runtime=100.0)
    guarantee = QoSGuarantee(
        job_id=job_id,
        deadline=1000.0,
        probability=promised,
        predicted_failure_probability=1.0 - promised,
        negotiated_at=0.0,
        planned_start=0.0,
        planned_nodes=(0,),
    )
    record = JobOutcome(job, guarantee)
    record.start(0.0, recovery_time=0.0)
    record.complete(500.0 if kept else 2000.0)
    return record


class TestBuckets:
    def test_bucketing_by_promise(self):
        outcomes = [
            outcome(1, 0.95, True),
            outcome(2, 0.92, True),
            outcome(3, 0.15, False),
        ]
        buckets = calibration_buckets(outcomes, bucket_count=10)
        assert len(buckets) == 2
        high = next(b for b in buckets if b.low == 0.9)
        assert high.count == 2
        assert high.keep_rate == 1.0

    def test_last_bucket_includes_one(self):
        buckets = calibration_buckets([outcome(1, 1.0, True)], bucket_count=10)
        assert buckets[0].low == pytest.approx(0.9)
        assert buckets[0].count == 1

    def test_empty_buckets_omitted(self):
        buckets = calibration_buckets([outcome(1, 0.5, True)], bucket_count=4)
        assert len(buckets) == 1

    def test_gap_sign(self):
        over = CalibrationBucket(0.9, 1.0, 10, mean_promised=0.95, keep_rate=0.5)
        assert over.gap > 0  # over-promising

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            calibration_buckets([], bucket_count=0)

    def test_unpromised_outcomes_ignored(self):
        bare = JobOutcome(Job(job_id=9, arrival_time=0.0, size=1, runtime=1.0))
        assert calibration_buckets([bare]) == []


class TestScores:
    def test_brier_perfect_forecast(self):
        outcomes = [outcome(1, 1.0, True), outcome(2, 0.0, False)]
        assert brier_score(outcomes) == pytest.approx(0.0)

    def test_brier_worst_forecast(self):
        outcomes = [outcome(1, 1.0, False), outcome(2, 0.0, True)]
        assert brier_score(outcomes) == pytest.approx(1.0)

    def test_brier_none_without_promises(self):
        assert brier_score([]) is None

    def test_gap_work_weighting(self):
        small_honest = outcome(1, 1.0, True, work_size=1)
        big_liar = outcome(2, 1.0, False, work_size=9)
        gap = calibration_gap([small_honest, big_liar])
        assert gap == pytest.approx(0.9)

    def test_gap_none_without_promises(self):
        assert calibration_gap([]) is None


class TestDiagram:
    def test_render_contains_buckets(self):
        outcomes = [outcome(1, 0.95, True), outcome(2, 0.15, False)]
        text = reliability_diagram(calibration_buckets(outcomes))
        assert "[0.90,1.00)" in text
        assert "100.0%" in text

    def test_empty(self):
        assert reliability_diagram([]) == "(no promises recorded)"


class TestEndToEndHonesty:
    def test_accurate_system_promises_honestly(self):
        """With perfect prediction and strict users the system promises
        p≈1 and keeps it; the work-weighted gap is near zero."""
        from repro.core.system import SystemConfig, simulate
        from repro.experiments.runner import estimate_horizon
        from repro.failures.generator import generate_failure_trace
        from repro.workload.synthetic import sdsc_log

        log = sdsc_log(seed=31, job_count=200).scaled_sizes(32)
        failures = generate_failure_trace(
            estimate_horizon(log, 32), seed=31
        ).restrict_nodes(32)
        result = simulate(
            SystemConfig(node_count=32, accuracy=1.0, user_threshold=0.9, seed=31),
            log,
            failures,
        )
        gap = calibration_gap(result.outcomes)
        assert gap is not None
        assert gap < 0.1
        score = brier_score(result.outcomes)
        assert score < 0.1
