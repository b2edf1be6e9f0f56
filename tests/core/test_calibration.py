"""Promise calibration of a finished run, read from the guarantee audit.

``audit_outcomes`` folds a run's per-job outcomes through the same
:class:`~repro.obs.audit.GuaranteeAudit` behind ``probqos audit``; the
reliability bins, the Brier score and the diagram come from its report.
``calibration_gap`` is the work-weighted score the audit adds to them.
"""

from __future__ import annotations

import pytest

from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import JobOutcome
from repro.obs.audit import (
    AuditConfig,
    GuaranteeAudit,
    audit_outcomes,
    calibration_gap,
    reliability_diagram_text,
)
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
        offers_declined=0,
    )
    record = JobOutcome(job, guarantee)
    record.start(0.0, recovery_time=0.0)
    record.complete(500.0 if kept else 2000.0)
    return record


def populated_bins(outcomes, bin_count=10):
    report = audit_outcomes(outcomes, AuditConfig(bin_count=bin_count)).report()
    return [b for b in report.bins if b.count > 0]


class TestBuckets:
    def test_bucketing_by_promise(self):
        outcomes = [
            outcome(1, 0.95, True),
            outcome(2, 0.92, True),
            outcome(3, 0.15, False),
        ]
        bins = populated_bins(outcomes)
        assert len(bins) == 2
        high = next(b for b in bins if b.low == pytest.approx(0.9))
        assert high.count == 2
        assert high.success_rate == 1.0

    def test_last_bucket_includes_one(self):
        bins = populated_bins([outcome(1, 1.0, True)])
        assert bins[0].low == pytest.approx(0.9)
        assert bins[0].count == 1

    def test_empty_buckets_omitted(self):
        report = audit_outcomes(
            [outcome(1, 0.5, True)], AuditConfig(bin_count=4)
        ).report()
        assert len(report.bins) == 4
        # The diagram draws the one populated bin under its header line.
        assert len(reliability_diagram_text(report.bins).splitlines()) == 2

    def test_gap_sign(self):
        outcomes = [outcome(i, 0.95, i % 2 == 0) for i in range(1, 11)]
        (over,) = populated_bins(outcomes)
        assert over.mean_forecast - over.success_rate > 0  # over-promising
        assert over.over_confident

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            audit_outcomes([], AuditConfig(bin_count=0))

    def test_unpromised_outcomes_ignored(self):
        bare = JobOutcome(Job(job_id=9, arrival_time=0.0, size=1, runtime=1.0))
        assert audit_outcomes([bare]).report().total == 0


class TestScores:
    def test_brier_perfect_forecast(self):
        outcomes = [outcome(1, 1.0, True), outcome(2, 0.0, False)]
        assert audit_outcomes(outcomes).report().brier == pytest.approx(0.0)

    def test_brier_worst_forecast(self):
        outcomes = [outcome(1, 1.0, False), outcome(2, 0.0, True)]
        assert audit_outcomes(outcomes).report().brier == pytest.approx(1.0)

    def test_brier_none_without_promises(self):
        # No promise, no score: the report counts nothing and scores 0.
        report = audit_outcomes([]).report()
        assert report.total == 0
        assert report.brier == 0.0

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
        text = reliability_diagram_text(audit_outcomes(outcomes).report().bins)
        assert "[0.90,1.00]" in text
        assert "100.0%" in text

    def test_empty(self):
        assert reliability_diagram_text([]) == "(no promises audited)"


def _small_run(recorder=None):
    from repro.core.system import SystemConfig, simulate
    from repro.experiments.runner import estimate_horizon
    from repro.failures.generator import generate_failure_trace
    from repro.workload.synthetic import sdsc_log

    log = sdsc_log(seed=31, job_count=200).scaled_sizes(32)
    failures = generate_failure_trace(
        estimate_horizon(log, 32), seed=31
    ).restrict_nodes(32)
    return simulate(
        SystemConfig(node_count=32, accuracy=1.0, user_threshold=0.9, seed=31),
        log,
        failures,
        recorder=recorder,
    )


class TestEndToEndHonesty:
    def test_accurate_system_promises_honestly(self):
        """With perfect prediction and strict users the system promises
        p≈1 and keeps it; the work-weighted gap is near zero."""
        result = _small_run()
        gap = calibration_gap(result.outcomes)
        assert gap is not None
        assert gap < 0.1
        assert audit_outcomes(result.outcomes).report().brier < 0.1

    def test_outcome_fold_equals_the_live_fold(self):
        """Folding the outcomes after the run audits the same promises as
        folding the records live; only the order of the float sums (job id
        vs finish time) may differ."""
        live = GuaranteeAudit()
        result = _small_run(recorder=live)
        folded = audit_outcomes(result.outcomes).report()
        expected = live.report()
        assert (folded.total, folded.honoured, folded.unfinished) == (
            expected.total, expected.honoured, expected.unfinished,
        )
        assert folded.total == sum(
            1 for o in result.outcomes if o.guarantee is not None
        )
        assert [(b.count, b.successes) for b in folded.bins] == [
            (b.count, b.successes) for b in expected.bins
        ]
        assert folded.rollups.keys() == expected.rollups.keys()
        for dim, stats in expected.rollups.items():
            assert {k: s.count for k, s in folded.rollups[dim].items()} == {
                k: s.count for k, s in stats.items()
            }
        assert folded.brier == pytest.approx(expected.brier, abs=1e-12)
