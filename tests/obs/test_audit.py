"""Unit and property tests for the guarantee-calibration audit layer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guarantee import QoSGuarantee
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    AUDIT_STATUS_DEGRADED,
    AUDIT_STATUS_OK,
    AUDIT_STATUS_VIOLATED,
    VERDICT_EPSILON,
    AuditConfig,
    CalibrationCurve,
    GuaranteeAudit,
    audit_from_records,
    breach_excess_pvalue,
    margin_honours,
    merge_reports,
    poisson_tail,
    promise_margin,
    reliability_diagram_csv,
    reliability_diagram_text,
    render_report,
    validate_audit_report,
    wilson_interval,
)
from repro.obs.tracelog import TraceRecorder, load_jsonl


def feed(audit: GuaranteeAudit, rows) -> None:
    """Feed (job_id, probability, deadline, finish) rows; finish None = pending."""
    for row in rows:
        job_id, probability, deadline, finish = row[:4]
        extras = row[4] if len(row) > 4 else {}
        audit.observe_promise(
            job_id=job_id, probability=probability, deadline=deadline, **extras
        )
        if finish is not None:
            audit.observe_outcome(job_id=job_id, finish_time=finish)


# Dyadic probabilities make float sums order-independent, so merged and
# sequential reports compare exactly (==), not just approximately.
DYADIC = (0.25, 0.5, 0.75, 0.875, 0.9375, 1.0)


def dyadic_rows(spec):
    """(probability, honoured) pairs -> audit rows with exact-float fields."""
    rows = []
    for i, (p, honoured) in enumerate(spec, start=1):
        finish = 512.0 if honoured else 2048.0
        rows.append((i, p, 1024.0, finish))
    return rows


class TestVerdictEpsilon:
    def test_margin_is_deadline_minus_finish(self):
        assert promise_margin(1000.0, 900.0) == 100.0
        assert promise_margin(1000.0, 1100.0) == -100.0

    def test_never_finished_has_no_margin(self):
        assert promise_margin(1000.0, None) is None
        assert not margin_honours(None)

    def test_epsilon_leans_toward_honoured(self):
        assert margin_honours(0.0)
        assert margin_honours(-VERDICT_EPSILON)
        assert not margin_honours(-2.0 * VERDICT_EPSILON)

    def test_guarantee_kept_delegates_to_the_same_epsilon(self):
        g = QoSGuarantee(
            job_id=1,
            deadline=5000.0,
            probability=0.9,
            predicted_failure_probability=0.1,
            negotiated_at=100.0,
            planned_start=1000.0,
            planned_nodes=(0, 1),
            offers_declined=0,
        )
        assert g.margin(4900.0) == 100.0
        assert g.kept(5000.0 + VERDICT_EPSILON / 2.0)
        assert not g.kept(5000.0 + 2.0 * VERDICT_EPSILON)
        for finish in (4999.0, 5000.0, 5001.0, None):
            assert g.kept(finish) == margin_honours(g.margin(finish))


class TestWilsonInterval:
    def test_empty_bin_is_uninformative(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_successes_out_of_range_raise(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)

    def test_stays_inside_unit_interval_at_the_extremes(self):
        low0, high0 = wilson_interval(0, 20)
        lown, highn = wilson_interval(20, 20)
        assert low0 == 0.0 and 0.0 < high0 < 0.4
        assert highn == 1.0 and 0.6 < lown < 1.0

    def test_contains_the_point_estimate_and_shrinks_with_n(self):
        low_s, high_s = wilson_interval(8, 10)
        low_l, high_l = wilson_interval(800, 1000)
        assert low_s < 0.8 < high_s
        assert low_l < 0.8 < high_l
        assert high_l - low_l < high_s - low_s


class TestPoissonTail:
    def test_zero_observed_is_certain(self):
        assert poisson_tail(0, 5.0) == 1.0

    def test_zero_mean_cannot_produce_events(self):
        assert poisson_tail(3, 0.0) == 0.0

    def test_exact_single_event_tail(self):
        mu = 0.25
        assert poisson_tail(1, mu) == pytest.approx(1.0 - math.exp(-mu))

    def test_monotone_in_observed(self):
        tails = [poisson_tail(b, 2.0) for b in range(6)]
        assert tails == sorted(tails, reverse=True)

    def test_normal_approximation_joins_smoothly(self):
        # Just below and above the exact/approx switchover at mean 100.
        exact = poisson_tail(110, 99.9)
        approx = poisson_tail(110, 100.1)
        assert approx == pytest.approx(exact, abs=0.02)

    def test_excess_breaches_against_honest_forecasts(self):
        # 120 promises averaging 0.999: one break is within what the
        # promises allow, twenty are not.
        fsum = 120 * 0.999
        assert breach_excess_pvalue(120, 119, fsum) > 0.05
        assert breach_excess_pvalue(120, 100, fsum) < 1e-9


class TestCalibrationCurve:
    def test_rejects_out_of_range_forecasts(self):
        curve = CalibrationCurve()
        with pytest.raises(ValueError):
            curve.observe(1.5, True)
        with pytest.raises(ValueError):
            curve.observe(-0.1, False)

    def test_bin_edges_cover_the_unit_interval(self):
        curve = CalibrationCurve(bin_count=10)
        assert curve.bin_index(0.0) == 0
        assert curve.bin_index(0.05) == 0
        assert curve.bin_index(0.95) == 9
        assert curve.bin_index(1.0) == 9  # the last bin includes 1.0

    def test_brier_decomposition_identity(self):
        curve = CalibrationCurve(bin_count=10)
        values = [0.05, 0.23, 0.23, 0.55, 0.55, 0.55, 0.87, 0.92, 0.99, 1.0]
        for i, p in enumerate(values):
            curve.observe(p, i % 3 != 0)
        s = curve.summary()
        assert s.brier_binned == pytest.approx(s.calibration + s.refinement)

    def test_binned_brier_equals_exact_brier_for_constant_bins(self):
        # When every forecast in a bin is identical, binning loses nothing.
        curve = CalibrationCurve(bin_count=10)
        for success in (True, True, False, True):
            curve.observe(0.75, success)
        s = curve.summary()
        assert s.brier_binned == pytest.approx(s.brier)

    def test_log_loss_is_finite_at_certainty_gone_wrong(self):
        curve = CalibrationCurve()
        curve.observe(1.0, False)
        curve.observe(0.0, True)
        s = curve.summary()
        assert math.isfinite(s.log_loss)
        assert s.log_loss > 10.0  # clamped, but still a huge penalty

    def test_empty_summary_is_all_zero(self):
        s = CalibrationCurve().summary()
        assert s.count == 0 and s.brier == 0.0 and s.log_loss == 0.0

    def test_clone_is_independent(self):
        curve = CalibrationCurve()
        curve.observe(0.5, True)
        clone = curve.clone()
        clone.observe(0.5, False)
        assert curve.count == 1 and clone.count == 2


class TestGuaranteeAudit:
    def test_counts_and_verdicts(self):
        audit = GuaranteeAudit()
        feed(
            audit,
            [
                (1, 0.95, 1000.0, 900.0),   # honoured
                (2, 0.95, 1000.0, 1500.0),  # broken (late)
                (3, 0.95, 1000.0, None),    # pending -> broken in report
            ],
        )
        assert audit.audited == 2 and audit.pending == 1
        report = audit.report()
        assert report.total == 3
        assert report.honoured == 1
        assert report.broken == 2
        assert report.unfinished == 1

    def test_finish_without_promise_is_ignored(self):
        audit = GuaranteeAudit()
        audit.observe_outcome(job_id=99, finish_time=10.0)
        assert audit.report().total == 0

    def test_report_is_non_destructive(self):
        audit = GuaranteeAudit()
        feed(audit, [(1, 0.9, 1000.0, None)])
        first = audit.report()
        assert first.unfinished == 1
        audit.observe_outcome(job_id=1, finish_time=500.0)
        second = audit.report()
        assert second.unfinished == 0 and second.honoured == 1
        assert first.unfinished == 1  # the first report did not mutate

    def test_rollup_keys(self):
        audit = GuaranteeAudit()
        audit.observe_promise(
            job_id=1, probability=0.95, deadline=100.0,
            size=6, user_id=7, nodes=(40, 41),
        )
        audit.observe_promise(
            job_id=2, probability=0.42, deadline=100.0,
            size=1, user_id=-1, nodes=(),
        )
        audit.observe_outcome(job_id=1, finish_time=50.0)
        audit.observe_outcome(job_id=2, finish_time=50.0)
        rollups = audit.report().rollups
        assert set(rollups["user"]) == {"user:7", "user:-1"}
        assert set(rollups["partition"]) == {"nodes:32-63", "nodes:unplaced"}
        assert set(rollups["size"]) == {"size:4-7", "size:1"}
        assert set(rollups["promise"]) == {"p:[0.9,1.0]", "p:[0.4,0.5)"}

    def test_every_dimension_sums_to_total(self):
        audit = GuaranteeAudit()
        feed(audit, dyadic_rows([(p, i % 2 == 0) for i, p in enumerate(DYADIC)]))
        report = audit.report()
        for dim, keys in report.rollups.items():
            assert sum(s.count for s in keys.values()) == report.total, dim


class TestMerge:
    def rows(self):
        spec = [
            (0.25, False), (0.5, True), (0.5, False), (0.75, True),
            (0.875, True), (0.9375, True), (1.0, True), (0.25, True),
        ]
        return dyadic_rows(spec)

    def shard(self, rows):
        audit = GuaranteeAudit()
        feed(audit, rows)
        return audit.report()

    def test_merge_of_shards_equals_the_unsharded_report(self):
        rows = self.rows()
        whole = self.shard(rows)
        merged = self.shard(rows[:3]).merge(self.shard(rows[3:]))
        assert merged == whole

    def test_merge_is_commutative(self):
        a, b = self.shard(self.rows()[:4]), self.shard(self.rows()[4:])
        assert a.merge(b) == b.merge(a)

    def test_merge_is_associative(self):
        rows = self.rows()
        a, b, c = self.shard(rows[:3]), self.shard(rows[3:5]), self.shard(rows[5:])
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_counts_shards_in_meta(self):
        a, b = self.shard(self.rows()[:4]), self.shard(self.rows()[4:])
        assert a.merge(b).meta == {"merged": 2}
        assert merge_reports([a, b, a]).meta == {"merged": 3}

    def test_config_mismatch_raises(self):
        a = GuaranteeAudit(AuditConfig(bin_count=10)).report()
        b = GuaranteeAudit(AuditConfig(bin_count=5)).report()
        with pytest.raises(ValueError, match="different configs"):
            a.merge(b)

    def test_merging_nothing_raises(self):
        with pytest.raises(ValueError, match="empty"):
            merge_reports([])

    @settings(max_examples=40, deadline=None)
    @given(
        outcomes=st.lists(
            st.tuples(st.sampled_from(DYADIC), st.booleans()),
            min_size=1, max_size=24,
        ),
        split=st.integers(min_value=0, max_value=24),
    )
    def test_any_split_merges_back_to_the_whole(self, outcomes, split):
        # Counts and structure are exact under any split; the scoring
        # sums may differ by float summation order (log-loss terms are
        # irrational), so they compare to tolerance.
        rows = dyadic_rows(outcomes)
        cut = min(split, len(rows))
        whole = self.shard(rows)
        merged = self.shard(rows[:cut]).merge(self.shard(rows[cut:]))
        assert merged.total == whole.total
        assert merged.honoured == whole.honoured
        assert merged.status == whole.status
        assert merged.rollups == whole.rollups
        assert [(b.count, b.successes) for b in merged.bins] == [
            (b.count, b.successes) for b in whole.bins
        ]
        assert merged.brier_sum == pytest.approx(whole.brier_sum, rel=1e-12)
        assert merged.log_loss_sum == pytest.approx(whole.log_loss_sum, rel=1e-12)


class TestStatus:
    def test_honest_promises_are_ok(self):
        audit = GuaranteeAudit()
        # p = 0.5 promises honoured exactly half the time.
        feed(audit, dyadic_rows([(0.5, i % 2 == 0) for i in range(40)]))
        report = audit.report()
        assert report.status == AUDIT_STATUS_OK
        assert report.alerts == ()

    def test_small_overpromised_bin_degrades(self):
        audit = GuaranteeAudit()
        rows = dyadic_rows(
            [(0.9375, False)] * 8 + [(0.5, i % 2 == 0) for i in range(92)]
        )
        feed(audit, rows)
        report = audit.report()
        # 8 of 100 promises sit in a significantly over-promised bin:
        # below the violation share, so DEGRADED.
        assert report.status == AUDIT_STATUS_DEGRADED
        assert any("over-promised bin [0.9,1.0]" in a for a in report.alerts)

    def test_widespread_overpromising_is_violated(self):
        audit = GuaranteeAudit()
        feed(audit, dyadic_rows([(0.9375, i % 4 == 0) for i in range(40)]))
        report = audit.report()
        assert report.status == AUDIT_STATUS_VIOLATED

    def test_statistically_allowed_breaks_do_not_flag(self):
        audit = GuaranteeAudit()
        # One break among many p ~ 1 promises pushes the bin mean above
        # the Wilson bound, but the promises themselves allowed it.
        feed(
            audit,
            dyadic_rows([(1.0, True)] * 119 + [(0.875, False)]),
        )
        report = audit.report()
        assert report.status == AUDIT_STATUS_OK
        assert not any(b.over_confident for b in report.bins)

    def test_breach_rate_slo_fires_per_key(self):
        audit = GuaranteeAudit(AuditConfig(max_breach_rate=0.2))
        rows = [
            (i, 0.5, 1000.0, 512.0 if i % 2 == 0 else 2048.0, {"user_id": 5})
            for i in range(1, 13)
        ]
        feed(audit, rows)
        report = audit.report()
        assert report.status == AUDIT_STATUS_DEGRADED
        assert any("SLO breach" in a and "user:5" in a for a in report.alerts)

    def test_thin_keys_never_alert(self):
        audit = GuaranteeAudit(AuditConfig(max_breach_rate=0.1, min_slo_count=10))
        feed(audit, dyadic_rows([(0.5, False)] * 5))
        report = audit.report()
        assert report.status == AUDIT_STATUS_OK
        assert report.alerts == ()


class TestSerialization:
    def report(self):
        audit = GuaranteeAudit(AuditConfig(max_breach_rate=0.5))
        feed(
            audit,
            dyadic_rows([(p, i % 2 == 0) for i, p in enumerate(DYADIC * 3)])
            + [(100, 0.9, 1000.0, None)],
        )
        return audit.report(meta={"source": "unit-test"})

    def test_serialized_report_validates_clean(self):
        assert validate_audit_report(self.report().to_dict()) == []

    def test_validator_flags_inconsistent_counts(self):
        doc = self.report().to_dict()
        doc["total"] += 1
        problems = validate_audit_report(doc)
        assert any("sum to" in p for p in problems)

    def test_validator_flags_bad_status_and_schema(self):
        doc = self.report().to_dict()
        doc["status"] = "FINE"
        doc["schema"] = 0
        problems = validate_audit_report(doc)
        assert any("status" in p for p in problems)
        assert any("schema" in p for p in problems)

    def test_validator_flags_missing_rollup_dimension(self):
        doc = self.report().to_dict()
        del doc["rollups"]["partition"]
        assert any("partition" in p for p in validate_audit_report(doc))

    def test_scoring_block_carries_the_decomposition(self):
        doc = self.report().to_dict()
        scoring = doc["scoring"]
        assert scoring["brier_binned"] == pytest.approx(
            scoring["calibration"] + scoring["refinement"]
        )


class TestAuditConfigValidation:
    def test_rejects_bad_knobs(self):
        for kwargs in (
            {"bin_count": 0},
            {"confidence_z": 0.0},
            {"node_block": 0},
            {"min_slo_count": 0},
            {"degraded_overpromise_bins": 0},
            {"violated_overpromise_share": 0.0},
            {"violated_overpromise_share": 1.5},
            {"max_breach_rate": 1.5},
        ):
            with pytest.raises(ValueError):
                AuditConfig(**kwargs)


class TestRendering:
    def report(self):
        audit = GuaranteeAudit()
        feed(
            audit,
            dyadic_rows([(0.9375, False)] * 8 + [(0.5, i % 2 == 0) for i in range(92)]),
        )
        return audit.report()

    def test_render_report_tells_the_whole_story(self):
        text = render_report(self.report())
        assert "status: DEGRADED" in text
        assert "promises audited: 100" in text
        assert "Reliability" in text
        assert "by user" in text and "by partition" in text
        assert "Alerts:" in text

    def test_diagram_marks_overpromised_bins(self):
        text = reliability_diagram_text(self.report().bins)
        assert "OVER-PROMISED" in text
        assert "[0.90,1.00]" in text  # top bin is closed at 1.0
        assert "[0.50,0.60)" in text

    def test_diagram_csv_has_one_row_per_populated_bin(self):
        report = self.report()
        lines = reliability_diagram_csv(report).strip().splitlines()
        populated = [b for b in report.bins if b.count > 0]
        assert len(lines) == len(populated) + 1  # header
        assert lines[0].startswith("low,high,count")

    def test_empty_diagram_has_a_placeholder(self):
        assert "no promises" in reliability_diagram_text(())


class TestLiveReplayEquivalence:
    def run(self, tiny_jobs, tiny_failures, recorder):
        ProbabilisticQoSSystem(
            SystemConfig(node_count=16, accuracy=0.5, seed=7),
            tiny_jobs,
            tiny_failures,
            recorder=recorder,
        ).run()
        return recorder

    def test_live_report_equals_replay_of_its_own_trace(
        self, tiny_jobs, tiny_failures
    ):
        """The same (deterministic) simulation, recorded by a plain
        TraceRecorder and replayed, audits equal to the live fold."""
        live = self.run(tiny_jobs, tiny_failures, GuaranteeAudit())
        live_report = live.report(meta={"source": "live"})
        recorder = self.run(tiny_jobs, tiny_failures, TraceRecorder())
        replayed = audit_from_records(recorder.records)
        assert live_report.total > 0
        assert live_report == replayed
        assert live_report.meta != replayed.meta  # provenance differs only

    def test_equality_survives_the_jsonl_file_roundtrip(
        self, tiny_jobs, tiny_failures, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            self.run(
                tiny_jobs, tiny_failures,
                TraceRecorder(stream=fh, keep_in_memory=False),
            )
        live = self.run(tiny_jobs, tiny_failures, GuaranteeAudit())
        with open(path) as fh:
            records = load_jsonl(fh)
        assert audit_from_records(records) == live.report()

    def test_live_audit_retains_no_records(self, tiny_jobs, tiny_failures):
        live = self.run(tiny_jobs, tiny_failures, GuaranteeAudit())
        assert live.audited > 0
        assert len(live) == 0 and live.records == []


class TestSimulationAcceptance:
    @pytest.fixture(scope="class")
    def nasa_context(self):
        from repro.experiments.config import ExperimentSetup
        from repro.experiments.runner import ExperimentContext

        return ExperimentContext.prepare(
            ExperimentSetup(workload="nasa", job_count=120, seed=3)
        )

    def test_accurate_predictor_run_is_well_calibrated(self, nasa_context):
        """With a = 1 every promised probability must survive the audit:
        no bin's breach count may exceed what its promises allowed, so no
        bin flags over-confident and the run's status is OK."""
        audit = GuaranteeAudit()
        nasa_context.run_instrumented(1.0, 0.5, recorder=audit)
        report = audit.report()
        assert report.total == 120
        assert report.status == AUDIT_STATUS_OK
        assert not any(b.over_confident for b in report.bins)
        for b in report.bins:
            if b.count:
                assert b.wilson_low <= b.success_rate <= b.wilson_high

    def test_blind_predictor_on_dense_failures_trips_degraded(self):
        """A predictor that sees nothing (a = 0) on a failure-dense trace
        over-promises massively; the audit must escalate past OK."""
        from repro.failures.events import FailureEvent, FailureTrace
        from repro.workload.job import Job, JobLog

        jobs = JobLog(
            [
                Job(job_id=i, arrival_time=600.0 * i, size=4, runtime=7200.0)
                for i in range(1, 41)
            ],
            name="dense",
        )
        failures = FailureTrace(
            [
                FailureEvent(
                    event_id=k, time=1800.0 * k, node=(k * 3) % 16,
                    subsystem="memory",
                )
                for k in range(1, 40)
            ],
            name="dense-failures",
        )
        audit = GuaranteeAudit()
        system = ProbabilisticQoSSystem(
            SystemConfig(node_count=16, accuracy=0.0, seed=11),
            jobs,
            failures,
            recorder=audit,
        )
        system.run()
        report = audit.report()
        assert report.status in (AUDIT_STATUS_DEGRADED, AUDIT_STATUS_VIOLATED)
        assert any(b.over_confident for b in report.bins)
        assert report.honoured < report.total


class TestReplicationAuditPoint:
    def test_merges_per_seed_shards(self):
        from repro.experiments.replication import ReplicatedExperiment

        experiment = ReplicatedExperiment("nasa", job_count=30, seeds=(1, 2))
        report = experiment.audit_point(1.0, 0.5)
        assert report.meta == {"merged": 2}
        assert report.total == 60  # every job negotiated in both seeds
        assert validate_audit_report(report.to_dict()) == []
