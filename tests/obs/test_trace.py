"""Unit tests for the causal span layer, Chrome export, and audit trail."""

from __future__ import annotations

import copy

import pytest

from repro.obs.trace import (
    SPAN_SCHEMA_VERSION,
    SpanBuilder,
    explain_job,
    summarize_timeline,
    timeline_from_records,
    to_chrome_trace,
    validate_chrome_trace,
)


def killed_and_requeued_trace() -> SpanBuilder:
    """One job's full story: promise, run, skip, checkpoint, kill, retry."""
    builder = SpanBuilder(keep_in_memory=True)
    builder.record(
        0.0, "negotiated", job_id=1,
        deadline=500.0, probability=0.9, predicted_pf=0.05,
        user_threshold=0.5, planned_start=10.0, planned_nodes=[0, 1],
        size=2, offers_made=1, offers_declined=0, forced=False,
    )
    builder.record(10.0, "start", job_id=1, nodes=[0, 1])
    builder.record(
        60.0, "checkpoint_skipped", job_id=1,
        reason="risk-below-overhead", p_f=0.01, at_risk=100.0,
    )
    builder.record(
        120.0, "checkpoint_performed", job_id=1,
        saved_progress=100.0, began_at=110.0,
        reason="risk-exceeds-overhead", p_f=0.4,
    )
    builder.record(150.0, "failure", node=0, victim=1)
    builder.record(150.0, "node_down", node=0, until=270.0)
    builder.record(
        150.0, "killed", job_id=1,
        lost_node_seconds=60.0, lost_wall_seconds=30.0, durable_progress=100.0,
    )
    builder.record(150.0, "requeued", job_id=1, restart_at=300.0, nodes=[2, 3])
    builder.record(270.0, "node_up", node=0)
    builder.record(300.0, "start", job_id=1, nodes=[2, 3])
    builder.record(
        400.0, "finish", job_id=1, deadline=500.0, promised=0.9, met=True,
    )
    return builder


def evacuated_trace() -> SpanBuilder:
    """A job that checkpoints, evacuates voluntarily, and restarts elsewhere."""
    builder = SpanBuilder(keep_in_memory=True)
    builder.record(
        0.0, "negotiated", job_id=7,
        deadline=900.0, probability=0.95, predicted_pf=0.02,
        user_threshold=0.3, planned_start=5.0, planned_nodes=[0],
        size=1, offers_made=1, offers_declined=0, forced=False,
    )
    builder.record(5.0, "start", job_id=7, nodes=[0])
    builder.record(
        100.0, "checkpoint_performed", job_id=7,
        saved_progress=90.0, began_at=95.0, reason="periodic-always", p_f=None,
    )
    builder.record(100.0, "evacuated", job_id=7, predicted_pf=0.8, nodes=[0])
    builder.record(100.0, "requeued", job_id=7, restart_at=200.0, nodes=[3])
    builder.record(200.0, "start", job_id=7, nodes=[3])
    builder.record(
        350.0, "finish", job_id=7, deadline=900.0, promised=0.95, met=True,
    )
    return builder


class TestSpanAssembly:
    def test_lifecycle_spans_in_order(self):
        timeline = killed_and_requeued_trace().build()
        spans, _ = timeline.for_job(1)
        assert [(s.name, s.start, s.end) for s in spans] == [
            ("queued", 0.0, 10.0),
            ("running", 10.0, 150.0),
            ("checkpoint", 110.0, 120.0),
            ("queued", 150.0, 300.0),
            ("running", 300.0, 400.0),
        ]

    def test_attempt_counter_increments_across_restarts(self):
        timeline = killed_and_requeued_trace().build()
        runs = [s for s in timeline.spans if s.name == "running"]
        assert [s.attrs["attempt"] for s in runs] == [1, 2]

    def test_outcome_attrs_close_the_running_spans(self):
        timeline = killed_and_requeued_trace().build()
        runs = [s for s in timeline.spans if s.name == "running"]
        assert runs[0].attrs["outcome"] == "killed"
        assert runs[0].attrs["lost_node_seconds"] == 60.0
        assert runs[1].attrs["outcome"] == "finished"

    def test_checkpoint_span_uses_began_at_for_its_start(self):
        timeline = killed_and_requeued_trace().build()
        ckpt = next(s for s in timeline.spans if s.name == "checkpoint")
        assert (ckpt.start, ckpt.end) == (110.0, 120.0)
        assert "began_at" not in ckpt.attrs  # consumed, not duplicated
        assert ckpt.attrs["reason"] == "risk-exceeds-overhead"

    def test_queued_span_carries_the_promise_context(self):
        timeline = killed_and_requeued_trace().build()
        queued = next(s for s in timeline.spans if s.name == "queued")
        assert queued.attrs["probability"] == 0.9
        assert queued.attrs["predicted_pf"] == 0.05
        assert queued.attrs["user_threshold"] == 0.5

    def test_requeue_opens_a_second_queued_span(self):
        timeline = killed_and_requeued_trace().build()
        queued = [s for s in timeline.spans if s.name == "queued"]
        assert queued[1].attrs["restart_at"] == 300.0
        assert queued[1].attrs["nodes"] == [2, 3]

    def test_node_down_span_closes_on_node_up(self):
        timeline = killed_and_requeued_trace().build()
        down = [s for s in timeline.spans if s.track == "node"]
        assert [(s.name, s.track_id, s.start, s.end) for s in down] == [
            ("down", 0, 150.0, 270.0)
        ]

    def test_marks_capture_decisions_and_outcomes(self):
        timeline = killed_and_requeued_trace().build()
        names = [m.name for m in timeline.marks]
        for expected in (
            "negotiated", "checkpoint_skipped", "failure",
            "killed", "requeued", "finish",
        ):
            assert expected in names

    def test_evacuation_closes_the_run_and_restarts_elsewhere(self):
        timeline = evacuated_trace().build()
        spans, marks = timeline.for_job(7)
        assert [s.name for s in spans] == [
            "queued", "running", "checkpoint", "queued", "running",
        ]
        first_run = next(s for s in spans if s.name == "running")
        assert first_run.attrs["outcome"] == "evacuated"
        assert first_run.attrs["predicted_pf"] == 0.8
        assert [s.attrs["attempt"] for s in spans if s.name == "running"] == [1, 2]
        assert any(m.name == "evacuated" for m in marks)

    def test_job_and_node_id_queries(self):
        timeline = killed_and_requeued_trace().build()
        assert timeline.job_ids() == [1]
        assert timeline.node_ids() == [0]
        assert timeline.meta["schema"] == SPAN_SCHEMA_VERSION


class TestBuildSemantics:
    def open_run_builder(self) -> SpanBuilder:
        builder = SpanBuilder(keep_in_memory=True)
        builder.record(0.0, "start", job_id=1, nodes=[0])
        builder.record(50.0, "node_down", node=4, until=170.0)
        return builder

    def test_open_spans_dropped_without_end_time(self):
        assert self.open_run_builder().build().spans == []

    def test_open_spans_closed_and_flagged_with_end_time(self):
        timeline = self.open_run_builder().build(end_time=80.0)
        assert [(s.name, s.end, s.attrs["open"]) for s in timeline.spans] == [
            ("running", 80.0, True),
            ("down", 80.0, True),
        ]

    def test_build_is_non_destructive(self):
        builder = self.open_run_builder()
        builder.build(end_time=80.0)
        builder.record(100.0, "finish", job_id=1)
        timeline = builder.build()
        run = next(s for s in timeline.spans if s.name == "running")
        assert run.end == 100.0
        assert "open" not in run.attrs

    def test_end_time_never_precedes_span_start(self):
        timeline = self.open_run_builder().build(end_time=20.0)
        down = next(s for s in timeline.spans if s.name == "down")
        assert down.end == down.start == 50.0

    def test_last_time_tracks_the_record_stream(self):
        builder = SpanBuilder()
        assert builder.last_time == 0.0
        builder.record(42.0, "start", job_id=1)
        assert builder.last_time == 42.0

    def test_meta_merges_over_the_schema_stamp(self):
        timeline = SpanBuilder().build(meta={"workload_jobs": 3})
        assert timeline.meta == {
            "schema": SPAN_SCHEMA_VERSION, "workload_jobs": 3,
        }


class TestReplayEquivalence:
    def test_replay_reproduces_the_live_timeline(self):
        builder = killed_and_requeued_trace()
        live = builder.build(end_time=builder.last_time)
        replayed = timeline_from_records(builder.records)
        assert replayed.spans == live.spans
        assert replayed.marks == live.marks

    def test_replay_equivalence_for_a_full_simulation(
        self, tiny_jobs, tiny_failures
    ):
        from repro.core.system import ProbabilisticQoSSystem, SystemConfig

        builder = SpanBuilder(keep_in_memory=True)
        system = ProbabilisticQoSSystem(
            SystemConfig(node_count=16, accuracy=0.5, seed=7),
            tiny_jobs,
            tiny_failures,
            recorder=builder,
        )
        system.run()
        live = builder.build(end_time=system.loop.now)
        replayed = timeline_from_records(
            builder.records, end_time=system.loop.now
        )
        assert replayed.spans == live.spans
        assert replayed.marks == live.marks


class TestChromeExport:
    def chrome_doc(self):
        builder = killed_and_requeued_trace()
        return to_chrome_trace(builder.build(end_time=builder.last_time))

    def test_document_shape(self):
        doc = self.chrome_doc()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["schema"] == SPAN_SCHEMA_VERSION
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_track_metadata_names_jobs_and_nodes(self):
        meta = [e for e in self.chrome_doc()["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"jobs", "nodes", "job 1", "node 0"} <= names

    def test_spans_become_complete_events_in_microseconds(self):
        doc = self.chrome_doc()
        runs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "running"
        ]
        assert [(e["ts"], e["dur"]) for e in runs] == [
            (10.0e6, 140.0e6),
            (300.0e6, 100.0e6),
        ]

    def test_marks_become_instant_events(self):
        doc = self.chrome_doc()
        kills = [e for e in doc["traceEvents"] if e["name"] == "killed"]
        assert kills[0]["ph"] == "i"
        assert kills[0]["s"] == "t"
        assert kills[0]["args"]["lost_node_seconds"] == 60.0

    def test_validator_accepts_the_export(self):
        assert validate_chrome_trace(self.chrome_doc()) == []

    def test_large_timestamps_survive_scaling(self):
        # Regression: week-scale sim times (~1e10 µs scaled) used to trip
        # the nesting check — ts + dur of a span missed its sibling's ts
        # by more than the fixed epsilon, reading as a partial overlap.
        builder = SpanBuilder()
        t0 = 386810.2815667748  # adjacent spans sharing one boundary whose
        t1 = 671210.7001975202  # naive scaled duration overshoots the ts
        t2 = 891210.4176690197
        builder.record(t0, "start", job_id=1, nodes=[0])
        builder.record(t1, "killed", job_id=1)
        builder.record(t1, "requeued", job_id=1, restart_at=t2)
        builder.record(t2, "start", job_id=1, nodes=[1])
        builder.record(t2 + 100.0, "finish", job_id=1)
        doc = to_chrome_trace(builder.build(end_time=builder.last_time))
        assert validate_chrome_trace(doc) == []

    def test_nested_checkpoint_sorts_inside_its_run(self):
        doc = self.chrome_doc()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = [e["name"] for e in xs]
        # The enclosing running span must precede the checkpoint it contains.
        assert names.index("running") < names.index("checkpoint")


class TestChromeValidatorRejections:
    def valid_doc(self):
        builder = killed_and_requeued_trace()
        return to_chrome_trace(builder.build(end_time=builder.last_time))

    def test_non_object_document(self):
        assert validate_chrome_trace([1, 2]) == ["top level is not a JSON object"]

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]

    def test_unknown_phase(self):
        doc = copy.deepcopy(self.valid_doc())
        doc["traceEvents"][0]["ph"] = "Z"
        assert any("unknown phase" in p for p in validate_chrome_trace(doc))

    def test_missing_required_fields(self):
        doc = {"traceEvents": [{"ph": "i", "name": "x"}]}
        assert any("missing" in p for p in validate_chrome_trace(doc))

    def test_complete_event_without_dur(self):
        doc = copy.deepcopy(self.valid_doc())
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
                break
        assert any("without dur" in p for p in validate_chrome_trace(doc))

    def test_negative_dur(self):
        doc = copy.deepcopy(self.valid_doc())
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                event["dur"] = -1.0
                break
        assert any("negative dur" in p for p in validate_chrome_trace(doc))

    def test_out_of_order_timestamps(self):
        doc = copy.deepcopy(self.valid_doc())
        non_meta = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        non_meta[-1]["ts"] = 0.0
        assert any("precedes" in p for p in validate_chrome_trace(doc))

    def test_partially_overlapping_spans_on_one_track(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
            ]
        }
        assert any("partially overlaps" in p for p in validate_chrome_trace(doc))

    def test_nested_spans_on_one_track_are_fine(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 20.0, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
            ]
        }
        assert validate_chrome_trace(doc) == []


class TestExplainJob:
    def audit(self) -> str:
        builder = killed_and_requeued_trace()
        return explain_job(builder.build(end_time=builder.last_time), 1)

    def test_promise_and_evidence(self):
        text = self.audit()
        assert "promised p=0.9000" in text
        assert "predictor believed p_f=0.0500" in text
        assert "risk threshold U=0.50" in text
        assert "planned start t=10" in text

    def test_every_checkpoint_decision_is_numbered_with_rationale(self):
        text = self.audit()
        assert "checkpoint request #1: SKIPPED (risk-below-overhead" in text
        assert "checkpoint request #2: performed (risk-exceeds-overhead" in text

    def test_kill_cost_and_retry_are_reported(self):
        text = self.audit()
        assert "KILLED by node failure: 60 node-seconds of work lost" in text
        assert "requeued" in text
        assert "attempt 2" in text

    def test_kill_precedes_the_requeue_it_caused(self):
        text = self.audit()
        assert text.index("KILLED") < text.index("requeued (")

    def test_verdict_honoured_with_margin(self):
        assert "guarantee HONOURED (margin +100 s)" in self.audit()

    def test_verdict_broken_when_never_finished(self):
        builder = SpanBuilder(keep_in_memory=True)
        builder.record(
            0.0, "negotiated", job_id=3, deadline=100.0, probability=0.8,
        )
        builder.record(10.0, "start", job_id=3, nodes=[0])
        text = explain_job(builder.build(end_time=50.0), 3)
        assert "still running at end of trace" in text
        assert "never finished within the trace — guarantee BROKEN" in text

    def test_evacuation_story(self):
        builder = evacuated_trace()
        text = explain_job(builder.build(end_time=builder.last_time), 7)
        assert "evacuated voluntarily (predicted p_f=0.8000)" in text
        assert "guarantee HONOURED" in text

    def test_unknown_job_raises_key_error(self):
        builder = killed_and_requeued_trace()
        with pytest.raises(KeyError, match="job 99"):
            explain_job(builder.build(), 99)


class TestSummarizeTimeline:
    def test_counts_and_horizon(self):
        builder = killed_and_requeued_trace()
        text = summarize_timeline(builder.build(end_time=builder.last_time))
        assert "1 job" in text
        assert "running" in text
        assert "queued" in text
