"""Unit tests for the structured trace recorder."""

from __future__ import annotations

import io

import pytest

from repro.obs.tracelog import (
    TraceRecord,
    TraceRecorder,
    check_record,
    load_jsonl,
)


class TestRecording:
    def test_records_accumulate_in_order(self):
        recorder = TraceRecorder()
        recorder.record(1.0, "start", job_id=1, nodes=[0, 1])
        recorder.record(2.0, "finish", job_id=1)
        assert len(recorder) == 2
        assert [r.kind for r in recorder] == ["start", "finish"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record kind"):
            TraceRecorder().record(0.0, "teleported", job_id=1)

    def test_detail_captured(self):
        recorder = TraceRecorder()
        recorder.record(5.0, "negotiated", job_id=3, probability=0.9)
        assert recorder.records[0].detail == {"probability": 0.9}

    def test_of_kind_filters(self):
        recorder = TraceRecorder()
        recorder.record(1.0, "start", job_id=1)
        recorder.record(2.0, "failure", node=4)
        recorder.record(3.0, "start", job_id=2)
        assert len(recorder.of_kind("start")) == 2
        with pytest.raises(ValueError):
            recorder.of_kind("nonsense")

    def test_for_job_life_story(self):
        recorder = TraceRecorder()
        recorder.record(1.0, "start", job_id=1)
        recorder.record(2.0, "start", job_id=2)
        recorder.record(3.0, "finish", job_id=1)
        assert [r.kind for r in recorder.for_job(1)] == ["start", "finish"]

    def test_counts(self):
        recorder = TraceRecorder()
        recorder.record(1.0, "start", job_id=1)
        recorder.record(2.0, "start", job_id=2)
        recorder.record(3.0, "failure", node=0)
        assert recorder.counts() == {"start": 2, "failure": 1}


class TestStreamingAndNull:
    def test_jsonl_streaming_roundtrip(self):
        stream = io.StringIO()
        recorder = TraceRecorder(stream=stream)
        recorder.record(1.5, "start", job_id=7, nodes=[0])
        recorder.record(9.0, "node_down", node=3, until=129.0)
        parsed = load_jsonl(stream.getvalue().splitlines())
        assert len(parsed) == 2
        assert parsed[0].job_id == 7
        assert parsed[1].node == 3
        assert parsed[1].detail == {"until": 129.0}

    def test_memory_can_be_disabled(self):
        stream = io.StringIO()
        recorder = TraceRecorder(stream=stream, keep_in_memory=False)
        recorder.record(1.0, "start", job_id=1)
        assert len(recorder) == 0
        assert "start" in stream.getvalue()

    def test_record_to_json_is_one_line(self):
        record = TraceRecord(time=1.0, kind="finish", job_id=2)
        assert "\n" not in record.to_json()
        assert '"finish"' in record.to_json()

    def test_load_jsonl_rejects_unknown_kinds(self):
        lines = ['{"time": 1.0, "kind": "teleported", "job_id": 2}']
        with pytest.raises(ValueError, match="teleported"):
            load_jsonl(lines)

    def test_load_jsonl_strict_false_keeps_unknown_kinds(self):
        lines = [
            '{"time": 1.0, "kind": "start", "job_id": 2}',
            '{"time": 2.0, "kind": "teleported", "job_id": 2}',
        ]
        parsed = load_jsonl(lines, strict=False)
        assert [r.kind for r in parsed] == ["start", "teleported"]

    def test_memory_disabled_keeps_indexed_queries_empty(self):
        recorder = TraceRecorder(stream=io.StringIO(), keep_in_memory=False)
        recorder.record(1.0, "start", job_id=1)
        assert recorder.of_kind("start") == []
        assert recorder.for_job(1) == []
        assert recorder.counts() == {}


class TestFromRecords:
    def live_recorder(self) -> TraceRecorder:
        recorder = TraceRecorder()
        recorder.record(1.0, "start", job_id=1, nodes=[0])
        recorder.record(2.0, "failure", node=0, victim=1)
        recorder.record(2.0, "killed", job_id=1, lost_wall_seconds=1.0)
        recorder.record(9.0, "start", job_id=2, nodes=[3])
        return recorder

    def test_replay_rebuilds_the_indexes(self):
        live = self.live_recorder()
        replayed = TraceRecorder().consume(live.records)
        assert replayed.records == live.records
        assert replayed.counts() == live.counts()
        assert replayed.of_kind("start") == live.of_kind("start")
        assert [r.kind for r in replayed.for_job(1)] == ["start", "killed"]

    def test_replay_through_a_jsonl_roundtrip(self):
        stream = io.StringIO()
        live = TraceRecorder(stream=stream)
        live.record(1.5, "negotiated", job_id=4, probability=0.75)
        live.record(3.0, "finish", job_id=4, met=True)
        replayed = TraceRecorder().consume(
            load_jsonl(stream.getvalue().splitlines())
        )
        assert replayed.records == live.records

    def test_replay_validates_kinds(self):
        bogus = TraceRecord(time=1.0, kind="teleported", job_id=1)
        with pytest.raises(ValueError, match="teleported"):
            TraceRecorder().consume([bogus])

    def test_replay_can_restream(self):
        stream = io.StringIO()
        live = self.live_recorder()
        TraceRecorder(stream=stream, keep_in_memory=False).consume(
            live.records
        )
        assert load_jsonl(stream.getvalue().splitlines()) == live.records

    def test_to_json_parses_back_to_the_same_record(self):
        import json

        record = TraceRecord(
            time=2.5, kind="negotiated", job_id=3, detail={"probability": 0.9}
        )
        data = json.loads(record.to_json())
        assert data == {
            "time": 2.5,
            "kind": "negotiated",
            "job_id": 3,
            "node": None,
            "detail": {"probability": 0.9},
        }


class TestCheckRecord:
    """One validator guards both folds over the record stream."""

    GOOD = {"probability": 0.9, "deadline": 100.0}

    @pytest.mark.parametrize(
        "record, match",
        [
            (TraceRecord(1.0, "negotiated", None, None, dict(GOOD)), "no job_id"),
            (TraceRecord(1.0, "start", None, None, {}), "no job_id"),
            (
                TraceRecord(1.0, "negotiated", 3, None, {"probability": 0.9}),
                "deadline None",
            ),
            (
                TraceRecord(
                    1.0, "negotiated", 3, None,
                    {"probability": 0.9, "deadline": "soon"},
                ),
                "deadline 'soon'",
            ),
            (
                TraceRecord(
                    1.0, "negotiated", 3, None,
                    {"probability": 1.5, "deadline": 100.0},
                ),
                r"not in \[0, 1\]",
            ),
            (TraceRecord(1.0, "finish", 3, None, {"deadline": "x"}), "deadline"),
            (
                TraceRecord(1.0, "checkpoint_performed", 3, None, {"began_at": "x"}),
                "began_at",
            ),
            (TraceRecord("t", "failure", None, 2, {}), "time 't'"),
        ],
        ids=[
            "negotiated-no-job", "start-no-job", "no-deadline", "string-deadline",
            "probability-1.5", "finish-string-deadline", "string-began-at",
            "string-time",
        ],
    )
    def test_malformed_records_rejected_by_both_folds(self, record, match):
        from repro.obs.audit import GuaranteeAudit
        from repro.obs.trace import timeline_from_records

        with pytest.raises(ValueError, match=match):
            check_record(record)
        with pytest.raises(ValueError, match=match):
            timeline_from_records([record])
        with pytest.raises(ValueError, match=match):
            GuaranteeAudit().consume([record])

    def test_well_formed_records_pass(self):
        check_record(TraceRecord(1.0, "negotiated", 3, None, dict(self.GOOD)))
        check_record(TraceRecord(2.0, "finish", 3, None, {"deadline": None}))
        check_record(TraceRecord(2.0, "failure", None, 4, {}))
