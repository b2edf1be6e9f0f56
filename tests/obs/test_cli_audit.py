"""End-to-end CLI tests for `probqos audit`, the audit view of a trace."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    GuaranteeAudit,
    validate_audit_report,
)
from repro.obs.trace import SpanBuilder, to_chrome_trace

#: The CI trace-smoke points: NASA, and SDSC with its event-less
#: checkpoint-skip records.
POINTS = {
    "nasa": ["--workload", "nasa", "--job-count", "120", "--seed", "3",
             "-a", "0.5", "-U", "0.5"],
    "sdsc": ["--workload", "sdsc", "--job-count", "300", "--seed", "3",
             "-a", "0.7", "-U", "0.9"],
}


def _live_fold(argv, recorder):
    """Fold ``recorder`` live over the point ``run argv`` simulates."""
    from repro.cli import _build_parser, _setup
    from repro.experiments.runner import ExperimentContext

    args = _build_parser().parse_args(["run", *argv])
    ExperimentContext.prepare(_setup(args)).run_instrumented(
        args.accuracy,
        args.user_threshold,
        recorder=recorder,
        checkpoint_policy=args.policy,
        placement=args.placement,
        topology=args.topology,
        failure_jump_epsilon=args.jump_epsilon,
    )
    return recorder


class TestRunWithAudit:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("audit")
        trace = root / "run.jsonl"
        audit = root / "run.audit.json"
        assert main(
            [
                "run",
                "--workload", "nasa",
                "--job-count", "60",
                "--seed", "3",
                "-a", "0.5",
                "-U", "0.5",
                "--trace", str(trace),
            ]
        ) == 0
        assert main(["audit", str(trace), "--out", str(audit)]) == 0
        return trace, audit

    def test_report_file_is_valid_and_covers_every_job(self, paths):
        _, audit = paths
        with open(audit) as fh:
            doc = json.load(fh)
        assert validate_audit_report(doc) == []
        assert doc["schema"] == AUDIT_SCHEMA_VERSION
        assert doc["total"] == 60

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_replaying_the_trace_reproduces_the_live_report(
        self, point, tmp_path, capsys
    ):
        """The views over a ``run --trace`` file equal the folds run live
        over the same point: the audit report (all but its provenance)
        and the Chrome export of the span timeline."""
        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        assert main(["run", *POINTS[point], "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["audit", str(trace), "--format", "json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert main(["trace", "export", str(trace), "--out", str(chrome)]) == 0
        with open(chrome) as fh:
            exported = json.load(fh)

        live = _live_fold(POINTS[point], GuaranteeAudit()).report()
        live_doc = json.loads(live.to_json())
        for doc in (replayed, live_doc):
            doc.pop("meta")
        assert replayed == live_doc
        assert replayed["total"] > 0

        builder = _live_fold(POINTS[point], SpanBuilder())
        timeline = builder.build(
            end_time=builder.last_time, meta={"source": str(trace)}
        )
        # Through JSON, as the export is: tuples become lists.
        assert exported == json.loads(json.dumps(to_chrome_trace(timeline)))
        if point == "sdsc":
            assert any(m.name == "checkpoint_skipped" for m in timeline.marks)


class TestAuditCommand:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("audit-cmd") / "run.jsonl"
        assert main(
            [
                "run", "--workload", "nasa", "--job-count", "40",
                "--seed", "5", "--trace", str(path),
            ]
        ) == 0
        return path

    def test_text_render_tells_the_story(self, trace_path, capsys):
        assert main(["audit", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Guarantee audit — status:" in out
        assert "promises audited: 40" in out
        assert "Reliability" in out
        assert "SLO rollups" in out

    def test_out_and_diagram_csv_files(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv = tmp_path / "diagram.csv"
        code = main(
            ["audit", str(trace_path), "--out", str(out),
             "--diagram-csv", str(csv)]
        )
        assert code == 0
        with open(out) as fh:
            assert validate_audit_report(json.load(fh)) == []
        header = csv.read_text().splitlines()[0]
        assert header.startswith("low,high,count")

    def test_saved_report_is_not_a_trace(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["audit", str(trace_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["audit", str(out)]) == 2
        assert "cannot parse trace" in capsys.readouterr().err

    def test_custom_binning_flags(self, trace_path, capsys):
        assert main(["audit", str(trace_path), "--format", "json",
                     "--bins", "5", "--node-block", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["bin_count"] == 5
        assert len(doc["bins"]) == 5
        assert doc["config"]["node_block"] == 8

    def test_fail_on_degraded_exit_code(self, trace_path, capsys):
        # A max breach rate of zero makes any breach a breach-rate SLO
        # alert, forcing at least DEGRADED deterministically — or the
        # run is flawless and stays OK; accept either pairing.
        code = main(
            ["audit", str(trace_path), "--max-breach-rate", "0.0",
             "--fail-on", "degraded", "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == (0 if doc["status"] == "OK" else 1)

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read audit input" in capsys.readouterr().err


def _negotiated(job_id=1, **detail) -> str:
    return json.dumps(
        {"time": 10.0, "kind": "negotiated", "job_id": job_id, "node": None,
         "detail": dict({"size": 2, "planned_nodes": [0, 1]}, **detail)}
    )


_FINISH = json.dumps(
    {"time": 50.0, "kind": "finish", "job_id": 1, "node": None, "detail": {}}
)


@pytest.mark.parametrize(
    "command, line",
    [
        ("audit", _negotiated(deadline=100.0)),
        ("audit", _negotiated(probability=1.7, deadline=100.0)),
        ("audit", _negotiated(probability=float("nan"), deadline=100.0)),
        ("audit", _negotiated(probability=0.9, deadline="soon")),
        ("audit", _negotiated(job_id=None, probability=0.9, deadline=100.0)),
        ("audit", "[1, 2, 3]"),
        ("trace explain", "[1, 2, 3]"),
        ("trace explain", _negotiated(job_id=None, probability=0.9, deadline=100.0)),
        ("trace explain", _negotiated(probability=0.9, deadline="soon")),
        ("trace explain --format json", _negotiated(probability=0.9, deadline="soon")),
        ("trace export", _negotiated(job_id=None, probability=0.9, deadline=100.0)),
        ("trace export", _negotiated(probability=0.9, deadline="soon")),
    ],
    ids=[
        "no-probability", "probability-1.7", "probability-nan",
        "deadline-soon", "no-job-id", "array-line", "explain-array-line",
        "explain-no-job-id", "explain-deadline-soon", "explain-json-deadline-soon",
        "export-no-job-id", "export-deadline-soon",
    ],
)
def test_malformed_trace_is_a_usage_error(tmp_path, capsys, command, line):
    """A corrupt trace exits 2, never 1 (a violated audit under --fail-on)."""
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n" + _FINISH + "\n")
    argv = command.split() + [str(path)]
    if command == "audit":
        argv += ["--fail-on", "violated"]
    elif "explain" in command:
        argv += ["--job", "1"]
    else:
        argv += ["--out", str(tmp_path / "bad.chrome.json")]
    assert main(argv) == 2
    assert "cannot parse trace" in capsys.readouterr().err


class TestExplainJson:
    def test_explain_format_json(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", "--workload", "nasa", "--job-count", "30",
             "--seed", "3", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "explain", str(trace), "--job", "1",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["job_id"] == 1
        assert doc["verdict"] in ("HONOURED", "BROKEN", "UNKNOWN")
        assert doc["promise"] is not None
        if doc["verdict"] == "HONOURED":
            assert doc["margin"] >= 0.0

    def test_explain_json_unknown_job_fails_like_text(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", "--workload", "nasa", "--job-count", "10",
             "--seed", "3", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "explain", str(trace), "--job", "9999",
             "--format", "json"]
        ) == 1
        assert "no trace of job 9999" in capsys.readouterr().err
