"""End-to-end CLI tests for --trace flight recording and `probqos trace`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.trace import validate_chrome_trace
from repro.obs.tracelog import load_jsonl


class TestRunWithTrace:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        code = main(
            [
                "run",
                "--workload", "nasa",
                "--job-count", "60",
                "--seed", "3",
                "-a", "0.5",
                "-U", "0.5",
                "--trace", str(path),
            ]
        )
        assert code == 0
        return path

    def test_trace_file_is_loadable_jsonl(self, trace_path):
        with open(trace_path) as fh:
            records = load_jsonl(fh)
        kinds = {r.kind for r in records}
        assert {"negotiated", "start", "finish"} <= kinds
        assert len([r for r in records if r.kind == "negotiated"]) == 60

    def test_run_points_at_the_views(self, trace_path, capsys):
        again = trace_path.parent / "again.jsonl"
        code = main(
            [
                "run",
                "--workload", "nasa",
                "--job-count", "30",
                "--seed", "3",
                "--trace", str(again),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The run records; folding the records is the views' job.
        assert "Span timeline:" not in out
        (pointer,) = [line for line in out.splitlines() if str(again) in line]
        for view in ("trace export", "trace explain", "audit"):
            assert f"probqos {view} {again}" in pointer

    def test_export_writes_valid_chrome_json(self, trace_path, tmp_path, capsys):
        out = tmp_path / "trace.chrome.json"
        code = main(
            ["trace", "export", str(trace_path), "--format", "chrome",
             "--out", str(out)]
        )
        assert code == 0
        assert "chrome trace written" in capsys.readouterr().out
        with open(out) as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_export_defaults_the_output_path(self, trace_path, capsys):
        assert main(["trace", "export", str(trace_path)]) == 0
        default = str(trace_path) + ".chrome.json"
        assert default in capsys.readouterr().out
        with open(default) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_explain_reconstructs_a_guarantee_story(self, trace_path, capsys):
        assert main(["trace", "explain", str(trace_path), "--job", "1"]) == 0
        out = capsys.readouterr().out
        assert "guarantee audit trail" in out
        assert "negotiated: promised p=" in out
        assert "Verdict:" in out

    def test_explain_unknown_job_lists_whats_there(self, trace_path, capsys):
        assert main(["trace", "explain", str(trace_path), "--job", "9999"]) == 1
        err = capsys.readouterr().err
        assert "no trace of job 9999" in err
        assert "jobs present:" in err

    def test_unreadable_trace_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "export", str(missing)]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestBatchCommandsWithTrace:
    def test_figure_trace_forces_sequential_execution(self, tmp_path, capsys):
        path = tmp_path / "fig.jsonl"
        code = main(
            [
                "figure", "7",
                "--job-count", "30",
                "--seed", "5",
                "--jobs", "4",
                "--trace", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("--trace forces --jobs 1\n")
        assert "trace written to" in out
        with open(path) as fh:
            records = load_jsonl(fh)
        assert len(records) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--audit", "a.json"],
        ["figure", "7", "--audit", "a.json"],
        ["table", "2", "--trace", "t.jsonl"],
        ["table", "2", "--audit", "a.json"],
        ["table", "2", "--obs", "o.json"],
        ["table", "2", "--prof", "p.json"],
        ["table", "2", "--prof-bucket", "60"],
        ["figure", "7", "--cache-dir", "d"],
        ["report", "--cache-dir", "d"],
        ["suggest", "--size", "4", "--runtime", "60", "--cache-dir", "d"],
        ["table", "2", "--jobs", "2"],
        ["suggest", "--size", "4", "--runtime", "60", "--jobs", "2"],
    ],
    ids=[
        "run-audit", "figure-audit", "table-trace", "table-audit",
        "table-obs", "table-prof", "table-prof-bucket",
        "figure-disk-cache", "report-disk-cache", "suggest-disk-cache",
        "table-jobs", "suggest-jobs",
    ],
)
def test_retired_instrument_options_are_usage_errors(argv, capsys):
    """The audit is a view over a trace, tables and suggestions simulate no
    sweep, and sweep points have no on-disk cache, so these options are
    gone; argparse rejects them before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
