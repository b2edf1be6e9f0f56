"""End-to-end CLI tests for --obs reports and `probqos obs summarize`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import OBS_SCHEMA_VERSION, load_report

#: The acceptance floor: an instrumented run must surface at least this
#: many distinct metrics spanning at least these layers.
MIN_METRICS = 12
REQUIRED_LAYERS = {"sim", "cluster", "scheduling", "negotiation", "checkpointing"}


class TestRunWithObs:
    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "obs.json"
        code = main(
            [
                "run",
                "--workload", "nasa",
                "--job-count", "120",
                "--seed", "5",
                "-a", "0.5",
                "-U", "0.5",
                "--obs", str(path),
                "--obs-interval", "1800",
            ]
        )
        assert code == 0
        return path

    def test_report_is_parseable_json_with_current_schema(self, report_path):
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["schema"] == OBS_SCHEMA_VERSION
        assert load_report(str(report_path)) == report

    def test_metric_breadth_meets_the_floor(self, report_path):
        report = load_report(str(report_path))
        assert len(report["metric_names"]) >= MIN_METRICS
        assert REQUIRED_LAYERS <= set(report["layers"])

    def test_headline_counters_match_simulation_result(self, report_path):
        # The CLI printed 120/120 jobs completed for this seed; the counter
        # in the report must agree with the simulated workload size.
        report = load_report(str(report_path))
        counters = report["metrics"]["counters"]
        assert counters["core.system.jobs_completed"] == 120
        assert counters["negotiation.dialogue.dialogues"] == 120
        assert counters["sim.engine.dispatched.arrival"] == 120

    def test_series_rows_ride_along(self, report_path):
        report = load_report(str(report_path))
        assert report["series"]["interval"] == 1800.0
        rows = report["series"]["rows"]
        assert len(rows) >= 2
        assert rows[0]["time"] == 0.0
        times = [row["time"] for row in rows]
        assert times == sorted(times)

    def test_summarize_round_trips(self, report_path, capsys):
        assert main(["obs", "summarize", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Observability report" in out
        assert "core.system.jobs_completed" in out
        assert "Time series" in out

    def test_summarize_rejects_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_summarize_rejects_wrong_schema(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": 999}))
        assert main(["obs", "summarize", str(bogus)]) == 2

    def test_obs_interval_without_obs_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "run", "--workload", "nasa", "--job-count", "20",
                "--seed", "5", "--obs-interval", "1800",
            ]
        )
        assert code == 2
        assert "--obs-interval needs --obs" in capsys.readouterr().err


class TestFigureAndTableWithObs:
    def test_figure_obs_aggregates_sweep_counters(self, tmp_path, capsys):
        path = tmp_path / "fig.json"
        code = main(
            ["figure", "7", "--job-count", "40", "--seed", "5", "--obs", str(path)]
        )
        assert code == 0
        report = load_report(str(path))
        counters = report["metrics"]["counters"]
        # Figure 7 sweeps many (a, U) points over a 40-job log; dialogues
        # aggregate across every distinct simulation the sweep executed.
        assert counters["negotiation.dialogue.dialogues"] >= 40
        assert "observability report written" in capsys.readouterr().out
