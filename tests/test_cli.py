"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestTables:
    def test_table_1(self, capsys):
        assert main(["table", "1", "--job-count", "300", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "NASA" in out and "SDSC" in out

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "N (nodes)" in out
        assert "720" in out

    def test_unknown_table(self, capsys):
        assert main(["table", "3"]) == 2


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "nasa",
                "--job-count",
                "60",
                "--seed",
                "5",
                "-a",
                "0.5",
                "-U",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QoS" in out
        assert "Avg utilization" in out

    def test_run_with_policy_override(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "nasa",
                "--job-count",
                "40",
                "--seed",
                "5",
                "--policy",
                "periodic",
            ]
        )
        assert code == 0
        assert "periodic" in capsys.readouterr().out


class TestFigureAndHeadline:
    def test_figure_7_small(self, capsys):
        assert main(["figure", "7", "--job-count", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "User Parameter (U)" in out

    def test_figure_jobs_2_prints_what_jobs_1_prints(self, capsys):
        argv = ["figure", "7", "--job-count", "30", "--seed", "5"]
        assert main(argv + ["--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential
        assert "Figure 7" in sequential

    def test_headline_small(self, capsys):
        assert (
            main(["headline", "--workload", "nasa", "--job-count", "40", "--seed", "5"])
            == 0
        )
        assert "Headline comparison" in capsys.readouterr().out


class TestSuggest:
    def test_suggest_prints_offer(self, capsys):
        code = main(
            [
                "suggest",
                "--workload",
                "nasa",
                "--job-count",
                "10",
                "--seed",
                "5",
                "--size",
                "8",
                "--runtime",
                "7200",
                "--target",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Suggested deadline" in out
        assert "promised p" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "1", "--workload", "cray"])


class TestExportAndGantt:
    def test_export_writes_bundle(self, tmp_path, capsys):
        code = main(
            [
                "export",
                str(tmp_path / "bundle"),
                "--workload",
                "nasa",
                "--job-count",
                "25",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert (tmp_path / "bundle" / "workload.swf").exists()
        assert (tmp_path / "bundle" / "failures.csv").exists()
        assert (tmp_path / "bundle" / "manifest.json").exists()
        assert "bundle written" in capsys.readouterr().out

    def test_gantt_renders_chart(self, capsys):
        code = main(
            [
                "gantt",
                "--workload",
                "nasa",
                "--job-count",
                "10",
                "--nodes",
                "8",
                "--seed",
                "5",
                "--width",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node   0" in out
        assert "QoS=" in out
