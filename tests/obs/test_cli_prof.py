"""End-to-end CLI tests for --prof, `probqos prof`, and `probqos bench`."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.prof import (
    PROF_SCHEMA_VERSION,
    aggregate_self,
    load_profile,
    validate_collapsed,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_LEDGER = REPO_ROOT / "benchmarks" / "perf" / "BENCH_ledger.json"


class TestRunWithProf:
    @pytest.fixture(scope="class")
    def profile_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "prof.json"
        code = main(
            [
                "run",
                "--workload", "nasa",
                "--job-count", "120",
                "--seed", "5",
                "-a", "0.5",
                "-U", "0.5",
                "--prof", str(path),
            ]
        )
        assert code == 0
        return path

    def test_profile_round_trips_with_current_schema(self, profile_path):
        snapshot = load_profile(str(profile_path))
        assert snapshot["schema"] == PROF_SCHEMA_VERSION
        assert snapshot["meta"]["workload"] == "nasa"
        assert snapshot["root"]["children"]

    def test_top_zones_name_dispatch_and_ledger(self, profile_path):
        """Acceptance: the hot-path report names event dispatch and the
        reservation ledger."""
        totals = aggregate_self(load_profile(str(profile_path)))
        ranked = sorted(totals, key=lambda n: -totals[n][1])[:8]
        assert any(n.startswith("sim.engine.dispatch.") for n in ranked)
        assert any(n.startswith("cluster.ledger.") for n in ranked)

    def test_prof_report_renders(self, profile_path, capsys):
        assert main(["prof", "report", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.engine.dispatch" in out
        assert "Sim-time buckets" in out

    def test_prof_export_collapsed_validates(self, profile_path, capsys):
        assert main(["prof", "export", str(profile_path)]) == 0
        collapsed = Path(str(profile_path) + ".collapsed").read_text()
        assert validate_collapsed(collapsed) == []
        assert "speedscope" in capsys.readouterr().out

    def test_prof_export_json_prints_the_snapshot(self, profile_path, capsys):
        assert main(
            ["prof", "export", str(profile_path), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == load_profile(str(profile_path))

    def test_prof_report_rejects_missing_file(self, tmp_path, capsys):
        assert main(["prof", "report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read profile" in capsys.readouterr().err

    def test_figure_prof_profiles_the_sweep(self, tmp_path, capsys):
        path = tmp_path / "fig.json"
        code = main(
            [
                "figure", "2",
                "--job-count", "40",
                "--seed", "5",
                "--prof", str(path),
            ]
        )
        assert code == 0
        snapshot = load_profile(str(path))
        point = snapshot["root"]["children"]["experiments.runner.point"]
        assert point["calls"] > 1  # one zone entry per distinct sweep point

    def test_table_prof_writes_an_empty_but_valid_profile(self, tmp_path):
        path = tmp_path / "tab.json"
        assert main(["table", "2", "--prof", str(path)]) == 0
        snapshot = load_profile(str(path))
        assert snapshot["root"]["children"] == {}


class TestBenchCli:
    def test_self_compare_exits_zero(self, capsys):
        code = main(
            [
                "bench", "compare",
                str(COMMITTED_LEDGER), str(COMMITTED_LEDGER),
                "--fail-on-regression",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails_loudly_with_the_zone_diff(self, tmp_path, capsys):
        doc = json.loads(COMMITTED_LEDGER.read_text())
        grid = doc["scenarios"]["figures_grid"]
        # Twice as slow and a full second slower: past both the ratio and
        # the absolute gate, whatever the committed baseline's own timing.
        grid["sequential"]["median_s"] = 2.0 * grid["sequential"]["median_s"] + 1.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doc))
        code = main(
            [
                "bench", "compare",
                str(COMMITTED_LEDGER), str(slow),
                "--fail-on-regression",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "figures_grid" in captured.out
        assert "sequential.median_s" in captured.out
        assert "regression" in captured.err

    def test_json_format_is_machine_readable(self, capsys):
        code = main(
            [
                "bench", "compare",
                str(COMMITTED_LEDGER), str(COMMITTED_LEDGER),
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ok"

    def test_counts_only_flag_reaches_the_comparison(self, capsys):
        code = main(
            [
                "bench", "compare",
                str(COMMITTED_LEDGER), str(COMMITTED_LEDGER),
                "--counts-only", "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"]["counts_only"] is True

    def test_trend_renders_over_ledger_history(self, capsys):
        code = main(
            ["bench", "trend", str(COMMITTED_LEDGER), str(COMMITTED_LEDGER)]
        )
        assert code == 0
        assert "figures_grid" in capsys.readouterr().out

    def test_compare_rejects_a_non_ledger(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        code = main(["bench", "compare", str(COMMITTED_LEDGER), str(bogus)])
        assert code == 2
        assert "cannot compare" in capsys.readouterr().err


class TestObsSummarizeJson:
    def test_json_format_matches_the_text_data(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        assert main(["table", "2", "--prof", str(tmp_path / "p.json"),
                     "--obs", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metric_count"] == 0
        assert doc["series"]["samples"] == 0
