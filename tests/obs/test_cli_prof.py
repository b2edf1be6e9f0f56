"""End-to-end CLI tests for --prof and `probqos prof`."""

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

    @pytest.mark.parametrize("command", ["report", "export"])
    @pytest.mark.parametrize("shape", ["list", "node-without-cum_ns"])
    def test_prof_commands_reject_json_that_is_not_a_profile(
        self, profile_path, tmp_path, capsys, command, shape
    ):
        doc = load_profile(str(profile_path))
        if shape == "list":
            doc = []
        else:
            next(iter(doc["root"]["children"].values())).pop("cum_ns")
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(doc))
        assert main(["prof", command, str(bogus)]) == 2
        assert "cannot read profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--prof-bucket", "0"),
            ("--prof-bucket", "-1"),
            ("--prof-bucket", "nan"),
            ("--prof-bucket", "inf"),
            ("--prof-bucket", "soon"),
            ("--obs-interval", "0"),
            ("--obs-interval", "-5"),
            ("--obs-interval", "nan"),
            ("--obs-interval", "inf"),
        ],
    )
    def test_interval_flags_reject_non_positive_or_non_finite_seconds(
        self, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "run", "--job-count", "10",
                    "--prof", str(tmp_path / "p.json"),
                    "--obs", str(tmp_path / "o.json"),
                    flag, value,
                ]
            )
        assert exit_info.value.code == 2
        assert "finite seconds > 0" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

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


class TestObsSummarizeJson:
    def test_json_format_matches_the_text_data(self, tmp_path, capsys):
        from repro.obs.export import empty_obs, write_report

        path = tmp_path / "obs.json"
        write_report(str(path), empty_obs())
        assert main(["obs", "summarize", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metric_count"] == 0
        assert doc["series"]["samples"] == 0
