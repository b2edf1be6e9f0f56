"""Unit tests for obs reports: assembly, sparklines and the series section."""

from __future__ import annotations

from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    SERIES_TOP_K,
    _sparkline,
    build_report,
    summarize,
)


class TestBuildReport:
    def test_layers_and_metric_names(self):
        obs = {
            "counters": {"sim.engine.scheduled": 3, "cluster.ledger.probes": 2},
            "gauges": {"sim.engine.pending_total": 1.0},
        }
        report = build_report(obs, meta={"command": "run"})
        assert report["schema"] == OBS_SCHEMA_VERSION
        assert report["metric_names"] == [
            "cluster.ledger.probes",
            "sim.engine.pending_total",
            "sim.engine.scheduled",
        ]
        assert report["layers"] == ["cluster", "sim"]
        assert report["metrics"] == obs
        assert report["series"] == {"interval": None, "rows": []}


class TestSparkline:
    def test_empty_series(self):
        assert _sparkline([]) == ""

    def test_monotone_ramp_uses_rising_levels(self):
        line = _sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line == "".join(sorted(line))
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_at_the_lowest_level(self):
        assert _sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_long_series_is_bucketed_to_width(self):
        line = _sparkline([float(i) for i in range(1000)], width=24)
        assert len(line) == 24
        assert line == "".join(sorted(line))

    def test_spike_lands_in_one_column(self):
        line = _sparkline([0.0] * 10 + [100.0] + [0.0] * 10)
        assert line.count("█") == 1


def report_with_series(rows):
    return {
        "schema": OBS_SCHEMA_VERSION,
        "meta": {},
        "metric_names": [],
        "layers": [],
        "metrics": {"counters": {}, "gauges": {}},
        "series": {"interval": 10.0, "rows": rows},
    }


class TestSummarizeSeries:
    def test_top_metrics_get_sparklines(self):
        rows = [
            {"time": float(t), "metrics": {"jobs.done": float(t), "queue": 1.0}}
            for t in range(5)
        ]
        text = summarize(report_with_series(rows))
        assert "top 2 metrics by final value" in text
        lines = text.splitlines()
        done = next(l for l in lines if "jobs.done" in l)
        assert "▁" in done and "█" in done
        assert "min=0" in done and "max=4" in done and "final=4" in done

    def test_top_k_caps_the_section(self):
        rows = [
            {
                "time": float(t),
                "metrics": {f"m{i:02d}": float(i) for i in range(20)},
            }
            for t in range(3)
        ]
        text = summarize(report_with_series(rows))
        assert f"top {SERIES_TOP_K} metrics" in text
        # Highest final values win: m19 shown, m00 not.
        assert "m19" in text
        assert "m00" not in text

    def test_no_sampler_message_still_prints(self):
        text = summarize(report_with_series([]))
        assert "no samples" in text
