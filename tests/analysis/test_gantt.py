"""Unit tests for the ASCII schedule visualiser."""

from __future__ import annotations

from repro.obs.gantt import (
    downtime_intervals,
    occupancy_intervals,
    render_gantt,
)
from repro.obs.tracelog import TraceRecorder


def scripted_trace():
    recorder = TraceRecorder()
    recorder.record(0.0, "start", job_id=1, nodes=[0, 1])
    recorder.record(50.0, "node_down", node=3, until=80.0)
    recorder.record(80.0, "node_up", node=3)
    recorder.record(100.0, "finish", job_id=1)
    recorder.record(100.0, "start", job_id=2, nodes=[2])
    recorder.record(150.0, "killed", job_id=2)
    recorder.record(160.0, "start", job_id=2, nodes=[2])
    recorder.record(200.0, "finish", job_id=2)
    return recorder


class TestIntervalReconstruction:
    def test_occupancy_from_start_finish(self):
        intervals = occupancy_intervals(scripted_trace())
        job1 = [i for i in intervals if i.job_id == 1]
        assert {(i.node, i.start, i.end) for i in job1} == {
            (0, 0.0, 100.0),
            (1, 0.0, 100.0),
        }

    def test_kill_closes_interval_and_restart_reopens(self):
        intervals = occupancy_intervals(scripted_trace())
        job2 = sorted(
            (i for i in intervals if i.job_id == 2), key=lambda i: i.start
        )
        assert [(i.start, i.end) for i in job2] == [(100.0, 150.0), (160.0, 200.0)]

    def test_downtime_windows(self):
        assert downtime_intervals(scripted_trace()) == [(3, 50.0, 80.0)]


class TestRendering:
    def test_rows_and_legend(self):
        chart = render_gantt(scripted_trace(), node_count=4, width=40)
        lines = chart.splitlines()
        assert any(line.startswith("node   0") for line in lines)
        assert "jobs:" in lines[-1]

    def test_downtime_marker_present(self):
        chart = render_gantt(scripted_trace(), node_count=4, width=40)
        row3 = next(l for l in chart.splitlines() if l.startswith("node   3"))
        assert "#" in row3

    def test_occupancy_symbols_present(self):
        chart = render_gantt(scripted_trace(), node_count=4, width=40)
        row0 = next(l for l in chart.splitlines() if l.startswith("node   0"))
        assert "1" in row0

    def test_empty_trace(self):
        assert render_gantt(TraceRecorder(), node_count=4) == "(empty trace)"

    def test_width_respected(self):
        chart = render_gantt(scripted_trace(), node_count=2, width=25)
        row = next(l for l in chart.splitlines() if l.startswith("node"))
        body = row.split("|")[1]
        assert len(body) == 25


def churn_trace():
    """Evacuation and requeue churn: job 1 moves nodes twice."""
    recorder = TraceRecorder()
    recorder.record(0.0, "start", job_id=1, nodes=[0, 1])
    recorder.record(40.0, "checkpoint_performed", job_id=1, began_at=35.0)
    recorder.record(40.0, "evacuated", job_id=1, predicted_pf=0.7, nodes=[0, 1])
    recorder.record(40.0, "requeued", job_id=1, restart_at=60.0, nodes=[2, 3])
    recorder.record(60.0, "start", job_id=1, nodes=[2, 3])
    recorder.record(90.0, "killed", job_id=1)
    recorder.record(90.0, "requeued", job_id=1, restart_at=120.0, nodes=[0, 1])
    recorder.record(120.0, "start", job_id=1, nodes=[0, 1])
    recorder.record(200.0, "finish", job_id=1)
    return recorder


class TestChurnReconstruction:
    def test_evacuation_closes_the_interval_on_the_old_nodes(self):
        intervals = occupancy_intervals(churn_trace())
        first_leg = [i for i in intervals if i.start == 0.0]
        assert {(i.node, i.end) for i in first_leg} == {(0, 40.0), (1, 40.0)}

    def test_each_attempt_occupies_its_own_partition(self):
        intervals = occupancy_intervals(churn_trace())
        by_leg = sorted({(i.start, i.end) for i in intervals})
        assert by_leg == [(0.0, 40.0), (60.0, 90.0), (120.0, 200.0)]
        middle = {i.node for i in intervals if i.start == 60.0}
        assert middle == {2, 3}

    def test_render_shows_the_job_on_both_partitions(self):
        chart = render_gantt(churn_trace(), node_count=4, width=40)
        rows = {
            int(line.split("|")[0].split()[1]): line.split("|")[1]
            for line in chart.splitlines()
            if line.startswith("node")
        }
        assert "1" in rows[0]
        assert "1" in rows[2]

    def test_open_run_is_drawn_to_the_explicit_horizon(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "start", job_id=1, nodes=[0])
        chart = render_gantt(recorder, node_count=1, width=20, end_time=100.0)
        row = next(l for l in chart.splitlines() if l.startswith("node"))
        assert row.split("|")[1] == "1" * 20


class TestSystemIntegration:
    def test_full_simulation_trace_renders(self, tiny_jobs, tiny_failures):
        from repro.core.system import ProbabilisticQoSSystem, SystemConfig

        recorder = TraceRecorder()
        system = ProbabilisticQoSSystem(
            SystemConfig(node_count=16, accuracy=0.5, seed=7),
            tiny_jobs,
            tiny_failures,
            recorder=recorder,
        )
        system.run()
        counts = recorder.counts()
        assert counts["negotiated"] == 5
        assert counts["finish"] == 5
        assert counts.get("start", 0) >= 5
        chart = render_gantt(recorder, node_count=16)
        assert chart.count("node ") == 16
