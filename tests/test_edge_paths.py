"""Targeted tests for less-travelled paths across modules."""

from __future__ import annotations

import pytest

from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import RingTopology
from repro.core.easy import EasyBackfillSystem
from repro.core.negotiation import Negotiator
from repro.core.system import SystemConfig, simulate
from repro.core.users import EarliestDeadlineUser
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.gantt import render_gantt
from repro.obs.tracelog import TraceRecorder, load_jsonl
from repro.prediction.trace import TracePredictor
from repro.sim.engine import EventLoop
from repro.sim.events import EventKind
from repro.workload.job import Job, JobLog

HOUR = 3600.0


class TestEngineEdges:
    def test_peek_time(self):
        loop = EventLoop()
        loop.register(EventKind.WAKEUP, lambda ev: None)
        assert loop.peek_time() is None
        event = loop.schedule(7.0, EventKind.WAKEUP)
        assert loop.peek_time() == 7.0
        event.cancel()
        assert loop.peek_time() is None

    def test_run_on_empty_queue(self):
        loop = EventLoop()
        assert loop.run() == 0


class TestLedgerEdges:
    def test_candidate_times_limit(self):
        ledger = ReservationLedger(4)
        ledger.reserve(1, [0], 0.0, 10.0)
        ledger.reserve(2, [1], 0.0, 20.0)
        ledger.reserve(3, [2], 0.0, 30.0)
        assert ledger.candidate_times(0.0, limit=2) == [0.0, 10.0]

    def test_truncate_unknown_job(self):
        with pytest.raises(KeyError):
            ReservationLedger(4).truncate(9, 5.0)

    def test_extend_unknown_job(self):
        with pytest.raises(KeyError):
            ReservationLedger(4).extend(9, 5.0)


class TestNegotiationWithConstrainedTopology:
    def test_ring_fragmentation_pushes_offers_later(self):
        """With the ring fragmented now, the earliest offer comes after
        the blocking booking ends — make_offer returns None for the
        fragmented instant and the dialogue moves on."""
        ledger = ReservationLedger(8)
        # Fragment the ring fully: occupy alternating nodes until t=100
        # (wraparound leaves no free run longer than 1).
        ledger.reserve(90, [1], 0.0, 100.0)
        ledger.reserve(91, [3], 0.0, 100.0)
        ledger.reserve(92, [5], 0.0, 100.0)
        ledger.reserve(93, [7], 0.0, 100.0)
        predictor = TracePredictor(FailureTrace([]), accuracy=1.0, seed=1)
        negotiator = Negotiator(ledger, RingTopology(8), predictor, None)
        assert negotiator.make_offer(size=3, duration=50.0, start=0.0) is None
        outcome = negotiator.negotiate(
            1, size=3, duration=50.0, now=0.0, user=EarliestDeadlineUser()
        )
        assert outcome.start >= 100.0


class TestEasyInternals:
    def make_simulator(self, jobs):
        return EasyBackfillSystem(
            SystemConfig(node_count=8, checkpoint_policy="never"),
            JobLog(jobs, name="x"),
            FailureTrace([]),
        )

    def test_shadow_time_immediate_when_capacity_free(self):
        sim = self.make_simulator([Job(1, 0.0, 4, HOUR)])
        shadow, spare = sim._shadow_time(4)
        assert shadow == 0.0
        assert spare == 4

    def test_queued_job_waits_for_the_full_width_head(self):
        sim = self.make_simulator([Job(1, 0.0, 8, HOUR), Job(2, 1.0, 4, HOUR)])
        result = sim.run()
        assert result.metrics.completed_jobs == 2
        # Job 2 could not backfill around a full-width job: it started only
        # when job 1 released the cluster.
        assert result.outcomes[1].first_start == pytest.approx(HOUR)


class TestSystemFlagCombinations:
    def test_evacuation_plus_opportunistic(self):
        log = JobLog(
            [
                Job(1, 0.0, 8, 3 * HOUR),
                Job(2, 60.0, 8, 2 * HOUR),
                Job(3, 120.0, 4, HOUR),
            ],
            name="combo",
        )
        failures = FailureTrace(
            [FailureEvent(1, 1.7 * HOUR, 0), FailureEvent(2, 2.9 * HOUR, 9)]
        )
        result = simulate(
            SystemConfig(
                node_count=16,
                accuracy=1.0,
                user_threshold=0.0,
                proactive_evacuation=True,
                opportunistic_start=True,
                seed=5,
            ),
            log,
            failures,
        )
        assert result.metrics.completed_jobs == 3

    def test_mesh_topology_full_system(self):
        log = JobLog(
            [Job(i, i * 30.0, size, 0.5 * HOUR) for i, size in
             enumerate([3, 5, 7, 2, 6], start=1)],
            name="mesh-load",
        )
        result = simulate(
            SystemConfig(node_count=16, topology="mesh", accuracy=0.5, seed=5),
            log,
            FailureTrace([]),
        )
        assert result.metrics.completed_jobs == 5


class TestGanttEdges:
    def test_explicit_end_time_clamps(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "start", job_id=1, nodes=[0])
        recorder.record(100.0, "finish", job_id=1)
        chart = render_gantt(recorder, node_count=1, width=10, end_time=50.0)
        body = chart.splitlines()[1].split("|")[1]
        assert body == "1" * 10  # occupied through the clamped horizon

    def test_zero_duration_trace(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "start", job_id=1, nodes=[0])
        assert "no duration" in render_gantt(recorder, node_count=1)

    def test_load_jsonl_skips_blank_lines(self):
        records = load_jsonl(["", '{"time": 1.0, "kind": "finish"}', "  "])
        assert len(records) == 1


class TestCliFigureEight:
    def test_two_workload_figure(self, capsys):
        from repro.cli import main

        assert main(["figure", "8", "--job-count", "30", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "SDSC" in out and "NASA" in out
