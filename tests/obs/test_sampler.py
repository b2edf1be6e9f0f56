"""Sampler behaviour: cadence, row replacement, JSONL round-trip, and the
OBS_SAMPLE wiring through a real scripted simulation."""

from __future__ import annotations

import io

import pytest

from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.sampler import Sampler
from repro.workload.job import Job, JobLog


class _Counts:
    """A stand-in component: one counter, read as the sampler's row."""

    def __init__(self):
        self.value = 0

    def read(self):
        return {"a.b.c": self.value}


class TestSamplerUnit:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Sampler(dict, 0)

    def test_rows_record_scalar_snapshots_in_time_order(self):
        counts = _Counts()
        sampler = Sampler(counts.read, 10.0)
        counts.value += 1
        sampler.sample(0.0)
        counts.value += 1
        sampler.sample(10.0)
        assert [row["time"] for row in sampler.rows] == [0.0, 10.0]
        assert sampler.series("a.b.c") == [(0.0, 1), (10.0, 2)]

    def test_same_time_row_replaces_previous(self):
        counts = _Counts()
        sampler = Sampler(counts.read, 10.0)
        sampler.sample(5.0)
        counts.value += 1
        sampler.sample(5.0)
        assert len(sampler) == 1
        assert sampler.rows[0]["metrics"] == {"a.b.c": 1}

    def test_backwards_time_raises(self):
        sampler = Sampler(dict, 10.0)
        sampler.sample(5.0)
        with pytest.raises(ValueError):
            sampler.sample(4.0)

    def test_jsonl_round_trip(self):
        counts = _Counts()
        sampler = Sampler(counts.read, 1.0)
        counts.value += 1
        sampler.sample(0.0)
        sampler.sample(1.0)
        buffer = io.StringIO()
        sampler.write_jsonl(buffer)
        rows = Sampler.load_jsonl(buffer.getvalue().splitlines())
        assert rows == sampler.rows


def _scripted_system(sample_interval):
    """Two jobs, one failure, deterministic timings."""
    log = JobLog(
        [
            Job(job_id=1, arrival_time=0.0, size=2, runtime=5000.0),
            Job(job_id=2, arrival_time=100.0, size=2, runtime=5000.0),
        ],
        name="scripted",
    )
    failures = FailureTrace([FailureEvent(event_id=1, time=2000.0, node=0)])
    config = SystemConfig(
        node_count=4,
        accuracy=0.0,
        user_threshold=0.0,
        seed=7,
        checkpoint_interval=1800.0,
        checkpoint_overhead=60.0,
    )
    return ProbabilisticQoSSystem(
        config, log, failures, sample_interval=sample_interval
    )


class TestSamplerInSimulation:
    def test_cadence_matches_sim_time(self):
        system = _scripted_system(sample_interval=1000.0)
        result = system.run()
        times = [row["time"] for row in system.sampler.rows]
        # Origin sample, then every 1000 sim-seconds, then the end-of-run
        # sample; intermediate rows sit exactly on the cadence.
        assert times[0] == 0.0
        assert times[1:4] == [1000.0, 2000.0, 3000.0]
        assert times == sorted(times)
        span = result.metrics.span
        assert times[-1] >= span - 1000.0

    def test_counters_are_monotonic_across_rows(self):
        system = _scripted_system(sample_interval=500.0)
        system.run()
        series = system.sampler.series("sim.engine.scheduled")
        values = [value for _, value in series]
        assert values == sorted(values)
        assert values[-1] > 0

    def test_loop_drains_despite_recurring_samples(self):
        system = _scripted_system(sample_interval=250.0)
        result = system.run()  # would hang forever if samples rescheduled
        assert result.metrics.completed_jobs == 2

    def test_no_sampler_without_interval(self):
        system = _scripted_system(sample_interval=None)
        result = system.run()
        assert system.sampler is None
        assert set(result.obs) == {"counters", "gauges"}  # always attached

    def test_final_snapshot_matches_headline_metrics(self):
        system = _scripted_system(sample_interval=1000.0)
        result = system.run()
        counters = result.obs["counters"]
        assert counters["core.system.jobs_completed"] == (
            result.metrics.completed_jobs
        )
        assert counters["negotiation.dialogue.dialogues"] == 2
        assert counters["checkpointing.runtime.kills"] == (
            result.metrics.failures_hitting_jobs
        )
        # At least the acceptance-floor spread of layers shows up even in
        # this tiny scenario.
        layers = {name.split(".", 1)[0] for name in counters}
        assert {"sim", "cluster", "scheduling", "negotiation", "core"} <= layers
