"""The workload is replayed one arrival at a time.

The event queue holds at most one pending ARRIVAL: each arrival queues
the next one from a stable sort of the workload by arrival time, under
both scheduling disciplines (EASY overrides the arrival hook).  The
dispatch order is the one a queue primed with every arrival would give:
time order, and workload order among simultaneous arrivals.
"""

from __future__ import annotations

import random

import pytest

from repro.core.easy import EasyBackfillSystem
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.events import FailureTrace
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs.tracelog import TraceRecorder
from repro.workload.job import Job
from repro.workload.synthetic import log_by_name
from tests.obs.test_golden_counters import outcomes_digest

NODES = 128

DISCIPLINES = {
    "conservative": (ProbabilisticQoSSystem, {}),
    "easy": (EasyBackfillSystem, {"checkpoint_policy": "periodic"}),
}


def inputs(workload):
    log = log_by_name(workload, seed=11, job_count=60).scaled_sizes(NODES)
    failures = generate_failure_trace(
        estimate_horizon(log, NODES),
        spec=FailureModelSpec(nodes=NODES, rate_per_day=40.0),
        seed=11,
    )
    return log, failures


def system(discipline, jobs, failures, **kwargs):
    cls, overrides = DISCIPLINES[discipline]
    config = SystemConfig(
        node_count=NODES, accuracy=0.7, user_threshold=0.9, seed=11, **overrides
    )
    return cls(config, jobs, failures, **kwargs)


@pytest.mark.parametrize("workload", ["nasa", "sdsc"])
@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
def test_a_shuffled_job_list_replays_like_its_log(discipline, workload):
    log, failures = inputs(workload)
    jobs = list(log)
    # Simultaneous arrivals keep workload order, which a shuffle changes.
    assert len({j.arrival_time for j in jobs}) == len(jobs)
    random.Random(3).shuffle(jobs)
    assert [j.job_id for j in jobs] != [j.job_id for j in log]
    from_log = system(discipline, log, failures).run()
    from_list = system(discipline, jobs, failures).run()
    assert from_log.metrics.completed_jobs == len(log)
    assert outcomes_digest(from_list) == outcomes_digest(from_log)
    assert from_list.events_processed == from_log.events_processed


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
def test_at_most_one_arrival_is_ever_queued(discipline):
    log, failures = inputs("sdsc")
    sim = system(discipline, log, failures, sample_interval=600.0)
    # Bounded: the sample chain runs until every job has finished.
    assert sim.run(max_events=100_000).metrics.completed_jobs == len(log)
    queued = [
        row["metrics"]["sim.engine.pending.arrival"] for row in sim.sampler.rows
    ]
    assert max(queued) == 1.0
    assert queued[0] == 1.0 and queued[-1] == 0.0


def test_simultaneous_arrivals_dispatch_in_workload_order():
    jobs = [
        Job(job_id=5, arrival_time=100.0, size=1, runtime=600.0),
        Job(job_id=2, arrival_time=100.0, size=1, runtime=600.0),
        Job(job_id=9, arrival_time=100.0, size=1, runtime=600.0),
        Job(job_id=1, arrival_time=50.0, size=1, runtime=600.0),
        Job(job_id=7, arrival_time=100.0, size=1, runtime=600.0),
    ]
    order = [1, 5, 2, 9, 7]
    for discipline, kind in (("conservative", "negotiated"), ("easy", "start")):
        recorder = TraceRecorder()
        system(discipline, jobs, FailureTrace([]), recorder=recorder).run()
        assert [r.job_id for r in recorder.of_kind(kind)] == order, discipline


class _FirstArrivalOnly(ProbabilisticQoSSystem):
    """Queues only the first arrival: every later job is stranded."""

    def _schedule_next_arrival(self):
        if self._arrival_cursor == 0:
            super()._schedule_next_arrival()


def test_a_sampled_run_ends_once_nothing_else_can_happen():
    log, failures = inputs("sdsc")
    bound = 1_000_000
    sim = _FirstArrivalOnly(
        SystemConfig(node_count=NODES, accuracy=0.7, user_threshold=0.9, seed=11),
        log,
        failures,
        sample_interval=600.0,
    )
    result = sim.run(max_events=bound)
    # The sample chain stops once it is the only thing queued, long
    # before the bound, with the stranded jobs still unfinished.
    assert result.events_processed < bound // 10
    assert sim.loop.pending_events == 0
    assert result.metrics.completed_jobs == 1
    assert result.obs["gauges"]["core.system.unfinished_jobs"] == len(log) - 1
