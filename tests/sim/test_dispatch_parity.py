"""The one dispatch loop, seen from a whole simulation.

``EventLoop.run`` is the one dispatch loop (``EventLoop.step`` runs it
for one event), and it calls ``EventLoop._invoke`` once per dispatched
event, which is where an attached profiler opens its per-kind dispatch
zones.
"""

from __future__ import annotations

import pytest

from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs.prof import DISPATCH_ZONE, Profiler, aggregate_self
from repro.sim.events import EventKind
from repro.workload.synthetic import log_by_name

NODES = 128


def build(workload):
    log = log_by_name(workload, seed=5, job_count=60).scaled_sizes(NODES)
    failures = generate_failure_trace(
        estimate_horizon(log, NODES),
        spec=FailureModelSpec(nodes=NODES, rate_per_day=40.0),
        seed=5,
    )
    config = SystemConfig(node_count=NODES, accuracy=0.7, user_threshold=0.9, seed=5)
    return ProbabilisticQoSSystem(config, log, failures, sample_interval=900.0)


def record_dispatches(loop):
    """Log ``(time, kind, seq)`` of every event ``loop`` dispatches."""
    seen = []
    invoke = loop._invoke

    def logged(handler, event):
        seen.append((event.time, event.kind, event.seq))
        invoke(handler, event)

    loop._invoke = logged
    return seen


@pytest.mark.parametrize("workload", ["nasa", "sdsc"])
def test_step_dispatches_what_run_dispatches(workload):
    by_run = build(workload)
    run_order = record_dispatches(by_run.loop)
    ran = by_run.run()

    # What ``run()`` does around its loop, with the loop driven by steps.
    by_step = build(workload)
    step_order = record_dispatches(by_step.loop)
    by_step._prime()
    by_step.sampler.sample(by_step.loop.now)
    by_step.loop.schedule_in(by_step.sampler.interval, EventKind.OBS_SAMPLE)
    while by_step.loop.step() is not None:
        pass

    assert len(run_order) == ran.events_processed > 0
    assert step_order == run_order
    assert by_step.loop.counters() == by_run.loop.counters()
    assert by_step.loop.processed_events == ran.events_processed


@pytest.mark.parametrize("workload", ["nasa", "sdsc"])
def test_profiler_dispatch_zones_count_every_dispatch(workload):
    sim = build(workload)
    with Profiler().attach() as prof:
        result = sim.run()
    prefix = DISPATCH_ZONE + "."
    zoned = {
        name[len(prefix):]: calls
        for name, (calls, _) in aggregate_self(prof.snapshot()).items()
        if name.startswith(prefix)
    }
    counts = sim.loop.dispatch_counts()
    assert zoned == counts
    assert sum(counts.values()) == result.events_processed
    assert {"arrival", "start", "finish", "failure", "obs_sample"} <= set(counts)
