"""Clear-window skips: accounting the checkpoint requests that see no
predicted failure without an event each changes nothing but the event
count.

Every test replays the same inputs twice.  The *per-request* run swaps
:class:`~tests.fastpath.probe_oracle.ProbeOracle` in through the name the
system builds its evaluator from; the oracle cannot name the next
predicted failure, so every request stays an event.  The *collapsed* run
uses the library's exact evaluator, which plans the clear requests of a
run segment in one query.  Outcomes, metrics, the
``checkpointing.runtime.*`` counters, the sampler's checkpoint columns
and the span timeline must be identical.
"""

from __future__ import annotations

from typing import List

import pytest

import repro.core.system
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.events import FailureEvent, FailureTrace
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs.trace import SpanBuilder
from repro.workload.job import Job, JobLog
from repro.workload.synthetic import log_by_name
from tests.fastpath.probe_oracle import ProbeOracle

HOUR = 3600.0

#: One job filling a 4-node cluster from t = 0: its requests fall on
#: whole hours until a checkpoint is performed.
ONE_JOB = JobLog([Job(job_id=1, arrival_time=0.0, size=4, runtime=20 * HOUR)])

#: ``U = 0`` takes the first offer, so the job starts at once.
BASE = dict(node_count=4, user_threshold=0.0, seed=2)


def replay(monkeypatch, evaluator, config, log, failures, interval=HOUR):
    """Run with ``evaluator`` as the system's evaluator class; returns
    the system, its result, and the request times ``decide`` saw."""
    monkeypatch.setattr(repro.core.system, "AnalyticalEvaluator", evaluator)
    system = ProbabilisticQoSSystem(
        config, log, failures, recorder=SpanBuilder(), sample_interval=interval
    )
    decided: List[float] = []
    decide = system.policy.decide

    def counting(ctx):
        decided.append(ctx.now)
        return decide(ctx)

    system.policy.decide = counting
    return system, system.run(), decided


def timeline(system):
    """The span timeline of a finished replay."""
    return system.recorder.build(end_time=system.loop.now)


def observed(system, result):
    """Everything the two paths must agree on."""
    runtime = {
        name: value
        for name, value in result.obs["counters"].items()
        if name.startswith("checkpointing.runtime.")
    }
    samples = [
        (
            row["time"],
            row["metrics"].get("checkpointing.runtime.skipped"),
            row["metrics"].get("checkpointing.runtime.performed"),
        )
        for row in system.sampler.rows
    ]
    return (
        result.outcomes,
        result.metrics,
        runtime,
        samples,
        timeline(system).spans,
        timeline(system).marks,
    )


def both(monkeypatch, config, log, failures, interval=HOUR):
    """``(per_request, collapsed)`` replays, checked equal."""
    per_request = replay(monkeypatch, ProbeOracle, config, log, failures, interval)
    collapsed = replay(
        monkeypatch, AnalyticalEvaluator, config, log, failures, interval
    )
    assert observed(*collapsed[:2]) == observed(*per_request[:2])
    return per_request, collapsed


def requests(run) -> int:
    """Checkpoint request events dispatched."""
    return run[1].obs["counters"].get("sim.engine.dispatched.checkpoint_request", 0)


def skip_marks(run) -> List[float]:
    return [
        m.time for m in timeline(run[0]).marks if m.name == "checkpoint_skipped"
    ]


def test_kill_exactly_at_a_planned_request_counts_only_the_ones_before(
    monkeypatch,
):
    # a = 0: the failure is invisible, so the whole run is planned clear.
    config = SystemConfig(accuracy=0.0, **BASE)
    failures = FailureTrace([FailureEvent(event_id=1, time=5 * HOUR, node=0)])
    per_request, collapsed = both(monkeypatch, config, ONE_JOB, failures)
    assert collapsed[1].metrics.failures_hitting_jobs == 1
    # The failure orders before the request at the same instant.
    marks = skip_marks(collapsed)
    assert marks[:4] == [HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR]
    assert marks[4] > 5 * HOUR
    assert requests(collapsed) == 0 < requests(per_request)
    assert collapsed[2] == []


def test_sampler_tick_exactly_at_a_planned_request_sees_it(monkeypatch):
    config = SystemConfig(accuracy=0.0, **BASE)
    per_request, collapsed = both(monkeypatch, config, ONE_JOB, FailureTrace([]))
    rows = {t: skipped for t, skipped, _ in observed(*collapsed[:2])[3]}
    # Samples order after requests at the same instant.
    assert [rows[k * HOUR] for k in range(1, 5)] == [1, 2, 3, 4]
    assert requests(collapsed) == 0
    assert collapsed[1].events_processed < per_request[1].events_processed


def test_predicted_failure_stops_the_plan_at_the_first_window_reaching_it(
    monkeypatch,
):
    # Request windows span C + I + C = 5040 s; the first one to reach a
    # failure at 37000 s is the request at 9 h.
    config = SystemConfig(accuracy=1.0, **BASE)
    failures = FailureTrace([FailureEvent(event_id=1, time=37000.0, node=0)])
    per_request, collapsed = both(monkeypatch, config, ONE_JOB, failures)
    assert collapsed[2][0] == 9 * HOUR
    assert per_request[2][0] == HOUR
    assert set(collapsed[2]) <= set(per_request[2])
    assert collapsed[1].metrics.checkpoints_performed >= 1


def test_restart_with_recovery_time_plans_from_the_restored_segment(
    monkeypatch,
):
    config = SystemConfig(accuracy=1.0, recovery_time=600.0, **BASE)
    failures = FailureTrace([FailureEvent(event_id=1, time=37000.0, node=0)])
    per_request, collapsed = both(monkeypatch, config, ONE_JOB, failures)
    (outcome,) = collapsed[1].outcomes
    assert outcome.checkpoints_performed >= 1
    assert collapsed[1].metrics.failures_hitting_jobs == 1
    assert requests(collapsed) < requests(per_request)


def churn_inputs(job_count=60, nodes=32):
    """A small SDSC log under 40 failures a day, so runs are killed,
    restarted and checkpointed.  The configs below take ``U = 0``: every
    first offer is accepted, so the exact evaluator prunes no candidate
    and its negotiation records match the oracle's too."""
    log = log_by_name("sdsc", seed=5, job_count=job_count).scaled_sizes(nodes)
    spec = FailureModelSpec(nodes=nodes, rate_per_day=40.0)
    failures = generate_failure_trace(estimate_horizon(log, nodes), spec, seed=5)
    return log, failures


@pytest.mark.parametrize("policy", ["cooperative", "risk-free"])
def test_churning_runs_are_identical(monkeypatch, policy):
    log, failures = churn_inputs()
    config = SystemConfig(
        node_count=32, accuracy=0.7, user_threshold=0.0, seed=3,
        recovery_time=300.0, checkpoint_policy=policy,
    )
    per_request, collapsed = both(monkeypatch, config, log, failures, 1800.0)
    assert collapsed[1].metrics.failures_hitting_jobs > 0
    assert collapsed[1].metrics.checkpoints_skipped > 0
    assert collapsed[1].metrics.checkpoints_performed > 0
    assert 0 < len(collapsed[2]) < len(per_request[2])
    assert requests(collapsed) < requests(per_request)


@pytest.mark.parametrize(
    "overrides",
    [
        {"checkpoint_policy": "periodic"},
        # Equation 1 at p_f = 0 and C = 0 reads 0 < 0: it performs, so the
        # cooperative policy must not opt in.
        {"checkpoint_policy": "cooperative", "checkpoint_overhead": 0.0},
    ],
    ids=["periodic", "cooperative-zero-overhead"],
)
def test_policies_that_perform_at_clear_windows_keep_every_event(
    monkeypatch, overrides
):
    log, failures = churn_inputs(job_count=30)
    config = SystemConfig(
        node_count=32, accuracy=0.7, user_threshold=0.0, seed=3, **overrides
    )
    per_request, collapsed = both(monkeypatch, config, log, failures)
    assert collapsed[1].events_processed == per_request[1].events_processed
    assert requests(collapsed) == requests(per_request) > 0
    assert collapsed[2] == per_request[2]
