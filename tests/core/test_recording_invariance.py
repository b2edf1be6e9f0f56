"""Recording never changes the run.

Every record call in the simulator sits behind ``if self.recorder is not
None``.  Anything that changes simulation state must stay outside those
guards, or an untraced run would diverge from a traced one.  These tests
replay the same inputs with no recorder and with each kind of recorder,
under conservative backfilling and EASY, and require identical outcomes
and metrics.
"""

from __future__ import annotations

import pytest

from repro.core.easy import EasyBackfillSystem
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs.audit import GuaranteeAudit
from repro.obs.trace import SpanBuilder
from repro.obs.tracelog import TraceRecorder
from repro.workload.synthetic import log_by_name

NODES = 32

RECORDERS = {
    "none": lambda: None,
    "trace": TraceRecorder,
    "spans": SpanBuilder,
    "audit": GuaranteeAudit,
}

#: (system class, config) pairs; U=0.9 on SDSC gives failure churn, and
#: proactive evacuation exercises the evacuation records.
DISCIPLINES = {
    "conservative": (
        ProbabilisticQoSSystem,
        SystemConfig(node_count=NODES, accuracy=0.5, user_threshold=0.9, seed=3),
    ),
    "conservative-evacuating": (
        ProbabilisticQoSSystem,
        SystemConfig(
            node_count=NODES, accuracy=1.0, user_threshold=0.5, seed=3,
            proactive_evacuation=True,
        ),
    ),
    "easy": (
        EasyBackfillSystem,
        SystemConfig(node_count=NODES, checkpoint_policy="periodic", seed=3),
    ),
}


def inputs(workload):
    log = log_by_name(workload, seed=5, job_count=150).scaled_sizes(NODES)
    # Far more failures than the paper's rate, so every run kills and
    # requeues jobs.
    spec = FailureModelSpec(nodes=NODES, rate_per_day=40.0)
    failures = generate_failure_trace(estimate_horizon(log, NODES), spec, seed=5)
    return log, failures


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@pytest.mark.parametrize("workload", ["nasa", "sdsc"])
def test_every_recorder_gives_the_same_run(workload, discipline):
    system_cls, config = DISCIPLINES[discipline]
    log, failures = inputs(workload)
    runs = {
        name: system_cls(config, log, failures, recorder=make()).run()
        for name, make in RECORDERS.items()
    }
    baseline = runs.pop("none")
    assert baseline.metrics.failures_hitting_jobs > 0
    for name, result in runs.items():
        assert result.outcomes == baseline.outcomes, name
        assert result.metrics == baseline.metrics, name
        assert result.events_processed == baseline.events_processed, name
