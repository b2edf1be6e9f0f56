"""The per-job Python call budget of a simulation.

On CPython 3.11 the replay's wall time follows the number of Python calls
it makes per job more closely than the bytecodes it executes: each call
builds a frame, however little it runs.  These tests count ``call``
events under ``sys.setprofile`` (a generator resume counts as one) while
fixed 150-job NASA and SDSC runs replay, and hold each count to a
ceiling.  A change that puts a forwarding layer back on the per-job
path (a property read, a helper that only re-asks the caller's value, a
generator pass per record) fails here before it shows in a benchmark.

Each ceiling is the count the library reached when the test was written
plus :data:`HEADROOM` calls per job.  Counts differ by interpreter
version (3.12 inlines comprehensions, for one), so a ceiling applies
only on the Python minor version it was measured on; another version
skips until its counts are measured and added to :data:`BUDGETS`.  To
see where the calls go, run
``python3 tools/opcount.py --workload sdsc --top 40``.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.workload.synthetic import log_by_name

JOBS = 150
NODES = 128
SEED = 3

#: Calls per job allowed above a measured count.
HEADROOM = 2.0

#: User threshold U of each workload's run.
USER = {"nasa": 0.5, "sdsc": 0.9}

#: (major, minor) of CPython -> workload -> calls per job measured on it.
BUDGETS = {
    (3, 11): {"nasa": 90.77, "sdsc": 113.77},
}


def calls_per_job(workload: str, user: float) -> float:
    """Python calls per job while one fixed run replays; building the
    system (index, scheduler, predictor) is not counted."""
    log = log_by_name(workload, seed=SEED, job_count=JOBS).scaled_sizes(NODES)
    failures = generate_failure_trace(
        estimate_horizon(log, NODES), spec=FailureModelSpec(nodes=NODES), seed=SEED
    )
    config = SystemConfig(
        node_count=NODES, accuracy=0.7, user_threshold=user, seed=SEED
    )
    system = ProbabilisticQoSSystem(config, log, failures)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = system.run()
    finally:
        sys.setprofile(previous)
    assert result.metrics.completed_jobs == JOBS
    return calls / JOBS


@pytest.mark.parametrize("workload", sorted(USER))
def test_calls_per_job_stay_within_budget(workload):
    version = sys.version_info[:2]
    if version not in BUDGETS:
        pytest.skip(f"no call counts measured on Python {version[0]}.{version[1]}")
    measured = BUDGETS[version][workload]
    assert calls_per_job(workload, USER[workload]) <= measured + HEADROOM
