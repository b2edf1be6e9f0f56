#!/usr/bin/env python3
"""Watch the scheduler work: an annotated trace and ASCII Gantt chart.

Runs a small scripted scenario on an 8-node cluster — a mix of jobs, a
node failure that kills one of them, and its checkpoint-restart — with the
trace recorder attached, then renders:

* the per-job life stories (negotiated -> start -> ... -> finish);
* the node-by-time occupancy chart, with '#' marking the repair window;
* the JSONL export that production-scale sweeps would stream to disk.

Run:  python examples/schedule_visualization.py
"""

from __future__ import annotations

import io

from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs import TraceRecorder, render_gantt
from repro.workload.job import Job, JobLog

HOUR = 3600.0


def main() -> None:
    log = JobLog(
        [
            Job(job_id=1, arrival_time=0.0, size=4, runtime=2 * HOUR),
            Job(job_id=2, arrival_time=300.0, size=4, runtime=1.2 * HOUR),
            Job(job_id=3, arrival_time=600.0, size=8, runtime=0.8 * HOUR),
            Job(job_id=4, arrival_time=900.0, size=2, runtime=3 * HOUR),
        ],
        name="demo",
    )
    failures = FailureTrace([FailureEvent(event_id=1, time=1.5 * HOUR, node=1)])

    stream = io.StringIO()
    recorder = TraceRecorder(stream=stream)
    system = ProbabilisticQoSSystem(
        SystemConfig(
            node_count=8,
            accuracy=0.0,  # blind system: the failure lands
            checkpoint_policy="periodic",
            seed=3,
        ),
        log,
        failures,
        recorder=recorder,
    )
    result = system.run()

    print("job life stories:")
    for job in log:
        steps = " -> ".join(
            f"{r.kind}@{r.time:.0f}s" for r in recorder.for_job(job.job_id)
        )
        print(f"  job {job.job_id} ({job.size}n x {job.runtime:.0f}s): {steps}")

    print("\nschedule (8 nodes):")
    print(render_gantt(recorder, node_count=8, width=72))

    m = result.metrics
    print(
        f"\nmetrics: QoS={m.qos:.3f} util={m.utilization:.3f} "
        f"lost={m.lost_work:.0f} node-s, "
        f"{m.failures_hitting_jobs} job-killing failure(s)"
    )

    lines = stream.getvalue().splitlines()
    print(f"\nJSONL trace: {len(lines)} records; first two:")
    for line in lines[:2]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
