"""Ablation — the price of promises: conservative vs EASY backfilling.

The paper's negotiation requires conservative backfilling (a booking per
job is what makes a deadline quotable).  EASY backfilling — one reservation
for the queue head, aggressive backfill behind it — is the classical
no-promises discipline.  This bench measures what the guarantee machinery
costs in responsiveness and utilization on the same workload and failure
trace (prediction off in both, periodic checkpointing in both, so the
*only* difference is the discipline).
"""

from __future__ import annotations

from _support import time_representative_point
from repro.core.easy import EasyBackfillSystem
from repro.core.system import SystemConfig


def test_scheduler_discipline(benchmark, sdsc_context):
    setup = sdsc_context.setup
    conservative = sdsc_context.run_point(0.0, 0.5, checkpoint_policy="periodic")
    easy = EasyBackfillSystem(
        SystemConfig(
            node_count=setup.node_count,
            downtime=setup.downtime,
            checkpoint_overhead=setup.checkpoint_overhead,
            checkpoint_interval=setup.checkpoint_interval,
            checkpoint_policy="periodic",
        ),
        sdsc_context.log,
        sdsc_context.failures,
    ).run().metrics

    print()
    print(f"{'discipline':>14}  {'util':>7}  {'mean wait (s)':>14}  "
          f"{'lost (node-s)':>14}  {'completed':>9}")
    for name, m in (("conservative", conservative), ("easy", easy)):
        print(
            f"{name:>14}  {m.utilization:7.4f}  {m.mean_wait:14.0f}  "
            f"{m.lost_work:14.3e}  {m.completed_jobs:9d}"
        )

    assert easy.completed_jobs == conservative.completed_jobs
    # EASY's flexibility buys responsiveness; promises cost waiting time.
    assert easy.mean_wait <= conservative.mean_wait * 1.1 + 60.0
    # Utilization should be in the same band (EASY usually a touch higher).
    assert easy.utilization >= conservative.utilization - 0.03

    time_representative_point(benchmark, sdsc_context, accuracy=0.0, user=0.5)
