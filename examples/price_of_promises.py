#!/usr/bin/env python3
"""What do guarantees cost?  Conservative (promising) vs EASY scheduling.

The paper's negotiation requires that every job receive a concrete booking
at submission — conservative backfilling.  The classical EASY discipline
reserves only for the queue head and backfills aggressively behind it: it
cannot promise anything, but it responds faster.  This example runs both
on identical workload + failures and prices the guarantee machinery, then
shows what buying prediction back does for the conservative side.

Run:  python examples/price_of_promises.py
"""

from __future__ import annotations

from repro.core.easy import EasyBackfillSystem
from repro.core.system import SystemConfig, simulate
from repro.experiments.runner import estimate_horizon
from repro.failures import aix_like_trace
from repro.workload import sdsc_log

SEED = 29
JOBS = 700


def main() -> None:
    log = sdsc_log(seed=SEED, job_count=JOBS)
    failures = aix_like_trace(estimate_horizon(log, 128), seed=SEED)

    easy = EasyBackfillSystem(
        SystemConfig(checkpoint_policy="periodic"), log, failures
    ).run().metrics
    blind = simulate(
        SystemConfig(accuracy=0.0, checkpoint_policy="periodic", seed=SEED),
        log,
        failures,
    ).metrics
    informed = simulate(
        SystemConfig(accuracy=0.9, user_threshold=0.9, seed=SEED), log, failures
    ).metrics

    print(f"{'scheduler':>28}  {'util':>7}  {'mean wait (s)':>14}  "
          f"{'lost (node-s)':>14}  {'promises kept':>13}")
    rows = (
        ("EASY (no promises)", easy, "-"),
        ("conservative, no prediction", blind,
         f"{blind.deadlines_met}/{blind.job_count}"),
        ("conservative + prediction", informed,
         f"{informed.deadlines_met}/{informed.job_count}"),
    )
    for name, m, kept in rows:
        print(
            f"{name:>28}  {m.utilization:7.4f}  {m.mean_wait:14.0f}  "
            f"{m.lost_work:14.3e}  {kept:>13}"
        )

    print(
        "\nreading: promises cost waiting time and some utilization versus "
        "EASY — that is the price of a quotable deadline.  Prediction buys "
        "much of it back (and EASY could never promise at all)."
    )


if __name__ == "__main__":
    main()
