"""Promise honesty vs prediction accuracy (the paper's thesis, audited).

"A system that makes unqualified performance guarantees is lying."  A blind
system (a = 0) promises every job p = 1 — an unqualified guarantee — and
breaks some of them; an informed system qualifies its promises and should
keep them at close to the stated rates.  This bench measures the
work-weighted honesty gap and Brier score across accuracies and prints the
reliability diagram at a = 0.7.
"""

from __future__ import annotations

from _support import time_representative_point
from repro.core.system import simulate
from repro.obs.audit import (
    audit_outcomes,
    calibration_gap,
    reliability_diagram_text,
)

USER = 0.5


def test_promise_honesty(benchmark, sdsc_context):
    results = {}
    for accuracy in (0.0, 0.7, 1.0):
        config = sdsc_context.config(accuracy, USER)
        results[accuracy] = simulate(
            config, sdsc_context.log, sdsc_context.failures
        )

    print()
    print(f"{'a':>4}  {'honesty gap':>12}  {'Brier':>8}")
    gaps = {}
    reports = {}
    for accuracy, result in results.items():
        gap = calibration_gap(result.outcomes)
        reports[accuracy] = audit_outcomes(result.outcomes).report()
        gaps[accuracy] = gap
        print(f"{accuracy:4.1f}  {gap:12.4f}  {reports[accuracy].brier:8.4f}")

    print("\nreliability diagram at a = 0.7:")
    print(reliability_diagram_text(reports[0.7].bins))

    # More accurate prediction -> more honest promises.
    assert gaps[1.0] <= gaps[0.0] + 1e-9
    assert gaps[1.0] < 0.05
    # The blind system over-promises: its gap equals its broken-promise
    # work share (all promises are p = 1).
    assert gaps[0.0] > gaps[1.0]

    time_representative_point(benchmark, sdsc_context, accuracy=0.7, user=USER)
