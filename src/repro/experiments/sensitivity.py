"""Sensitivity analyses over the parameters the paper holds fixed.

The paper pins ``C = 720 s``, ``I = 3600 s`` and the AIX failure rate
(Table 2) and sweeps only ``a`` and ``U``.  Its companion studies — the
periodic-checkpointing analysis it cites for choosing ``C ≈ L`` and the
cooperative-checkpointing thesis — are all about how those fixed choices
move the outcome, so this module provides the corresponding sweeps:

* :func:`sweep_checkpoint_interval` — the classic overhead-vs-risk
  trade-off: small ``I`` wastes overhead, large ``I`` loses more work per
  failure;
* :func:`sweep_checkpoint_overhead` — how expensive checkpoints must get
  before cooperative skipping stops paying;
* :func:`sweep_failure_rate` — outcome versus failure intensity at fixed
  prediction quality (regenerating the failure trace per point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.metrics import SimulationMetrics
from repro.core.system import simulate
from repro.experiments.runner import ExperimentContext, estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace


@dataclass(frozen=True)
class SensitivityPoint:
    """One sensitivity-sweep sample: the varied value and its metrics."""

    value: float
    metrics: SimulationMetrics


def sweep_checkpoint_interval(
    ctx: ExperimentContext,
    intervals: Sequence[float],
    accuracy: float = 0.7,
    user_threshold: float = 0.5,
    checkpoint_policy: str = "periodic",
) -> List[SensitivityPoint]:
    """Outcomes versus the checkpoint interval ``I``.

    Defaults to the *periodic* policy because that is where ``I`` bites
    hardest (cooperative skipping hides mild mis-tuning — itself a finding
    worth demonstrating by passing ``checkpoint_policy="cooperative"``).

    The sweep is submitted as one ``run_points`` batch (one point per
    interval, via per-point overrides), so contexts configured with
    ``jobs > 1`` fan it out like any figure grid.
    """
    batch = [
        (
            accuracy,
            user_threshold,
            dict(
                checkpoint_interval=float(interval),
                checkpoint_policy=checkpoint_policy,
            ),
        )
        for interval in intervals
    ]
    return [
        SensitivityPoint(value=float(interval), metrics=metrics)
        for interval, metrics in zip(intervals, ctx.run_points(batch))
    ]


def sweep_checkpoint_overhead(
    ctx: ExperimentContext,
    overheads: Sequence[float],
    accuracy: float = 0.7,
    user_threshold: float = 0.5,
    checkpoint_policy: str = "cooperative",
) -> List[SensitivityPoint]:
    """Outcomes versus the checkpoint overhead ``C`` (one batch)."""
    batch = [
        (
            accuracy,
            user_threshold,
            dict(
                checkpoint_overhead=float(overhead),
                checkpoint_policy=checkpoint_policy,
            ),
        )
        for overhead in overheads
    ]
    return [
        SensitivityPoint(value=float(overhead), metrics=metrics)
        for overhead, metrics in zip(overheads, ctx.run_points(batch))
    ]


def sweep_failure_rate(
    ctx: ExperimentContext,
    rates_per_day: Sequence[float],
    accuracy: float = 0.7,
    user_threshold: float = 0.5,
) -> List[SensitivityPoint]:
    """Outcomes versus cluster failure intensity.

    Each point regenerates the failure trace (same seed, different rate) so
    burst structure is held statistically constant while intensity scales.
    Because the *trace* — not the config — varies, these points are outside
    what a :class:`~repro.experiments.parallel.PointSpec` can describe and
    the sweep stays sequential and unmemoised.
    """
    points = []
    horizon = estimate_horizon(ctx.log, ctx.setup.node_count)
    for rate in rates_per_day:
        failures = generate_failure_trace(
            horizon,
            spec=FailureModelSpec(nodes=ctx.setup.node_count, rate_per_day=rate),
            seed=ctx.setup.seed,
        )
        config = ctx.config(accuracy, user_threshold)
        result = simulate(config, ctx.log, failures)
        points.append(SensitivityPoint(value=float(rate), metrics=result.metrics))
    return points


def optimal_interval(points: Sequence[SensitivityPoint]) -> SensitivityPoint:
    """The sweep point with the highest utilization (lowest total waste)."""
    if not points:
        raise ValueError("empty sensitivity sweep")
    return max(points, key=lambda p: p.metrics.utilization)
