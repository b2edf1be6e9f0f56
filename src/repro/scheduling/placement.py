"""Partition-selection scorers (fault-aware and baselines).

The paper's scheduler "uses event prediction to break ties among otherwise
equivalent partitions": at the chosen start time it selects, among the free
nodes, the partition with the lowest probability of failure.  That is a
set-level question — which free nodes carry a predicted failure in the
job's window — so a scorer answers it once per window.

Scorers are :data:`~repro.cluster.topology.WindowScorer` callables
``(free_nodes, start, end) -> {node: score}`` (lower is better; a node
the sparse map omits scores 0.0) plugged into
:meth:`Topology.select_partition`; this keeps the policy choice orthogonal
to the mechanics.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster.topology import WindowScorer
from repro.prediction.base import Predictor
from repro.sim.rng import stable_uniform


def fault_aware_scorer(predictor: Predictor) -> WindowScorer:
    """Rank nodes by predicted failure probability over the window.

    With the trace predictor this steers jobs away from nodes carrying a
    *detectable* upcoming failure; undetectable failures (``p_x > a``) are
    invisible, which is exactly how prediction accuracy couples into
    placement quality.  The scores are the predictor's
    :meth:`~repro.prediction.base.Predictor.window_scores`: one window
    query on the analytical evaluator's failure index for trace
    predictors.
    """
    return predictor.window_scores


def index_scorer() -> WindowScorer:
    """First-fit: every node scores 0.0, so placement keeps the lowest
    indexes (deterministic, uninformed)."""

    def score(free: Sequence[int], start: float, end: float) -> Dict[int, float]:
        return {}

    return score


def random_scorer(seed: Optional[int] = None) -> WindowScorer:
    """Uninformed random placement, deterministic per (node, window).

    Keyed on the query so repeated calls during one negotiation are
    consistent, but different windows shuffle differently — a fair
    "no information" baseline for the placement ablation.
    """

    def score(free: Sequence[int], start: float, end: float) -> Dict[int, float]:
        return {
            node: stable_uniform(f"placement:{node}:{start:.3f}:{end:.3f}", seed)
            for node in free
        }

    return score


def scorer_by_name(
    name: str, predictor: Predictor, seed: Optional[int] = None
) -> WindowScorer:
    """Factory: ``"fault-aware"`` (paper), ``"first-fit"``, ``"random"``."""
    key = name.lower()
    if key == "fault-aware":
        return fault_aware_scorer(predictor)
    if key == "first-fit":
        return index_scorer()
    if key == "random":
        return random_scorer(seed)
    raise KeyError(
        f"unknown placement scorer {name!r}; available: "
        "fault-aware, first-fit, random"
    )
