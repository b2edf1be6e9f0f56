"""Analytical offer evaluation — the negotiation fast path.

Every candidate slot of a dialogue asks the predictor three things about
one window: which free nodes carry a detectable failure (the fault-aware
placement ranking), the set-level ``failure_probability`` of the chosen
partition (the promise), and the bound the pruning step compares against
the user's threshold.  Asking a live predictor per candidate and per node
recomputes the same facts over and over.

:class:`AnalyticalEvaluator` wraps a predictor and answers the same
queries analytically:

* **Trace predictors** (the paper's simulation device) get an exact fast
  path: a :class:`~repro.prediction.index.FailureIntervalIndex` over the
  detectable failures answers set-level queries in O(log f) per node, and
  the pruning bound, placement and the placed partition's price from one
  memoised window query
  (:meth:`~repro.prediction.index.FailureIntervalIndex.window_firsts`)
  that lists the few dirty nodes of the window — no per-node query at
  all.  Floats are *bit-identical* to the predictor's: the
  first-detectable-failure semantics, including the ``(time, event_id)``
  tie-break, are reproduced, not approximated.
* **Survival-decomposable predictors** (e.g. the online predictor, whose
  set probability is the independent combination of per-node hazards)
  get a memoised path: per-(node, window) terms from
  :meth:`~repro.prediction.base.Predictor.node_failure_term`, combined
  with :func:`~repro.prediction.base.combine_independent` in caller
  order — the exact computation the probe path performs, with each term
  computed once per dialogue instead of once per offer.  Placement scores
  are the same memoised terms over the free nodes.
* **Anything else** falls back to the same memoised path under the
  independence assumption the paper itself makes for multi-node
  partitions; the test suite's checking oracle asserts that both paths
  agree within 1e-9 (see DESIGN.md for the tolerance contract).

The term cache is *dialogue-scoped*: the ledger is never mutated while
one dialogue enumerates offers, so every term computed for one offer is
reusable for every later offer of the same dialogue.
:meth:`begin_dialogue` resets it.  The interval index is immutable and
lives for the evaluator's lifetime.

The evaluator is itself a :class:`~repro.prediction.base.Predictor`, so
it can stand in wherever one is consumed — the placement scorer, the
checkpoint-decision context, and the evacuation check all route through
it, which is what empties the
``prediction.trace.queries`` counter on the figures grid.  On the exact
path it also names a partition's next detectable failure
(:meth:`AnalyticalEvaluator.first_failure_time`), which lets the
simulator skip clear checkpoint requests without an event each.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.prediction.base import (
    PredictedFailure,
    Predictor,
    combine_independent,
)
from repro.prediction.index import FailureIntervalIndex
from repro.prediction.trace import TracePredictor

#: The scores of a window with no detectable failure.
_NO_SCORES: Mapping[int, float] = MappingProxyType({})


class AnalyticalEvaluator(Predictor):
    """Cached analytical stand-in for a predictor during negotiation.

    Args:
        predictor: The predictor whose answers are being reproduced.
            Nested evaluators are unwrapped, so wrapping is idempotent.
        node_count: Cluster width ``N`` (needed by the pruning bound to
            count clean nodes without enumerating them).

    Evaluations and term-cache traffic are counted; :meth:`counters`
    reports them under ``negotiation.fastpath.*``.
    """

    _obs_component = "fastpath"

    def __init__(self, predictor: Predictor, node_count: int) -> None:
        while isinstance(predictor, AnalyticalEvaluator):
            predictor = predictor.backing
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self._predictor = predictor
        self._n = node_count
        self._index: Optional[FailureIntervalIndex] = (
            predictor.interval_index()
            if isinstance(predictor, TracePredictor)
            else None
        )
        self._terms: Dict[Tuple[int, float, float], float] = {}
        self._evaluations = 0
        self._term_hits = 0
        self._term_misses = 0

    @property
    def backing(self) -> Predictor:
        """The wrapped predictor (the probe path's source of truth)."""
        return self._predictor

    def counters(self) -> Dict[str, int]:
        """``negotiation.fastpath.*`` totals."""
        return {
            "negotiation.fastpath.evaluations": self._evaluations,
            "negotiation.fastpath.term_cache_hits": self._term_hits,
            "negotiation.fastpath.term_cache_misses": self._term_misses,
        }

    @property
    def exact(self) -> bool:
        """True when the fast path is bit-identical to the probe path by
        construction (trace-backed index); False for the memoised
        independence reconstruction."""
        return self._index is not None

    def begin_dialogue(self) -> None:
        """Reset the dialogue-scoped term cache.

        Called by the negotiator before each offer enumeration; the cache
        is only guaranteed coherent while the ledger (and therefore the
        candidate windows) is not mutated, which holds within one
        dialogue.
        """
        self._terms.clear()

    # ------------------------------------------------------------------
    # Cached terms
    # ------------------------------------------------------------------
    def _term(self, node: int, start: float, end: float) -> float:
        key = (node, start, end)
        cached = self._terms.get(key)
        if cached is not None:
            self._term_hits += 1
            return cached
        if self._index is not None:
            value = self._index.node_term(node, start, end)
        else:
            value = self._predictor.node_failure_term(node, start, end)
        self._terms[key] = value
        self._term_misses += 1
        return value

    # ------------------------------------------------------------------
    # Predictor interface (analytical answers)
    # ------------------------------------------------------------------
    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        if end <= start:
            return 0.0
        self._evaluations += 1
        if self._index is not None:
            return self._index.failure_probability(nodes, start, end)
        # Caller (partition) order is preserved so the float product
        # matches the probe path's combine_independent exactly.
        return combine_independent([self._term(n, start, end) for n in nodes])

    def node_failure_probability(self, node: int, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return self._term(node, start, end)

    def window_scores(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Mapping[int, float]:
        """Sparse per-node failure probability over the window.

        Trace-backed evaluators answer from one index window query: the
        map holds the dirty nodes of the whole cluster (members of
        ``nodes`` or not), each with its first detectable ``p_x``.  Other
        predictors get the memoised term of every member of ``nodes``.
        """
        if end <= start:
            return {}
        if self._index is not None:
            firsts = self._index.window_firsts(start, end)
            if not firsts:
                # Most windows are clean: one shared, read-only empty map.
                return _NO_SCORES
            return {node: first[2] for node, first in firsts.items()}
        return {node: self._term(node, start, end) for node in nodes}

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        if self._index is not None:
            return self._index.predicted_failures(nodes, start, end)
        return self._predictor.predicted_failures(nodes, start, end)

    def first_predicted_failure(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        if end <= start:
            return None
        if self._index is not None:
            return self._index.first_predicted(nodes, start, end)
        return self._predictor.first_predicted_failure(nodes, start, end)

    def first_failure_time(
        self, nodes: Iterable[int], start: float
    ) -> Optional[float]:
        """Answered from the index only on the exact path; the memoised
        reconstruction cannot name a time, so it answers None."""
        if self._index is None:
            return None
        first = self._index.first_detectable(nodes, start, math.inf)
        return first[0] if first is not None else math.inf

    # ------------------------------------------------------------------
    # Pruning bound
    # ------------------------------------------------------------------
    def best_case_probability(self, size: int, start: float, end: float) -> float:
        """Sound upper bound on any ``size``-node partition's promise in
        ``[start, end)`` (see :meth:`FailureIntervalIndex
        .best_case_probability` for the derivation).

        Only the exact trace-backed path can bound partitions it has not
        seen; other predictors return 1.0, which disables pruning without
        affecting correctness.
        """
        if self._index is None:
            return 1.0
        return self._index.best_case_probability(size, start, end, self._n)
