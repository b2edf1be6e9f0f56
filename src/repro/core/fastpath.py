"""Analytical offer evaluation — the negotiation fast path.

The probe path prices every candidate slot by re-querying the predictor
per (partition, window): one set-level ``failure_probability`` for the
promise plus one ``node_failure_probability`` per free node for the
fault-aware placement ranking.  On a figure-sized run that is >100k
predictor queries, almost all recomputing the same per-node facts
(BENCH_ledger.json showed a 448/126,300 hit rate before this module).

:class:`AnalyticalEvaluator` wraps a predictor and answers the same
queries from cached per-node per-window terms:

* **Trace predictors** (the paper's simulation device) get an exact fast
  path: a :class:`~repro.prediction.index.FailureIntervalIndex` over the
  detectable failures answers set- and node-level queries in O(log f)
  per node with *bit-identical* floats — the first-detectable-failure
  semantics, including the ``(time, event_id)`` tie-break, are
  reproduced, not approximated.
* **Survival-decomposable predictors** (e.g. the online predictor, whose
  set probability is the independent combination of per-node hazards)
  get a memoised path: per-(node, window) terms from
  :meth:`~repro.prediction.base.Predictor.node_failure_term`, combined
  with :func:`~repro.prediction.base.combine_independent` in caller
  order — the exact computation the probe path performs, with each term
  computed once per dialogue instead of once per offer.
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
``prediction.trace.queries`` counter on the figures grid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.prediction.base import (
    PredictedFailure,
    Predictor,
    combine_independent,
)
from repro.prediction.index import FailureIntervalIndex
from repro.prediction.trace import TracePredictor


class AnalyticalEvaluator(Predictor):
    """Cached analytical stand-in for a predictor during negotiation.

    Args:
        predictor: The predictor whose answers are being reproduced.
            Nested evaluators are unwrapped, so wrapping is idempotent.
        node_count: Cluster width ``N`` (needed by the pruning bound to
            count clean nodes without enumerating them).
        registry: Optional obs registry; when live, evaluations and term
            cache traffic are counted under ``negotiation.fastpath.*``.
        profiler: Optional hierarchical profiler; when live, offer
            evaluations run inside the ``negotiation.fastpath.evaluate``
            zone and the backing interval index gets its
            ``prediction.index.query`` zone bound too.
    """

    _obs_component = "fastpath"

    def __init__(
        self,
        predictor: Predictor,
        node_count: int,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
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
        registry = registry if registry is not None else NULL_REGISTRY
        self._obs = registry.enabled
        self._c_evaluations = registry.counter("negotiation.fastpath.evaluations")
        self._c_term_hits = registry.counter(
            "negotiation.fastpath.term_cache_hits"
        )
        self._c_term_misses = registry.counter(
            "negotiation.fastpath.term_cache_misses"
        )
        profiler = profiler if profiler is not None else NULL_PROFILER
        self._prof = profiler.enabled
        self._z_evaluate = profiler.zone("negotiation.fastpath.evaluate")
        if self._prof and self._index is not None:
            self._index.bind_profiler(profiler)

    @property
    def backing(self) -> Predictor:
        """The wrapped predictor (the probe path's source of truth)."""
        return self._predictor

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
            if self._obs:
                self._c_term_hits.inc()
            return cached
        if self._index is not None:
            value = self._index.node_term(node, start, end)
        else:
            value = self._predictor.node_failure_term(node, start, end)
        self._terms[key] = value
        if self._obs:
            self._c_term_misses.inc()
        return value

    # ------------------------------------------------------------------
    # Predictor interface (analytical answers)
    # ------------------------------------------------------------------
    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        if not self._prof:
            return self._failure_probability(nodes, start, end)
        with self._z_evaluate:
            return self._failure_probability(nodes, start, end)

    def _failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        if end <= start:
            return 0.0
        if self._obs:
            self._c_evaluations.inc()
        if self._index is not None:
            return self._index.failure_probability(nodes, start, end)
        # Caller (partition) order is preserved so the float product
        # matches the probe path's combine_independent exactly.
        return combine_independent([self._term(n, start, end) for n in nodes])

    def node_failure_probability(self, node: int, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return self._term(node, start, end)

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
