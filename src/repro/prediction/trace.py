"""The paper's trace-based predictor with static detectability.

Section 4.3 specifies the simulation device exactly:

* every failure ``x`` in the log carries a *static detectability*
  ``p_x ∈ [0, 1]`` assigned randomly once (deterministic across runs);
* a query over a node set and window retrieves the matching failures in
  time order; the first with ``p_x ≤ a`` is *detected* and its ``p_x`` is
  returned as the probability of failure; otherwise 0 is returned;
* hence the false-positive rate is 0, the false-negative rate is ``1 − a``,
  and the returned probability never exceeds ``a`` — "a low-accuracy
  predictor should not make predictions with high confidence."

Detectability is keyed on the failure's ``event_id`` via a hash-based
uniform draw (:func:`repro.sim.rng.stable_uniform`), so it is independent of
query order and identical across parameter sweeps with the same seed —
exactly the "deterministic across runs" property the paper relies on when
comparing accuracies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.base import PredictedFailure, Predictor
from repro.sim.rng import stable_uniform


class TracePredictor(Predictor):
    """Oracle-with-blind-spots predictor over a known failure trace.

    Counters: ``prediction.trace.queries``, ``prediction.trace.hits``,
    and the ``prediction.trace.hit_rate`` gauge — the fraction of window
    queries that surfaced a detectable failure.

    Args:
        trace: The failure log the simulation replays.
        accuracy: The accuracy knob ``a ∈ [0, 1]``; a failure is visible to
            the predictor iff its detectability ``p_x ≤ a``.
        seed: Seed for the detectability assignment; keep it fixed across an
            accuracy sweep so higher accuracy strictly reveals a superset of
            failures.
    """

    _obs_component = "trace"

    def __init__(
        self, trace: FailureTrace, accuracy: float, seed: Optional[int] = None
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self._trace = trace
        self._accuracy = float(accuracy)
        self._seed = seed
        self._detectability: Dict[int, float] = {
            event.event_id: stable_uniform(f"detectability:{event.event_id}", seed)
            for event in trace
        }
        self._index: Optional["FailureIntervalIndex"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        """The accuracy parameter ``a``."""
        return self._accuracy

    @property
    def trace(self) -> FailureTrace:
        """The underlying failure trace."""
        return self._trace

    def detectability(self, event: FailureEvent) -> float:
        """The static ``p_x`` assigned to ``event``."""
        return self._detectability[event.event_id]

    def is_detectable(self, event: FailureEvent) -> bool:
        """Whether this predictor (at its accuracy) can see ``event``."""
        return self._detectability[event.event_id] <= self._accuracy

    # ------------------------------------------------------------------
    # Predictor interface
    # ------------------------------------------------------------------
    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        """Detectability of the first detectable failure in the window, or 0.

        Matches the paper's retrieval semantics: failures are scanned in
        time order and the first with ``p_x ≤ a`` short-circuits the scan.
        The result is therefore bounded above by ``a``.
        """
        if end <= start:
            return 0.0
        result = 0.0
        for event in self._trace.in_window(nodes, start, end):
            px = self._detectability[event.event_id]
            if px <= self._accuracy:
                result = px
                break
        self._record_query(result)
        return result

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        """All detectable failures in the window, in time order."""
        if end <= start:
            return []
        result: List[PredictedFailure] = []
        for event in self._trace.in_window(nodes, start, end):
            px = self._detectability[event.event_id]
            if px <= self._accuracy:
                result.append(
                    PredictedFailure(time=event.time, node=event.node, probability=px)
                )
        return result

    def first_predicted_failure(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        """The failure whose ``p_x`` :meth:`failure_probability` would return."""
        if end <= start:
            return None
        for event in self._trace.in_window(nodes, start, end):
            px = self._detectability[event.event_id]
            if px <= self._accuracy:
                return PredictedFailure(
                    time=event.time, node=event.node, probability=px
                )
        return None

    def interval_index(self) -> "FailureIntervalIndex":
        """This predictor's :class:`FailureIntervalIndex`, built lazily.

        The index is a pure function of (trace, detectability, accuracy),
        all immutable here, so one build serves the predictor's lifetime;
        :meth:`with_accuracy` clones re-filter at their own accuracy.
        """
        if self._index is None:
            from repro.prediction.index import FailureIntervalIndex

            self._index = FailureIntervalIndex(
                self._trace, self._detectability, self._accuracy
            )
        return self._index

    def node_failure_term(self, node: int, start: float, end: float) -> float:
        """Per-node term (``p_x`` of the node's first detectable failure).

        Note the trace predictor is *not* survival-decomposable — the
        set-level ``p_f`` is the first-failure detectability, not an
        independent combination — so the fast path answers set queries
        and placement from :meth:`interval_index` and uses these terms
        only for single-node queries, where they match
        :meth:`node_failure_probability` exactly.
        """
        if end <= start:
            return 0.0
        return self.interval_index().node_term(node, start, end)

    def with_accuracy(self, accuracy: float) -> "TracePredictor":
        """A predictor over the same trace and detectabilities at another
        accuracy (the cheap way to sweep ``a``)."""
        clone = TracePredictor.__new__(TracePredictor)
        clone._trace = self._trace
        clone._accuracy = float(accuracy)
        if not 0.0 <= clone._accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        clone._seed = self._seed
        clone._detectability = self._detectability
        clone._index = None
        return clone
