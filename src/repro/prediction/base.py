"""Predictor interface.

The paper's predictor contract (Section 3.2): *"The prediction algorithm is
given a set (partition) of nodes and a time window, and returns the
estimated probability of failure."*  Every predictor in the library — the
trace-based simulation device, the null predictor, and the online
health-signal predictor — implements :class:`Predictor`.

A second method, :meth:`Predictor.predicted_failures`, exposes the *times*
of predicted failures in a window.  The scheduler's negotiation loop uses it
to advance candidate start times past a predicted failure instead of probing
blindly, and the checkpointing policy uses the window probability alone.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class PredictedFailure:
    """One failure a predictor is willing to disclose for a window.

    Attributes:
        time: Predicted failure time (seconds).
        node: Node expected to fail.
        probability: Predictor's confidence the failure occurs, in [0, 1].
    """

    time: float
    node: int
    probability: float

    def __post_init__(self) -> None:
        # The [0, 1] domain is the contract every consumer (negotiation,
        # checkpointing) assumes; enforce it where the prediction enters
        # the system.
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"predicted failure probability {self.probability} "
                "not in [0, 1]"
            )


class Predictor(abc.ABC):
    """Estimates failure probabilities for node sets over time windows."""

    #: Component segment of this predictor's metric names
    #: (``prediction.<component>.*``); overridden by subclasses.
    _obs_component = "base"
    #: ``failure_probability`` calls, and those that returned a nonzero
    #: probability, counted by predictors that call :meth:`_record_query`
    #: (class-level zeros until the first query).
    _queries = 0
    _hits = 0

    def _record_query(self, probability: float) -> None:
        """Count one ``failure_probability`` call."""
        self._queries += 1
        if probability > 0.0:
            self._hits += 1

    def counters(self) -> Dict[str, int]:
        """``prediction.<component>.queries`` and ``.hits`` over this
        predictor's lifetime."""
        prefix = f"prediction.{self._obs_component}"
        return {prefix + ".queries": self._queries, prefix + ".hits": self._hits}

    def gauges(self) -> Dict[str, float]:
        """``prediction.<component>.hit_rate``: the fraction of queries
        that returned a nonzero failure probability."""
        rate = self._hits / self._queries if self._queries else 0.0
        return {f"prediction.{self._obs_component}.hit_rate": rate}

    @abc.abstractmethod
    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        """Probability that *some* node in ``nodes`` fails in ``[start, end)``.

        Returns 0.0 when no failure is predicted; never raises for empty
        node sets or zero-length windows (both trivially return 0.0).
        """

    @abc.abstractmethod
    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        """All failures the predictor discloses in the window, time-sorted.

        ``failure_probability`` must be consistent with this list: it
        reflects the first (earliest) disclosed failure, matching the
        paper's "considers them in order of time" semantics.
        """

    def first_predicted_failure(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        """The earliest disclosed failure in the window, or None.

        The negotiation loop only ever needs the first element of
        :meth:`predicted_failures` (the jump target past a predicted
        failure); predictors with an indexed representation override this
        to avoid materialising the full list.
        """
        predicted = self.predicted_failures(nodes, start, end)
        return predicted[0] if predicted else None

    def first_failure_time(
        self, nodes: Iterable[int], start: float
    ) -> Optional[float]:
        """Time of the set's first failure the predictor can see at or
        after ``start`` (``inf`` if none), or None when unknown.

        A window that ends by that time has ``failure_probability`` 0.
        Checkpointing uses it to account requests that see no predicted
        failure without an event each; None, the default, keeps one
        event per request.
        """
        return None

    def node_failure_probability(self, node: int, start: float, end: float) -> float:
        """Single-node variant of :meth:`failure_probability`."""
        return self.failure_probability((node,), start, end)

    def window_scores(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Mapping[int, float]:
        """Per-node failure probability over the window, for placement.

        The map is sparse: a node it omits scores 0.0, and it may name
        nodes outside ``nodes``; callers must not mutate it.  This default asks
        :meth:`node_failure_probability` once per member of ``nodes``;
        the analytical evaluator (:mod:`repro.core.fastpath`) answers
        from one window query instead.
        """
        return {
            node: self.node_failure_probability(node, start, end) for node in nodes
        }

    def node_failure_term(self, node: int, start: float, end: float) -> float:
        """Per-node hazard term for survival-decomposable predictors.

        The analytical fast path (:mod:`repro.core.fastpath`) memoises
        these per ``(node, window)`` and combines them independently via
        :func:`combine_independent`.  Predictors whose set-level
        ``failure_probability`` *is* the independent combination of
        per-node hazards (e.g. the online predictor) override this to
        return the raw hazard, making the cached reconstruction
        bit-identical; for others the default single-node query makes the
        reconstruction an independence approximation (see DESIGN.md
        "Analytical negotiation fast path" for the tolerance contract).
        """
        return self.failure_probability((node,), start, end)


class NullPredictor(Predictor):
    """A predictor with no information (the paper's no-forecasting system).

    Equivalent to the trace predictor at accuracy ``a = 0``: it never
    predicts anything, so fault-aware placement degrades to arbitrary
    tie-breaking and risk-based checkpointing sees ``p_f = 0`` everywhere.
    """

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        return 0.0

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        return []


def combine_independent(probabilities: Sequence[float]) -> float:
    """Probability that at least one of several independent events occurs.

    Utility for predictors that model per-node hazards independently:
    ``1 - prod(1 - p_i)``, clipped into [0, 1].
    """
    survival = 1.0
    for p in probabilities:
        p = min(max(p, 0.0), 1.0)
        survival *= 1.0 - p
    return 1.0 - survival
