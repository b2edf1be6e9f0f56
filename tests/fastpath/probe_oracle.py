"""Reference oracles for the analytical negotiation fast path.

:class:`ProbeOracle` is the per-candidate probe loop the fast path
replaced, kept here as the test suite's reference: it stands in for
:class:`~repro.core.fastpath.AnalyticalEvaluator` (same constructor, same
surface) but answers every offer price, placement score and jump target
with a live predictor query, and never prunes — its pruning bound is the
trivial 1.0.  A negotiator or system built on it books exactly what the
fast path must book.

:class:`CheckingOracle` additionally prices every set-level query
analytically and raises :class:`OracleDisagreement` when the two values
stray further apart than its tolerance; the live (probe) value is the one
returned.

Full simulations swap the oracle in with ``monkeypatch`` on the name the
system builds its evaluator from::

    monkeypatch.setattr(repro.core.system, "AnalyticalEvaluator", ProbeOracle)
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.core.fastpath import AnalyticalEvaluator
from repro.obs.prof import Profiler
from repro.obs.registry import MetricsRegistry
from repro.prediction.base import PredictedFailure, Predictor

#: Absolute tolerance of the checking oracle.  The trace and online fast
#: paths are bit-identical by construction, so any disagreement means a
#: predictor's ``node_failure_term`` does not match its
#: ``failure_probability`` decomposition (see DESIGN.md).
DEFAULT_TOLERANCE = 1e-9


class OracleDisagreement(AssertionError):
    """The analytical price strayed from the probe price."""


class ProbeOracle(Predictor):
    """Answers every evaluator query with a live predictor query."""

    def __init__(
        self,
        predictor: Predictor,
        node_count: int,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self._predictor = predictor

    def begin_dialogue(self) -> None:
        """Nothing is cached, so there is nothing to reset."""

    def best_case_probability(self, size: int, start: float, end: float) -> float:
        return 1.0  # never prune

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        return self._predictor.failure_probability(nodes, start, end)

    def node_failure_probability(self, node: int, start: float, end: float) -> float:
        return self._predictor.node_failure_probability(node, start, end)

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        return self._predictor.predicted_failures(nodes, start, end)

    def first_predicted_failure(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        return self._predictor.first_predicted_failure(nodes, start, end)


class CheckingOracle(ProbeOracle):
    """A :class:`ProbeOracle` that cross-checks every set-level price
    against the analytical evaluator."""

    def __init__(
        self,
        predictor: Predictor,
        node_count: int,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        super().__init__(predictor, node_count)
        self._analytical = AnalyticalEvaluator(predictor, node_count)
        self._tolerance = tolerance

    def begin_dialogue(self) -> None:
        self._analytical.begin_dialogue()

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        probe = self._predictor.failure_probability(nodes, start, end)
        analytical = self._analytical.failure_probability(nodes, start, end)
        if abs(analytical - probe) > self._tolerance:
            raise OracleDisagreement(
                f"analytical promise {analytical!r} disagrees with probe "
                f"promise {probe!r} for nodes={nodes} window=[{start}, {end})"
                f" beyond tolerance {self._tolerance}"
            )
        return probe


#: The pricing variants tests parametrize over, by id: the library's fast
#: path and the two oracles.  Each is built as ``cls(predictor, nodes)``.
PRICING: Dict[str, Callable[..., Predictor]] = {
    "analytical": AnalyticalEvaluator,
    "probe": ProbeOracle,
    "oracle": CheckingOracle,
}
