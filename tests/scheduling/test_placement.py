"""Unit tests for placement scorers."""

from __future__ import annotations

import pytest

from repro.cluster.topology import FlatTopology
from repro.core.fastpath import AnalyticalEvaluator
from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.trace import TracePredictor
from repro.scheduling.placement import (
    fault_aware_scorer,
    index_scorer,
    random_scorer,
    scorer_by_name,
)


@pytest.fixture
def predictor():
    trace = FailureTrace([FailureEvent(event_id=1, time=500.0, node=2)])
    return TracePredictor(trace, accuracy=1.0, seed=1)


FREE = list(range(8))


class TestFaultAware:
    def test_doomed_node_scores_higher(self, predictor):
        scores = fault_aware_scorer(predictor)(FREE, 0.0, 1000.0)
        assert scores.get(2, 0.0) > scores.get(1, 0.0)

    def test_safe_window_scores_zero(self, predictor):
        scores = fault_aware_scorer(predictor)(FREE, 600.0, 1000.0)
        assert scores.get(2, 0.0) == 0.0

    def test_evaluator_answers_from_the_window_query(self, predictor):
        # The evaluator's map is sparse: only the dirty node appears.
        evaluator = AnalyticalEvaluator(predictor, 8)
        assert fault_aware_scorer(evaluator)(FREE, 0.0, 1000.0) == {
            2: predictor.node_failure_probability(2, 0.0, 1000.0)
        }
        assert fault_aware_scorer(evaluator)(FREE, 600.0, 1000.0) == {}


class TestBaselines:
    def test_index_scorer_prefers_low_indexes(self):
        scorer = index_scorer()
        assert scorer([5, 1, 3], 0.0, 1.0) == {}
        topology = FlatTopology(8)
        assert topology.select_partition([1, 3, 5], 2, 0.0, 1.0, scorer) == [1, 3]

    def test_random_scorer_deterministic_per_query(self):
        scorer = random_scorer(seed=4)
        assert scorer(FREE, 0.0, 10.0) == scorer(FREE, 0.0, 10.0)

    def test_random_scorer_varies_with_window(self):
        scorer = random_scorer(seed=4)
        values = {scorer([3], 0.0, float(e))[3] for e in range(1, 30)}
        assert len(values) > 20

    def test_random_scorer_in_unit_interval(self):
        scores = random_scorer(seed=4)(FREE, 0.0, 1.0)
        assert sorted(scores) == FREE
        assert all(0.0 <= value < 1.0 for value in scores.values())


class TestFactory:
    def test_lookup(self, predictor):
        assert scorer_by_name("fault-aware", predictor)(FREE, 0.0, 1000.0)[2] > 0
        assert scorer_by_name("first-fit", predictor)(FREE, 0.0, 1.0) == {}
        random_scores = scorer_by_name("random", predictor, seed=1)(FREE, 0.0, 1.0)
        assert 0 <= random_scores[0] < 1

    def test_unknown_rejected(self, predictor):
        with pytest.raises(KeyError):
            scorer_by_name("psychic", predictor)
