"""Unit tests for the predictor-evaluation harness."""

from __future__ import annotations

from typing import Iterable, List

import pytest

from repro.failures.events import FailureEvent, FailureTrace
from repro.prediction.base import NullPredictor, PredictedFailure, Predictor
from repro.prediction.evaluation import evaluate_predictor, recall_by_lead
from repro.prediction.trace import TracePredictor

HOUR = 3600.0


class OraclePredictor(Predictor):
    """Discloses every failure in the window (perfect alarm stream)."""

    def __init__(self, trace: FailureTrace) -> None:
        self._trace = trace

    def failure_probability(self, nodes, start, end):
        return 1.0 if self._trace.in_window(nodes, start, end) else 0.0

    def predicted_failures(self, nodes, start, end):
        return [
            PredictedFailure(time=e.time, node=e.node, probability=1.0)
            for e in self._trace.in_window(nodes, start, end)
        ]


class NoisyPredictor(Predictor):
    """Alarms on a fixed node regardless of reality (pure false alarms)."""

    def failure_probability(self, nodes, start, end):
        return 0.9

    def predicted_failures(self, nodes, start, end):
        return [PredictedFailure(time=start, node=0, probability=0.9)]


@pytest.fixture
def trace():
    return FailureTrace(
        [
            FailureEvent(event_id=i, time=i * 10 * HOUR, node=(i * 7) % 64)
            for i in range(1, 30)
        ]
    )


class TestEvaluatePredictor:
    def test_oracle_scores_perfectly(self, trace):
        quality = evaluate_predictor(OraclePredictor(trace), trace, nodes=64)
        assert quality.recall == 1.0
        assert quality.precision == 1.0
        assert quality.false_alarms == 0

    def test_null_predictor_has_zero_recall(self, trace):
        quality = evaluate_predictor(NullPredictor(), trace, nodes=64)
        assert quality.recall == 0.0
        assert quality.alarms == 0
        assert quality.precision == 1.0  # vacuous

    def test_noisy_predictor_penalised_on_precision(self, trace):
        quality = evaluate_predictor(NoisyPredictor(), trace, nodes=64)
        assert quality.precision < 0.5
        assert quality.false_alarms > 0

    def test_trace_predictor_recall_tracks_accuracy(self, trace):
        for accuracy in (0.3, 0.8):
            predictor = TracePredictor(trace, accuracy=accuracy, seed=5)
            quality = evaluate_predictor(predictor, trace, nodes=64)
            assert quality.recall == pytest.approx(accuracy, abs=0.25)
            assert quality.precision == 1.0

    def test_empty_truth(self):
        quality = evaluate_predictor(NullPredictor(), FailureTrace([]), nodes=8)
        assert quality.recall == 1.0
        assert quality.precision == 1.0

    def test_invalid_probe_step(self, trace):
        with pytest.raises(ValueError):
            evaluate_predictor(NullPredictor(), trace, nodes=8, probe_step=0.0)


class TestAlarmCalibration:
    def test_oracle_alarms_are_perfectly_calibrated(self, trace):
        quality = evaluate_predictor(OraclePredictor(trace), trace, nodes=64)
        s = quality.calibration
        assert s.count == quality.alarms
        assert s.successes == quality.alarms  # every p=1 alarm came true
        assert s.brier == 0.0
        assert s.expected_calibration_error == 0.0
        assert quality.calibration.mean_forecast == 1.0

    def test_noisy_alarms_land_in_an_overconfident_bin(self, trace):
        quality = evaluate_predictor(NoisyPredictor(), trace, nodes=64)
        s = quality.calibration
        # Alarms at p=0.9 that almost never come true: the mean forecast
        # must sit far above the bin's empirical success rate.
        bin9 = next(b for b in s.bins if b.count > 0)
        assert bin9.low == pytest.approx(0.9)
        assert bin9.mean_forecast > bin9.success_rate
        assert s.brier > 0.5
        assert quality.calibration.mean_forecast == pytest.approx(0.9)

    def test_empty_truth_has_an_empty_calibration(self):
        quality = evaluate_predictor(NullPredictor(), FailureTrace([]), nodes=8)
        assert quality.calibration.count == 0
        assert quality.calibration.mean_forecast == 0.0


class TestRecallByLead:
    def test_trace_predictor_is_lead_invariant(self, trace):
        predictor = TracePredictor(trace, accuracy=1.0, seed=1)
        recalls = recall_by_lead(predictor, trace, nodes=64, leads=[0.0, HOUR, 6 * HOUR])
        assert all(r == pytest.approx(recalls[0], abs=0.05) for r in recalls)

    def test_returns_one_value_per_lead(self, trace):
        values = recall_by_lead(NullPredictor(), trace, nodes=8, leads=[0.0, 1.0])
        assert values == [0.0, 0.0]
