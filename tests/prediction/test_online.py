"""Unit tests for the online (Sahoo-style) predictor."""

from __future__ import annotations

import pytest

from repro.failures.events import RawEvent, Severity
from repro.failures.generator import generate_failure_trace, generate_raw_log
from repro.prediction.evaluation import evaluate_predictor
from repro.prediction.health import HealthModel
from repro.prediction.online import OnlinePredictor, OnlinePredictorConfig

HOUR = 3600.0


def precursor_burst(node, end_time, count=5):
    """A run of ERROR records in the hour before ``end_time``."""
    return [
        RawEvent(
            time=end_time - 3000.0 + 400.0 * k,
            node=node,
            severity=Severity.ERROR,
        )
        for k in range(count)
    ]


class TestHazard:
    def test_healthy_node_hazard_is_tiny(self):
        predictor = OnlinePredictor([], health=None)
        assert predictor.node_hazard(0, 1000.0, HOUR) < 0.01

    def test_precursor_burst_raises_hazard(self):
        predictor = OnlinePredictor(precursor_burst(0, 10 * HOUR), health=None)
        quiet = predictor.node_hazard(1, 10 * HOUR, HOUR)
        noisy = predictor.node_hazard(0, 10 * HOUR, HOUR)
        assert noisy > 0.5
        assert noisy > 50 * quiet

    def test_hazard_uses_only_past_information(self):
        predictor = OnlinePredictor(precursor_burst(0, 10 * HOUR), health=None)
        before_burst = predictor.node_hazard(0, 6 * HOUR, HOUR)
        assert before_burst < 0.01

    def test_short_horizon_scales_down(self):
        predictor = OnlinePredictor(precursor_burst(0, 10 * HOUR), health=None)
        full = predictor.node_hazard(0, 10 * HOUR, HOUR)
        half = predictor.node_hazard(0, 10 * HOUR, HOUR / 2)
        assert half == pytest.approx(full / 2, rel=0.01)

    def test_long_horizon_never_scales_up(self):
        predictor = OnlinePredictor(precursor_burst(0, 10 * HOUR), health=None)
        base = predictor.node_hazard(0, 10 * HOUR, HOUR)
        long = predictor.node_hazard(0, 10 * HOUR, 100 * HOUR)
        assert long <= base + 1e-12


class TestPredictorInterface:
    def test_empty_window_returns_zero(self):
        predictor = OnlinePredictor([], health=None)
        assert predictor.failure_probability([0], 100.0, 100.0) == 0.0
        assert predictor.predicted_failures([0], 100.0, 50.0) == []

    def test_alarm_threshold_gates_disclosure(self):
        predictor = OnlinePredictor(precursor_burst(0, 10 * HOUR), health=None)
        alarms = predictor.predicted_failures([0, 1], 10 * HOUR, 11 * HOUR)
        assert [a.node for a in alarms] == [0]
        assert alarms[0].probability >= predictor.config.alarm_threshold

    def test_partition_probability_combines_nodes(self):
        raw = precursor_burst(0, 10 * HOUR) + precursor_burst(1, 10 * HOUR)
        predictor = OnlinePredictor(raw, health=None)
        single = predictor.failure_probability([0], 10 * HOUR, 11 * HOUR)
        double = predictor.failure_probability([0, 1], 10 * HOUR, 11 * HOUR)
        assert double > single


class TestConfigDefault:
    def test_default_config_instances_are_independent(self):
        # Regression: the config default used to be a shared dataclass
        # instance in the signature; two predictors must not alias it.
        a = OnlinePredictor([], health=None)
        b = OnlinePredictor([], health=None)
        assert a.config is not b.config
        assert a.config == OnlinePredictorConfig()

    def test_explicit_config_is_kept(self):
        cfg = OnlinePredictorConfig(alarm_threshold=0.25)
        predictor = OnlinePredictor([], health=None, config=cfg)
        assert predictor.config is cfg


class TestEndToEndQuality:
    def test_sahoo_regime_on_synthetic_telemetry(self):
        # 15 days keeps tier-1 fast; benchmarks/perf/test_perf_online.py
        # runs the same check over 90 days.
        duration = 15 * 86400.0
        truth = generate_failure_trace(duration, seed=23)
        raw = generate_raw_log(truth, duration, seed=23)
        predictor = OnlinePredictor(raw, health=HealthModel(truth, seed=23))
        quality = evaluate_predictor(predictor, truth, nodes=128, lead=900.0)
        # Precision-first calibration: near-zero false positives, useful
        # recall (bounded by the 0.7 precursor fraction).
        assert quality.precision >= 0.8
        assert 0.1 <= quality.recall <= 0.8
