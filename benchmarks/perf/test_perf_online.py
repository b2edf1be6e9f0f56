"""Full-size end-to-end quality check of the online (Sahoo-style) predictor.

Tier-1 (``tests/prediction/test_online.py``) runs the same check over a
15-day window; this 90-day run is marked ``perf`` and runs only when
invoked explicitly:

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -q
"""

from __future__ import annotations

import pytest

from repro.failures.generator import generate_failure_trace, generate_raw_log
from repro.prediction.evaluation import evaluate_predictor
from repro.prediction.health import HealthModel
from repro.prediction.online import OnlinePredictor


@pytest.mark.perf
def test_sahoo_regime_on_90_days_of_synthetic_telemetry():
    duration = 90 * 86400.0
    truth = generate_failure_trace(duration, seed=23)
    raw = generate_raw_log(truth, duration, seed=23)
    predictor = OnlinePredictor(raw, health=HealthModel(truth, seed=23))
    quality = evaluate_predictor(predictor, truth, nodes=128, lead=900.0)
    # Precision-first calibration: near-zero false positives, useful
    # recall (bounded by the 0.7 precursor fraction).
    assert quality.precision >= 0.8
    assert 0.1 <= quality.recall <= 0.8
