"""Predictor quality evaluation (precision / recall / calibration).

Measures what the paper's accuracy knob abstracts away: given a predictor
and a ground-truth failure trace, how many failures are caught with how much
warning, and how many alarms are spurious.  Used to validate that

* the :class:`~repro.prediction.trace.TracePredictor` realises recall ≈ a
  and precision = 1 by construction, and
* the :class:`~repro.prediction.online.OnlinePredictor` lands in the
  "Sahoo regime" (recall up to ≈0.7 at near-zero false-positive rate) on
  synthetic telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.failures.events import FailureTrace
from repro.obs.audit import CalibrationCurve, CalibrationSummary
from repro.prediction.base import Predictor


@dataclass(frozen=True)
class PredictionQuality:
    """Alarm-level evaluation of a predictor against ground truth.

    Attributes:
        failures: Ground-truth failures examined.
        detected: Failures for which an alarm was raised in their lead
            window on the right node.
        alarms: Total alarms raised across all probe points.
        false_alarms: Alarms not matching any failure in the probe window.
        recall: detected / failures (1.0 when failures == 0).
        precision: (alarms - false_alarms) / alarms (1.0 when alarms == 0).
        calibration: Binned calibration of every alarm's disclosed
            probability against whether the alarm was correct — the same
            :class:`~repro.obs.audit.CalibrationSummary` math (reliability
            bins with Wilson intervals, Brier decomposition, log loss) the
            guarantee audit layer uses.
    """

    failures: int
    detected: int
    alarms: int
    false_alarms: int
    recall: float
    precision: float
    calibration: CalibrationSummary


def evaluate_predictor(
    predictor: Predictor,
    truth: FailureTrace,
    nodes: int,
    lead: float = 1800.0,
    horizon: float = 3600.0,
    probe_step: Optional[float] = None,
    max_probes: int = 2000,
) -> PredictionQuality:
    """Probe a predictor across the trace and score its alarms.

    Protocol: at probe times spaced ``probe_step`` apart (default:
    ``horizon``), ask the predictor for failures over
    ``[t + lead, t + lead + horizon)`` on all nodes.  An alarm is *correct*
    if a ground-truth failure occurs on that node within the probed window;
    a ground-truth failure counts as *detected* if any probe whose window
    covered it alarmed on its node.

    Args:
        predictor: Any :class:`~repro.prediction.base.Predictor`.
        truth: Ground-truth failures.
        nodes: Cluster width (nodes probed at each step).
        lead: Warning time required before the window opens.
        horizon: Probed window length.
        probe_step: Spacing of probe times; defaults to ``horizon`` (the
            windows tile the trace).
        max_probes: Upper bound on probe points (long traces are
            subsampled evenly).
    """
    if len(truth) == 0:
        return PredictionQuality(
            0, 0, 0, 0, 1.0, 1.0, CalibrationCurve().summary()
        )
    step = probe_step if probe_step is not None else horizon
    if step <= 0:
        raise ValueError(f"probe_step must be > 0, got {step}")

    start = truth[0].time - lead - horizon
    end = truth[-1].time + step
    probe_count = int((end - start) / step) + 1
    stride = max(1, probe_count // max_probes)

    node_range = list(range(nodes))
    detected_ids: Set[int] = set()
    alarms = 0
    false_alarms = 0
    # Every alarm's disclosed probability is scored against whether the
    # alarm came true — the shared audit-layer calibration math.
    curve = CalibrationCurve()

    for k in range(0, probe_count, stride):
        t = start + k * step
        window_start = t + lead
        window_end = window_start + horizon
        for alarm in predictor.predicted_failures(node_range, window_start, window_end):
            alarms += 1
            # An alarm is credited when a real failure hits that node inside
            # the probed window, or within one lead of its start: precursor
            # evidence cannot localise a failure to better than its warning
            # span, and an alarm for a failure landing minutes before the
            # window is a correct warning, not a false positive.
            matches = [
                e
                for e in truth.in_window(
                    (alarm.node,), window_start - lead, window_end
                )
            ]
            if matches:
                for event in matches:
                    detected_ids.add(event.event_id)
            else:
                false_alarms += 1
            curve.observe(min(max(alarm.probability, 0.0), 1.0), bool(matches))

    failures = len(truth)
    detected = len(detected_ids)
    return PredictionQuality(
        failures=failures,
        detected=detected,
        alarms=alarms,
        false_alarms=false_alarms,
        recall=detected / failures,
        precision=(alarms - false_alarms) / alarms if alarms else 1.0,
        calibration=curve.summary(),
    )


def recall_by_lead(
    predictor: Predictor,
    truth: FailureTrace,
    nodes: int,
    leads: List[float],
    horizon: float = 3600.0,
) -> List[float]:
    """Recall as a function of required warning time.

    Online predictors degrade as more lead is demanded (precursors fade);
    the trace predictor is lead-invariant by construction.  Returns one
    recall value per entry of ``leads``.
    """
    return [
        evaluate_predictor(predictor, truth, nodes, lead=lead, horizon=horizon).recall
        for lead in leads
    ]
