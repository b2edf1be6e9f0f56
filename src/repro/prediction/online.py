"""A working online event predictor (the Sahoo-et-al.-style substrate).

The paper treats prediction as a black box with an accuracy knob, citing
algorithms that combine "linear time series models for the roughly
continuous variables" with "Bayesian correlation models to recognize
patterns in preceding system events", reaching ≈70% recall with negligible
false positives.  Those algorithms are closed, so this module implements a
faithful open equivalent over the library's synthetic telemetry:

* **logical channel** — a severity-weighted sliding-window count of recent
  WARNING/ERROR records per node (:class:`~repro.prediction.health
  .EventWindowIndex`), the event-pattern half;
* **physical channel** — the recent temperature slope from
  :class:`~repro.prediction.health.HealthModel`, the time-series half;
* a logistic combination maps the two scores to a per-node hazard for the
  queried window; per-node hazards combine independently.

Unlike :class:`~repro.prediction.trace.TracePredictor`, this predictor only
sees information available *before* the window starts — it can be wrong in
both directions, and :mod:`repro.prediction.evaluation` measures exactly how
wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.failures.events import RawEvent
from repro.prediction.base import (
    PredictedFailure,
    Predictor,
    combine_independent,
)
from repro.prediction.health import EventWindowIndex, HealthModel


@dataclass(frozen=True)
class OnlinePredictorConfig:
    """Tuning knobs for the online predictor.

    The defaults are calibrated for the "Sahoo regime" the paper cites:
    a *very* low background hazard on healthy nodes (so quoting a promise
    over a long window does not drown it in false risk), with alarms only
    when precursor evidence is strong — precision over recall.

    Attributes:
        event_window: Lookback (seconds) for the logical channel.
        event_scale: Logical score at which that channel saturates one
            unit of logit.
        logical_weight: Logit units contributed by a saturated logical
            channel.
        slope_scale: Temperature slope (deg C/h) for one unit of the
            physical channel.
        physical_weight: Logit units contributed per unit of the physical
            channel.
        bias: Logistic bias; sets the healthy-node background hazard
            (``sigmoid(bias)`` per reference window).
        horizon_reference: Window length (seconds) the hazard is calibrated
            for.  Shorter windows scale the hazard down linearly; longer
            windows do *not* scale it up — precursor knowledge only reaches
            about one window ahead, and a predictor should not grow more
            confident about a horizon it cannot see (the same philosophy as
            the paper's ``p_f <= a`` cap).
        alarm_threshold: Minimum per-node probability to disclose a
            :class:`PredictedFailure` in :meth:`predicted_failures`.
    """

    event_window: float = 3600.0
    event_scale: float = 2.5
    logical_weight: float = 3.0
    slope_scale: float = 8.0
    physical_weight: float = 2.0
    bias: float = -7.0
    horizon_reference: float = 3600.0
    alarm_threshold: float = 0.5


class OnlinePredictor(Predictor):
    """Health-signal predictor over the raw event log + telemetry.

    Args:
        raw_log: The unfiltered event stream (provides the logical channel).
        health: Continuous telemetry model (provides the physical channel).
        config: Tuning; defaults favour precision over recall, matching the
            paper's "negligible rate of false positives" regime.
    """

    _obs_component = "online"

    def __init__(
        self,
        raw_log: Sequence[RawEvent],
        health: Optional[HealthModel] = None,
        config: Optional[OnlinePredictorConfig] = None,
    ) -> None:
        self._index = EventWindowIndex(raw_log)
        self._health = health
        self._config = config if config is not None else OnlinePredictorConfig()
        self._alarms = 0

    def counters(self) -> Dict[str, int]:
        """The base query counters plus ``prediction.online.alarms``."""
        counts = super().counters()
        counts["prediction.online.alarms"] = self._alarms
        return counts

    @property
    def config(self) -> OnlinePredictorConfig:
        return self._config

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def node_hazard(self, node: int, at_time: float, horizon: float) -> float:
        """Probability node ``node`` fails within ``horizon`` of ``at_time``.

        Only observations strictly before ``at_time`` are used.
        """
        cfg = self._config
        logical = self._index.score(node, at_time, cfg.event_window)
        physical = 0.0
        if self._health is not None:
            physical = max(0.0, self._health.temperature_slope(node, at_time))
        z = (
            cfg.bias
            + cfg.logical_weight * (logical / cfg.event_scale)
            + cfg.physical_weight * (physical / cfg.slope_scale)
        )
        base = 1.0 / (1.0 + math.exp(-z))
        # Shorter windows see proportionally less of the hazard; longer
        # windows never scale it *up* (see config docstring).
        scale = min(1.0, max(horizon, 0.0) / cfg.horizon_reference)
        return min(1.0, base * scale)

    # ------------------------------------------------------------------
    # Predictor interface
    # ------------------------------------------------------------------
    def node_failure_term(self, node: int, start: float, end: float) -> float:
        """The raw per-node hazard (this predictor *is* survival-
        decomposable: ``failure_probability`` combines exactly these terms
        independently, so the fast path's cached reconstruction is
        bit-identical to the probe path)."""
        if end <= start:
            return 0.0
        return self.node_hazard(node, start, end - start)

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        if end <= start:
            return 0.0
        horizon = end - start
        hazards = [self.node_hazard(n, start, horizon) for n in nodes]
        result = combine_independent(hazards)
        self._record_query(result)
        return result

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        if end <= start:
            return []
        horizon = end - start
        alarms: List[PredictedFailure] = []
        for node in nodes:
            p = self.node_hazard(node, start, horizon)
            if p >= self._config.alarm_threshold:
                # The logical channel cannot localise the time within the
                # window; report the window midpoint as the point estimate.
                alarms.append(
                    PredictedFailure(
                        time=start + horizon / 2.0, node=node, probability=p
                    )
                )
        alarms.sort(key=lambda a: (a.time, a.node))
        self._alarms += len(alarms)
        return alarms
