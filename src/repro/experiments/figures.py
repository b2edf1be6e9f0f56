"""Regeneration of every figure in the paper's evaluation (Section 5).

Each ``figure_N`` function returns a :class:`FigureResult` holding the same
series the paper plots:

====  =========================================================  ========
 #    content                                                    workload
====  =========================================================  ========
 1    QoS vs accuracy, U ∈ {0.1, 0.5, 0.9}                       SDSC
 2    QoS vs accuracy, U ∈ {0.1, 0.5, 0.9}                       NASA
 3    Average utilization vs accuracy, U ∈ {0.1, 0.5, 0.9}       SDSC
 4    Average utilization vs accuracy, U ∈ {0.1, 0.5, 0.9}       NASA
 5    Total work lost vs accuracy, U ∈ {0.1, 0.5, 0.9}           SDSC
 6    Total work lost vs accuracy, U ∈ {0.1, 0.5, 0.9}           NASA
 7    QoS vs user threshold at a = 0.5 (insensitive plateau)     SDSC
 8    QoS vs user threshold at a = 1                             both
 9    Average utilization vs user threshold at a = 1             SDSC
 10   Average utilization vs user threshold at a = 1             NASA
 11   Total work lost vs user threshold at a = 1                 SDSC
 12   Total work lost vs user threshold at a = 1                 NASA
====  =========================================================  ========

A :class:`FigureCatalog` shares one memoised
:class:`~repro.experiments.runner.ExperimentContext` per workload across
all figures, so the full set costs one simulation per distinct sweep point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.config import HIGHLIGHT_USERS, bench_setup
from repro.experiments.runner import ExperimentContext
from repro.experiments.sweeps import (
    Series,
    accuracy_sweep,
    endpoint_comparison,
    user_sweep,
)


@dataclass(frozen=True)
class FigureResult:
    """The data behind one paper figure.

    Attributes:
        figure_id: Paper figure number (1-12).
        title: Caption-style description.
        x_label: Swept parameter.
        y_label: Plotted metric.
        workload: ``"sdsc"``, ``"nasa"`` or ``"both"``.
        series: One or more labelled curves.
    """

    figure_id: int
    title: str
    x_label: str
    y_label: str
    workload: str
    series: Tuple[Series, ...]

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"figure {self.figure_id} has no series {label!r}")


class FigureCatalog:
    """Lazily regenerates any of the paper's figures.

    Args:
        sdsc: Context for the SDSC log (built from the benchmark setup if
            omitted).
        nasa: Context for the NASA log (likewise).
    """

    def __init__(
        self,
        sdsc: Optional[ExperimentContext] = None,
        nasa: Optional[ExperimentContext] = None,
    ) -> None:
        self._contexts: Dict[str, Optional[ExperimentContext]] = {
            "sdsc": sdsc,
            "nasa": nasa,
        }

    def context(self, workload: str) -> ExperimentContext:
        ctx = self._contexts.get(workload)
        if ctx is None:
            ctx = ExperimentContext.prepare(bench_setup(workload))
            self._contexts[workload] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Accuracy-sweep figures (1-6)
    # ------------------------------------------------------------------
    def _accuracy_figure(
        self, figure_id: int, workload: str, metric: str, y_label: str
    ) -> FigureResult:
        series = accuracy_sweep(self.context(workload), metric, HIGHLIGHT_USERS)
        return FigureResult(
            figure_id=figure_id,
            title=(
                f"{y_label} vs. prediction accuracy, {workload.upper()} log, "
                "flat cluster, U = 0.1, 0.5, 0.9"
            ),
            x_label="Accuracy (a)",
            y_label=y_label,
            workload=workload,
            series=tuple(series),
        )

    def figure_1(self) -> FigureResult:
        return self._accuracy_figure(1, "sdsc", "qos", "QoS")

    def figure_2(self) -> FigureResult:
        return self._accuracy_figure(2, "nasa", "qos", "QoS")

    def figure_3(self) -> FigureResult:
        return self._accuracy_figure(3, "sdsc", "utilization", "Avg Utilization")

    def figure_4(self) -> FigureResult:
        return self._accuracy_figure(4, "nasa", "utilization", "Avg Utilization")

    def figure_5(self) -> FigureResult:
        return self._accuracy_figure(
            5, "sdsc", "lost_work", "Total Work Lost (node-seconds)"
        )

    def figure_6(self) -> FigureResult:
        return self._accuracy_figure(
            6, "nasa", "lost_work", "Total Work Lost (node-seconds)"
        )

    # ------------------------------------------------------------------
    # User-sweep figures (7-12)
    # ------------------------------------------------------------------
    def _user_figure(
        self,
        figure_id: int,
        workload: str,
        metric: str,
        y_label: str,
        accuracy: float = 1.0,
    ) -> FigureResult:
        series = user_sweep(self.context(workload), metric, accuracy)
        return FigureResult(
            figure_id=figure_id,
            title=(
                f"{y_label} vs. user behavior, {workload.upper()} log, "
                f"flat cluster, a = {accuracy:g}"
            ),
            x_label="User Parameter (U)",
            y_label=y_label,
            workload=workload,
            series=(series,),
        )

    def figure_7(self) -> FigureResult:
        """QoS vs U at a = 0.5: exhibits the insensitive plateau where the
        predictor's confidence cap keeps ``U`` from binding."""
        return self._user_figure(7, "sdsc", "qos", "QoS", accuracy=0.5)

    def figure_8(self) -> FigureResult:
        """QoS vs U at a = 1 for both logs (the paper overlays them)."""
        sdsc = user_sweep(self.context("sdsc"), "qos", 1.0)
        nasa = user_sweep(self.context("nasa"), "qos", 1.0)
        return FigureResult(
            figure_id=8,
            title="QoS vs. user behavior, flat cluster, a = 1",
            x_label="User Parameter (U)",
            y_label="QoS",
            workload="both",
            series=(
                Series(label="SDSC", points=sdsc.points),
                Series(label="NASA", points=nasa.points),
            ),
        )

    def figure_9(self) -> FigureResult:
        return self._user_figure(9, "sdsc", "utilization", "Avg Utilization")

    def figure_10(self) -> FigureResult:
        return self._user_figure(10, "nasa", "utilization", "Avg Utilization")

    def figure_11(self) -> FigureResult:
        return self._user_figure(
            11, "sdsc", "lost_work", "Total Work Lost (node-seconds)"
        )

    def figure_12(self) -> FigureResult:
        return self._user_figure(
            12, "nasa", "lost_work", "Total Work Lost (node-seconds)"
        )

    # ------------------------------------------------------------------
    # Dispatch and headline numbers
    # ------------------------------------------------------------------
    def figure(self, figure_id: int) -> FigureResult:
        """Regenerate a figure by its paper number."""
        builders = {
            1: self.figure_1,
            2: self.figure_2,
            3: self.figure_3,
            4: self.figure_4,
            5: self.figure_5,
            6: self.figure_6,
            7: self.figure_7,
            8: self.figure_8,
            9: self.figure_9,
            10: self.figure_10,
            11: self.figure_11,
            12: self.figure_12,
        }
        try:
            return builders[figure_id]()
        except KeyError:
            raise KeyError(
                f"the paper has figures 1-12; got {figure_id}"
            ) from None

    def headline_comparison(self, workload: str = "sdsc") -> Dict[str, Tuple[float, float]]:
        """No-prediction vs perfect-prediction endpoints at U = 0.9.

        The paper's abstract numbers: QoS and utilization improve by up to
        ~6%, lost work drops by ~89% (a factor of ~9).
        """
        return endpoint_comparison(self.context(workload), user_threshold=0.9)
