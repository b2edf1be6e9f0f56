"""Multi-seed replication: mean, spread and confidence for any sweep point.

The paper runs a single trace per point and explicitly blames the
"jaggedness of these curves" on failure burstiness plus having only one
real failure log.  With synthetic substitutes we are not bound by that
limitation: this module re-runs a simulation point across independent
seeds (fresh workload + failure trace + detectability assignment per seed)
and reports distributional summaries, so any trend assertion can be made
at a chosen confidence instead of on one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import SimulationMetrics
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from repro.experiments.sweeps import METRIC_EXTRACTORS
from repro.obs.audit import AuditConfig, AuditReport, GuaranteeAudit, merge_reports

#: Two-sided 95% t critical values, tabulated exactly for df = n - 1 <= 10
#: (where the t correction is large and replication counts actually live).
#: For df > 10 we use the asymptotic normal value 1.96.  That fallback
#: slightly *under-covers* for 10 < df < 30 — the true critical value
#: decays from 2.201 (df=11) to 2.045 (df=29), so a nominal 95% interval
#: built with 1.96 achieves roughly 93-95% coverage there — an acceptable
#: bias for shape assertions, and exact again as df grows beyond ~30.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}

#: Asymptotic two-sided 95% normal critical value (df > 10 fallback).
_Z_95 = 1.96


def _t_critical(df: int) -> float:
    """The 95% critical value: exact table for df <= 10, else 1.96."""
    if df <= 10:
        return _T_95[df]
    return _Z_95


@dataclass(frozen=True)
class ReplicatedMetric:
    """Summary of one metric across replications.

    Attributes:
        metric: Metric name (``qos``/``utilization``/``lost_work``).
        values: Per-seed observations, in seed order.
        mean: Sample mean.
        std: Sample standard deviation (ddof=1; 0.0 for n=1).
        ci95_halfwidth: Half-width of the two-sided 95% t confidence
            interval for the mean (0.0 for n=1).
    """

    metric: str
    values: Sequence[float]
    mean: float
    std: float
    ci95_halfwidth: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci95_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci95_halfwidth


def _summarise(metric: str, values: List[float]) -> ReplicatedMetric:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return ReplicatedMetric(metric, tuple(values), mean, 0.0, 0.0)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    t = _t_critical(n - 1)
    return ReplicatedMetric(
        metric, tuple(values), mean, std, t * std / math.sqrt(n)
    )


class ReplicatedExperiment:
    """Runs sweep points across several independent seeds.

    Per-seed contexts (workload synthesis plus a worst-case-horizon
    failure trace each) are built *lazily*, on first use: constructing a
    20-seed experiment is free, and when every requested point runs
    inside pool workers, which rebuild contexts hermetically from the
    setup, the parent process never prepares a context at all.

    Args:
        workload: ``"nasa"`` or ``"sdsc"``.
        job_count: Jobs per replication.
        seeds: The replication seeds; each gets its own workload, failure
            trace and detectability assignment (fully independent draws).
        jobs: Worker processes for fanning per-seed points out (1 =
            sequential, the pre-parallel behaviour).
    """

    def __init__(
        self,
        workload: str,
        job_count: int,
        seeds: Sequence[int],
        jobs: int = 1,
    ) -> None:
        if not seeds:
            raise ValueError("at least one seed is required")
        self.seeds = tuple(seeds)
        self.jobs = jobs
        self._setups: List[ExperimentSetup] = [
            ExperimentSetup(workload=workload, job_count=job_count, seed=seed)
            for seed in self.seeds
        ]
        # Lazily populated by _run_specs' local path (keyed by setup) —
        # exposed to tests as the "which seeds were actually prepared" map.
        self._contexts: Dict[ExperimentSetup, ExperimentContext] = {}
        # The pooled path bypasses the per-context memo, so keep a
        # replication-level one: {(a, U, overrides) -> per-seed metrics}.
        self._memo: Dict[Tuple, List[SimulationMetrics]] = {}

    @property
    def replications(self) -> int:
        return len(self._setups)

    @property
    def prepared_contexts(self) -> int:
        """How many per-seed contexts have actually been built locally."""
        return len(self._contexts)

    def _seed_metrics(
        self, accuracy: float, user_threshold: float, overrides: Dict
    ) -> List[SimulationMetrics]:
        """One point's metrics across all seeds, via memo, then simulation."""
        from repro.experiments.parallel import PointSpec, run_specs

        specs = [
            PointSpec.create(setup, accuracy, user_threshold, overrides)
            for setup in self._setups
        ]
        key = specs[0].memo_key()
        memoised = self._memo.get(key)
        if memoised is not None:
            return memoised
        metrics = run_specs(specs, jobs=self.jobs, contexts=self._contexts)
        self._memo[key] = metrics
        return metrics

    def run_point(
        self, accuracy: float, user_threshold: float, **overrides
    ) -> Dict[str, ReplicatedMetric]:
        """Replicate one ``(a, U)`` point; returns per-metric summaries."""
        observations: Dict[str, List[float]] = {m: [] for m in METRIC_EXTRACTORS}
        for metrics in self._seed_metrics(accuracy, user_threshold, overrides):
            for name, extract in METRIC_EXTRACTORS.items():
                observations[name].append(extract(metrics))
        return {
            name: _summarise(name, values) for name, values in observations.items()
        }

    def trend(
        self,
        metric: str,
        accuracies: Sequence[float],
        user_threshold: float,
        **overrides,
    ) -> List[ReplicatedMetric]:
        """A replicated accuracy sweep for one metric."""
        return [
            self.run_point(a, user_threshold, **overrides)[metric]
            for a in accuracies
        ]

    def _context(self, setup: ExperimentSetup) -> ExperimentContext:
        context = self._contexts.get(setup)
        if context is None:
            context = ExperimentContext.prepare(setup)
            self._contexts[setup] = context
        return context

    def audit_point(
        self,
        accuracy: float,
        user_threshold: float,
        audit_config: Optional[AuditConfig] = None,
        **overrides,
    ) -> AuditReport:
        """Merged promise audit of one ``(a, U)`` point across all seeds.

        Each seed runs instrumented (never memoised — a memoised metrics
        object carries no promises) with its own
        :class:`~repro.obs.audit.GuaranteeAudit` as the recorder; the
        per-seed :class:`~repro.obs.audit.AuditReport` shards are folded with
        :func:`~repro.obs.audit.merge_reports`, mirroring
        :func:`~repro.obs.export.merge_obs`.  Runs sequentially in-process: audits
        do not cross process boundaries.
        """
        reports: List[AuditReport] = []
        for setup in self._setups:
            context = self._context(setup)
            audit = GuaranteeAudit(audit_config)
            result, _ = context.run_instrumented(
                accuracy, user_threshold, recorder=audit, **overrides
            )
            reports.append(
                audit.report(
                    meta={
                        "source": "live",
                        "workload_jobs": len(context.log),
                        "events_processed": result.events_processed,
                    }
                )
            )
        return merge_reports(reports)


def significant_improvement(
    baseline: ReplicatedMetric, treatment: ReplicatedMetric, larger_is_better: bool = True
) -> bool:
    """Crude significance: do the 95% intervals fail to overlap in the
    beneficial direction?

    Conservative (interval overlap is stricter than a t-test), which is the
    right bias for shape assertions on small replication counts.
    """
    if larger_is_better:
        return treatment.ci_low > baseline.ci_high
    return treatment.ci_high < baseline.ci_low
