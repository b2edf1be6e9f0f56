"""Metrics: QoS (Equation 2), capacity utilization, and lost work.

The paper's three headline metrics (Section 3.5), all in node-second units
of work, computed over the checkpoint-free runtimes ``e_j`` ("we treat
checkpointing overhead as being unnecessary work"):

* **utilization**  ``ω_util = Σ_j e_j n_j / (T · N)`` with
  ``T = max_j f_j − min_j v_j`` the simulation span and ``N`` cluster width;
* **lost work**    ``ω_lost = Σ_x (t_x − c_{j_x}) · n_{j_x}`` summed over
  failures ``x`` that kill a job, with ``c`` the start of the victim's last
  completed checkpoint (or its last start);
* **QoS**          ``Σ_j e_j n_j q_j p_j / Σ_j e_j n_j`` (Equation 2) — the
  work-weighted fraction of *kept* promises, each discounted by the
  promised probability ``p_j``; ``q_j`` is 1 iff the job met its deadline.

The collector also gathers conventional scheduling metrics (waits, bounded
slowdown, checkpoint counts) used by the extended analyses and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.guarantee import QoSGuarantee
from repro.workload.job import Job

#: Threshold below which runtimes are clamped in bounded slowdown.
BOUNDED_SLOWDOWN_FLOOR = 600.0


@dataclass
class JobOutcome:
    """Everything recorded about one job across its whole lifetime.

    Attributes:
        job: The static trace record.
        guarantee: The promise made at submission.
        first_start: First time the job began executing.
        last_start: Latest (re)start — the paper computes waits from it.
        finish: Completion time, or None if the simulation ended first.
        failures: Node failures that killed this job.
        lost_node_seconds: Work destroyed across those failures.
        checkpoints_performed: Performed checkpoint count over all runs.
        checkpoints_skipped: Skipped checkpoint requests over all runs.
        checkpoint_overhead: Wall seconds spent writing checkpoints.
        evacuations: Proactive evacuations of this job (extension).
    """

    job: Job
    guarantee: Optional[QoSGuarantee] = None
    first_start: Optional[float] = None
    last_start: Optional[float] = None
    finish: Optional[float] = None
    failures: int = 0
    lost_node_seconds: float = 0.0
    checkpoints_performed: int = 0
    checkpoints_skipped: int = 0
    checkpoint_overhead: float = 0.0
    evacuations: int = 0

    @property
    def met_deadline(self) -> bool:
        """``q_j``: finished at or before the promised deadline."""
        if self.guarantee is None or self.finish is None:
            return False
        return self.guarantee.kept(self.finish)

    @property
    def wait(self) -> Optional[float]:
        """Wait from arrival to *last* start (paper's convention)."""
        if self.last_start is None:
            return None
        return self.last_start - self.job.arrival_time

    @property
    def bounded_slowdown(self) -> Optional[float]:
        """Classical bounded slowdown with a 600 s runtime floor."""
        if self.finish is None:
            return None
        response = self.finish - self.job.arrival_time
        denom = max(self.job.runtime, BOUNDED_SLOWDOWN_FLOOR)
        return max(1.0, response / denom)


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregate results of one simulation run.

    Attributes mirror Section 3.5 plus operational extras; all "work" is
    node-seconds over checkpoint-free runtimes.
    """

    qos: float
    utilization: float
    lost_work: float
    span: float
    total_work: float
    job_count: int
    completed_jobs: int
    deadlines_met: int
    failures_hitting_jobs: int
    checkpoints_performed: int
    checkpoints_skipped: int
    checkpoint_overhead: float
    mean_wait: float
    mean_bounded_slowdown: float
    mean_promised_probability: float
    forced_negotiations: int
    evacuations: int

    @property
    def deadline_met_fraction(self) -> float:
        """Unweighted fraction of jobs finishing by their deadline."""
        if self.job_count == 0:
            return 1.0
        return self.deadlines_met / self.job_count


class MetricsCollector:
    """Accumulates per-job outcomes and failure losses during a run."""

    def __init__(self) -> None:
        self._outcomes: Dict[int, JobOutcome] = {}
        self._lost_work_total = 0.0
        self._failure_hits = 0
        self._forced_negotiations = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def register_job(self, job: Job) -> JobOutcome:
        """Create the outcome record at arrival time."""
        if job.job_id in self._outcomes:
            raise ValueError(f"job {job.job_id} already registered")
        outcome = JobOutcome(job=job)
        self._outcomes[job.job_id] = outcome
        return outcome

    def outcome(self, job_id: int) -> JobOutcome:
        return self._outcomes[job_id]

    @property
    def failure_hits(self) -> int:
        """Failures that killed a running job so far."""
        return self._failure_hits

    def record_guarantee(
        self, job_id: int, guarantee: QoSGuarantee, forced: bool = False
    ) -> None:
        self._outcomes[job_id].guarantee = guarantee
        if forced:
            self._forced_negotiations += 1

    def record_start(self, job_id: int, time: float) -> None:
        outcome = self._outcomes[job_id]
        if outcome.first_start is None:
            outcome.first_start = time
        outcome.last_start = time

    def record_finish(self, job_id: int, time: float) -> None:
        self._outcomes[job_id].finish = time

    def record_failure_hit(self, job_id: int, lost_node_seconds: float) -> None:
        outcome = self._outcomes[job_id]
        outcome.failures += 1
        outcome.lost_node_seconds += lost_node_seconds
        self._lost_work_total += lost_node_seconds
        self._failure_hits += 1

    def record_evacuation(self, job_id: int) -> None:
        """Count a proactive evacuation (no work is lost by definition)."""
        self._outcomes[job_id].evacuations += 1

    def record_checkpoint(
        self, job_id: int, performed: bool, overhead: float = 0.0
    ) -> None:
        outcome = self._outcomes[job_id]
        if performed:
            outcome.checkpoints_performed += 1
            outcome.checkpoint_overhead += overhead
        else:
            outcome.checkpoints_skipped += 1

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def outcomes(self) -> List[JobOutcome]:
        """All outcomes, by job id."""
        return [self._outcomes[k] for k in sorted(self._outcomes)]

    def finalize(self, node_count: int) -> SimulationMetrics:
        """Compute the aggregate metrics over everything recorded."""
        outcomes = self.outcomes()
        if not outcomes:
            return SimulationMetrics(
                qos=1.0,
                utilization=0.0,
                lost_work=0.0,
                span=0.0,
                total_work=0.0,
                job_count=0,
                completed_jobs=0,
                deadlines_met=0,
                failures_hitting_jobs=0,
                checkpoints_performed=0,
                checkpoints_skipped=0,
                checkpoint_overhead=0.0,
                mean_wait=0.0,
                mean_bounded_slowdown=0.0,
                mean_promised_probability=0.0,
                forced_negotiations=0,
                evacuations=0,
            )

        total_work = sum(o.job.work for o in outcomes)
        qos_numerator = sum(
            o.job.work * o.guarantee.probability
            for o in outcomes
            if o.guarantee is not None and o.met_deadline
        )
        qos = qos_numerator / total_work if total_work > 0 else 1.0

        finishes = [o.finish for o in outcomes if o.finish is not None]
        arrivals = [o.job.arrival_time for o in outcomes]
        span = (max(finishes) - min(arrivals)) if finishes else 0.0
        utilization = (
            total_work / (span * node_count) if span > 0 and node_count > 0 else 0.0
        )

        waits = [o.wait for o in outcomes if o.wait is not None]
        slowdowns = [
            o.bounded_slowdown for o in outcomes if o.bounded_slowdown is not None
        ]
        promised = [
            o.guarantee.probability for o in outcomes if o.guarantee is not None
        ]

        return SimulationMetrics(
            qos=qos,
            utilization=utilization,
            lost_work=self._lost_work_total,
            span=span,
            total_work=total_work,
            job_count=len(outcomes),
            completed_jobs=len(finishes),
            deadlines_met=sum(1 for o in outcomes if o.met_deadline),
            failures_hitting_jobs=self._failure_hits,
            checkpoints_performed=sum(o.checkpoints_performed for o in outcomes),
            checkpoints_skipped=sum(o.checkpoints_skipped for o in outcomes),
            checkpoint_overhead=sum(o.checkpoint_overhead for o in outcomes),
            mean_wait=sum(waits) / len(waits) if waits else 0.0,
            mean_bounded_slowdown=(
                sum(slowdowns) / len(slowdowns) if slowdowns else 0.0
            ),
            mean_promised_probability=(
                sum(promised) / len(promised) if promised else 0.0
            ),
            forced_negotiations=self._forced_negotiations,
            evacuations=sum(o.evacuations for o in outcomes),
        )
