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

Each job has one :class:`JobOutcome` from arrival on: the simulator
updates it in place through negotiation, every run, checkpoint, kill and
the finish, and returns the same records as the run's outcomes.  It also
gathers conventional scheduling metrics (waits, bounded slowdown,
checkpoint counts) used by the extended analyses and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter, is_not
from typing import Iterator, Optional, Sequence, Tuple

from repro.checkpointing.policies import CheckpointDecision
from repro.checkpointing.runtime import decision_window, delay_from
from repro.core.guarantee import QoSGuarantee
from repro.obs.audit import margin_honours, promise_margin
from repro.sim.events import Event
from repro.workload.job import Job

#: Threshold below which runtimes are clamped in bounded slowdown.
BOUNDED_SLOWDOWN_FLOOR = 600.0


class JobOutcome:
    """One job's record across its whole lifetime, updated in place.

    Outcome (what :func:`finalize` and the analyses read):
        job: The static trace record.
        guarantee: The promise made at submission.
        first_start: First time the job began executing.
        last_start: Latest (re)start — the paper computes waits from it;
            also where the current run rolls back to before its first
            checkpoint.
        finish: Completion time, or None if the simulation ended first.
        failures: Node failures that killed this job.
        lost_node_seconds: Work destroyed across those failures.
        checkpoints_performed: Performed checkpoint count over all runs.
        checkpoints_skipped: Skipped checkpoint requests over all runs.
        checkpoint_overhead: Wall seconds spent writing checkpoints.
        evacuations: Proactive evacuations of this job (extension).

    Booking: ``reserved_start``/``reserved_end``/``reserved_nodes`` of the
    current reservation, the cancellable ``start_event`` and ``run_event``
    handles, and ``pending_decision``, the policy decision behind an
    in-flight checkpoint.

    Run state, which :meth:`start` resets for each run from
    ``saved_progress``; progress is in execution seconds of the
    checkpoint-free runtime ``e_j``:
        running: Whether a run is in progress.
        saved_progress: Durable progress (the last completed checkpoint).
        progress: Progress reached, including unsaved work.
        segment_start: Wall time the current compute segment began.
        skipped_since_checkpoint: Consecutive skipped requests since the
            last completed checkpoint.
        last_checkpoint_start: Wall time the last completed checkpoint of
            this run started.
        checkpoint_begun_at: Wall time the in-flight checkpoint started.
        planned_skips: Coming requests already known to be skipped, not yet
            accounted: the first ``planned_skips`` requests from the current
            segment on (see :meth:`plan_skips`).  Each one's time is
            ``segment_start`` plus :meth:`next_event_delay` once the ones
            before it are accounted.
    """

    __slots__ = (
        # Outcome.
        "job", "guarantee", "first_start", "last_start", "finish", "failures",
        "lost_node_seconds", "checkpoints_performed", "checkpoints_skipped",
        "checkpoint_overhead", "evacuations",
        # Booking.
        "reserved_start", "reserved_end", "reserved_nodes", "start_event",
        "run_event", "pending_decision",
        # Run state.
        "running", "saved_progress", "progress", "segment_start",
        "skipped_since_checkpoint", "last_checkpoint_start",
        "checkpoint_begun_at", "planned_skips",
    )

    def __init__(self, job: Job, guarantee: Optional[QoSGuarantee] = None) -> None:
        self.job = job
        self.guarantee = guarantee
        self.first_start: Optional[float] = None
        self.last_start: Optional[float] = None
        self.finish: Optional[float] = None
        self.failures = 0
        self.lost_node_seconds = 0.0
        self.checkpoints_performed = 0
        self.checkpoints_skipped = 0
        self.checkpoint_overhead = 0.0
        self.evacuations = 0
        self.reserved_start = 0.0
        self.reserved_end = 0.0
        self.reserved_nodes: Sequence[int] = ()
        self.start_event: Optional[Event] = None
        self.run_event: Optional[Event] = None
        self.pending_decision: Optional[CheckpointDecision] = None
        self.running = False
        self.saved_progress = 0.0
        self.progress = 0.0
        self.segment_start = 0.0
        self.skipped_since_checkpoint = 0
        self.last_checkpoint_start: Optional[float] = None
        self.checkpoint_begun_at: Optional[float] = None
        self.planned_skips = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobOutcome):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"JobOutcome({fields})"

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    @property
    def remaining_work(self) -> float:
        """Execution seconds left from current progress to completion."""
        return self.job.runtime - self.progress

    def start(self, now: float, recovery_time: float) -> None:
        """Begin a run at ``now`` from the durable progress.

        A restart from a checkpoint spends ``recovery_time`` (``R``)
        restoring before compute resumes; a fresh start reads no
        checkpoint.  Everything else the previous run left is reset.
        """
        if not 0.0 <= self.saved_progress < self.job.runtime:
            raise ValueError(
                f"job {self.job.job_id}: saved progress {self.saved_progress} "
                f"out of [0, {self.job.runtime})"
            )
        if self.first_start is None:
            self.first_start = now
        self.last_start = now
        self.running = True
        self.progress = self.saved_progress
        restore = recovery_time if self.saved_progress > 0 else 0.0
        self.segment_start = now + restore
        self.skipped_since_checkpoint = 0
        self.last_checkpoint_start = None
        self.checkpoint_begun_at = None
        self.planned_skips = 0

    def next_event_delay(self, interval: float) -> Tuple[str, float]:
        """``(kind, delay)`` of the next run event from ``segment_start``
        (:func:`~repro.checkpointing.runtime.delay_from`)."""
        if self.checkpoint_begun_at is not None:
            raise RuntimeError(f"job {self.job.job_id}: next event during checkpoint")
        return delay_from(self.progress, self.job.runtime, interval)

    def plan_skips(
        self, at: float, clear_until: float, interval: float, overhead: float
    ) -> Tuple[str, float]:
        """Count the coming requests whose decision window
        (:func:`~repro.checkpointing.runtime.decision_window`) ends by
        ``clear_until``, the first time a failure could be predicted on the
        partition: they see ``p_f = 0``.

        Walks from the request at ``at`` with the float steps of
        :meth:`reach_request` and :meth:`next_event_delay`, without
        advancing the run, and stores the count in ``planned_skips``.
        Returns ``(kind, time)`` of the run event still to schedule: the
        first request whose window reaches ``clear_until``, or the finish.
        """
        total = self.job.runtime
        progress, segment_start = self.progress, self.segment_start
        planned = 0
        kind = "request"
        while kind == "request":
            progress = min(total, progress + max(0.0, at - segment_start))
            if clear_until < at + decision_window(interval, overhead, total - progress):
                break
            planned += 1
            segment_start = at
            kind, delay = delay_from(progress, total, interval)
            at = segment_start + delay
        self.planned_skips = planned
        return kind, at

    def reach_request(self, now: float) -> None:
        """Advance progress to the request point firing at ``now``."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.job.runtime, self.progress + executed)
        self.segment_start = now

    def skip_checkpoint(self, now: float) -> None:
        """Count a skipped request; computation continues immediately."""
        self.skipped_since_checkpoint += 1
        self.checkpoints_skipped += 1
        self.segment_start = now

    def begin_checkpoint(self, now: float) -> None:
        """Pause computation for the overhead starting at ``now``."""
        if self.checkpoint_begun_at is not None:
            raise RuntimeError(f"job {self.job.job_id}: checkpoint already in flight")
        self.checkpoint_begun_at = now

    def complete_checkpoint(self, now: float, overhead: float) -> float:
        """Make progress durable; the checkpoint that began earlier ends and
        is charged ``overhead`` seconds.  Returns the wall seconds it took."""
        begun = self.checkpoint_begun_at
        if begun is None:
            raise RuntimeError(f"job {self.job.job_id}: no checkpoint in flight")
        took = max(0.0, now - begun)
        self.saved_progress = self.progress
        self.last_checkpoint_start = begun
        self.checkpoint_begun_at = None
        self.skipped_since_checkpoint = 0
        self.checkpoints_performed += 1
        self.checkpoint_overhead += overhead
        self.segment_start = now
        return took

    def complete(self, now: float) -> None:
        """Advance to completion: the finish event fired at ``now``."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.job.runtime, self.progress + executed)
        if self.remaining_work > 1e-6:
            raise RuntimeError(
                f"job {self.job.job_id}: finish with {self.remaining_work}s remaining"
            )
        self.progress = self.job.runtime
        self.finish = now
        self.running = False
        self.run_event = None

    def kill(self, now: float) -> float:
        """Abort the run at ``now`` (node failure) and charge the loss.

        In-flight checkpoints are lost; progress not covered by a completed
        checkpoint is discarded, and ``saved_progress`` seeds the next run.

        Returns:
            The lost wall seconds since the rollback point ``c_{j_x}`` of
            the lost-work metric: the start of this run's last completed
            checkpoint, or the run's start.  The job size times that is
            added to ``lost_node_seconds``.
        """
        # Progress accounting up to the failure instant (compute segments
        # only; checkpoint pauses contribute no progress).
        if self.checkpoint_begun_at is None:
            executed = max(0.0, now - self.segment_start)
            self.progress = min(self.job.runtime, self.progress + executed)
        rollback = self.last_checkpoint_start
        if rollback is None:
            rollback = self.last_start
        assert rollback is not None
        lost_wall = max(0.0, now - rollback)
        self.failures += 1
        self.lost_node_seconds += lost_wall * self.job.size
        self.running = False
        self.pending_decision = None
        return lost_wall


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


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


# The per-record reads of finalize's C-level sums.
_WORK = attrgetter("job.work")
_CHECKPOINT_OVERHEAD = attrgetter("checkpoint_overhead")
_WAIT = attrgetter("wait")
_BOUNDED_SLOWDOWN = attrgetter("bounded_slowdown")
_GUARANTEE = attrgetter("guarantee")
_PROBABILITY = attrgetter("probability")
_not_none = partial(is_not, None)


def finalize(
    outcomes: Sequence[JobOutcome],
    node_count: int,
    lost_work: float,
    forced_negotiations: int,
) -> SimulationMetrics:
    """The aggregate metrics over the job records.

    Args:
        outcomes: One record per job.
        node_count: Cluster width ``N``.
        lost_work: Node-seconds lost to failures, summed in event order
            (the records' ``lost_node_seconds`` summed per job would round
            differently).
        forced_negotiations: Dialogues the safety cap ended.
    """
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

    # Every record is alive here, at the run's memory peak, so nothing
    # builds a per-record list.  The float totals stay with ``sum``, whose
    # rounding is the interpreter's (compensated summation from Python
    # 3.12 on), over the same values in record order; all but the QoS
    # numerator iterate in C (map, filter, attrgetter), with no Python
    # frame per record.  One pass asks each record once: it tallies the
    # counts and extremes, judges each promise, and yields the QoS terms
    # of the kept ones.
    completed = started = promised = deadlines_met = 0
    failures = performed = skipped = evacuations = 0
    last_finish = 0.0
    first_arrival = outcomes[0].job.arrival_time

    def kept_terms() -> Iterator[float]:
        nonlocal completed, started, promised, deadlines_met
        nonlocal failures, performed, skipped, evacuations
        nonlocal last_finish, first_arrival
        for o in outcomes:
            job = o.job
            finish = o.finish
            if finish is not None:
                if not completed or finish > last_finish:
                    last_finish = finish
                completed += 1
            arrival = job.arrival_time
            if arrival < first_arrival:
                first_arrival = arrival
            if o.last_start is not None:
                started += 1
            failures += o.failures
            performed += o.checkpoints_performed
            skipped += o.checkpoints_skipped
            evacuations += o.evacuations
            guarantee = o.guarantee
            if guarantee is not None:
                promised += 1
                if finish is not None and margin_honours(
                    promise_margin(guarantee.deadline, finish)
                ):
                    deadlines_met += 1
                    yield job.work * guarantee.probability

    qos_numerator = sum(kept_terms())
    total_work = sum(map(_WORK, outcomes))
    qos = qos_numerator / total_work if total_work > 0 else 1.0
    span = last_finish - first_arrival if completed else 0.0
    utilization = (
        total_work / (span * node_count) if span > 0 and node_count > 0 else 0.0
    )

    return SimulationMetrics(
        qos=qos,
        utilization=utilization,
        lost_work=lost_work,
        span=span,
        total_work=total_work,
        job_count=len(outcomes),
        completed_jobs=completed,
        deadlines_met=deadlines_met,
        failures_hitting_jobs=failures,
        checkpoints_performed=performed,
        checkpoints_skipped=skipped,
        checkpoint_overhead=sum(map(_CHECKPOINT_OVERHEAD, outcomes)),
        mean_wait=_mean(sum(filter(_not_none, map(_WAIT, outcomes))), started),
        mean_bounded_slowdown=_mean(
            sum(filter(_not_none, map(_BOUNDED_SLOWDOWN, outcomes))), completed
        ),
        mean_promised_probability=_mean(
            sum(map(_PROBABILITY, filter(_not_none, map(_GUARANTEE, outcomes)))),
            promised,
        ),
        forced_negotiations=forced_negotiations,
        evacuations=evacuations,
    )
