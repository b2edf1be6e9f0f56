"""Per-run execution state for a checkpointing job.

A running job alternates *compute segments* with (possibly skipped)
checkpoint requests; a performed checkpoint pauses progress for the
overhead ``C`` and makes all prior progress durable.  :class:`JobRun`
tracks one run — from a (re)start until a finish or a kill — and answers
the questions the simulator asks:

* when is the next event (checkpoint request or finish) and what progress
  will the job have reached by then;
* which of the coming requests see a clear decision window, so the
  simulator can skip them without an event each (:meth:`JobRun.plan_skips`);
* how much *unsaved* wall-clock time is destroyed if the partition fails
  now (the lost-work integrand ``t_x - c_{j_x}``);
* what execution remains after a kill (restart from last completed
  checkpoint).

All progress is measured in *execution seconds of the checkpoint-free
runtime* ``e_j``; overheads never count as progress, matching the paper's
"checkpointing overhead [is] unnecessary work" accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class JobRun:
    """State machine for one run of one job.

    Attributes:
        job_id: The job being run.
        total_work: Full checkpoint-free runtime ``e_j``.
        interval: Checkpoint interval ``I``.
        overhead: Checkpoint overhead ``C``.
        saved_progress: Durable progress at run start (from earlier runs).
        start_time: Wall-clock time this run started.
        recovery_overhead: Restore time ``R`` consumed before computation
            resumes when the run starts from a checkpoint (the paper argues
            ``R = 0`` is acceptable because downtime is aggressively
            minimised; the parameter lets that claim be tested).  Charged
            only when ``saved_progress > 0`` — a fresh start reads no
            checkpoint.
    """

    job_id: int
    total_work: float
    interval: float
    overhead: float
    saved_progress: float
    start_time: float
    recovery_overhead: float = 0.0

    #: Progress (execution seconds) reached; includes unsaved work.
    progress: float = field(init=False)
    #: Wall time the current compute segment began (or checkpoint ended).
    segment_start: float = field(init=False)
    #: Consecutive skipped requests since the last completed checkpoint.
    skipped_since_checkpoint: int = field(init=False, default=0)
    #: Wall time the last *completed* checkpoint of this run started.
    last_checkpoint_start: Optional[float] = field(init=False, default=None)
    #: Wall time the in-flight checkpoint started, if any.
    checkpoint_begun_at: Optional[float] = field(init=False, default=None)
    #: Checkpoints performed / skipped in this run (statistics).
    checkpoints_performed: int = field(init=False, default=0)
    checkpoints_skipped: int = field(init=False, default=0)
    #: Coming requests already known to be skipped, not yet accounted: the
    #: first ``planned_skips`` requests from the current segment on (see
    #: :meth:`plan_skips`).  Each one's time is ``segment_start`` plus
    #: :meth:`next_event_delay` once the ones before it are accounted.
    planned_skips: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.saved_progress < self.total_work:
            raise ValueError(
                f"job {self.job_id}: saved progress {self.saved_progress} out of "
                f"[0, {self.total_work})"
            )
        if self.interval <= 0 or self.overhead < 0:
            raise ValueError(
                f"job {self.job_id}: bad interval/overhead "
                f"{self.interval}/{self.overhead}"
            )
        if self.recovery_overhead < 0:
            raise ValueError(
                f"job {self.job_id}: recovery overhead must be >= 0, got "
                f"{self.recovery_overhead}"
            )
        self.progress = self.saved_progress
        # Restoring from a checkpoint costs R before compute resumes.
        restore = self.recovery_overhead if self.saved_progress > 0 else 0.0
        self.segment_start = self.start_time + restore

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def in_checkpoint(self) -> bool:
        return self.checkpoint_begun_at is not None

    @property
    def remaining_work(self) -> float:
        """Execution seconds left from current progress to completion."""
        return self.total_work - self.progress

    def next_event_delay(self) -> tuple:
        """``(kind, delay)`` of the next run event from ``segment_start``.

        ``kind`` is ``"request"`` or ``"finish"``; ``delay`` is seconds of
        execution from the current progress point.
        """
        if self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: next event during checkpoint")
        return self._delay_from(self.progress)

    def _delay_from(self, progress: float) -> tuple:
        """:meth:`next_event_delay` for a segment starting at ``progress``.

        Requests fire at multiples of ``I`` execution seconds; a request at
        or beyond completion is never issued.
        """
        k = math.floor(progress / self.interval + 1e-9) + 1
        to_request = k * self.interval - progress
        to_finish = self.total_work - progress
        if to_finish <= to_request + 1e-9:
            return "finish", to_finish
        return "request", to_request

    def plan_skips(self, at: float, clear_until: float) -> tuple:
        """Count the coming requests whose decision window
        (:func:`decision_window`) ends by ``clear_until``, the first time a
        failure could be predicted on the partition: they see ``p_f = 0``.

        Walks from the request at ``at`` with the float steps of
        :meth:`reach_request` and :meth:`next_event_delay`, without
        advancing the run, and stores the count in :attr:`planned_skips`.
        Returns ``(kind, time)`` of the run event still to schedule: the
        first request whose window reaches ``clear_until``, or the finish.
        """
        progress, segment_start = self.progress, self.segment_start
        planned = 0
        kind = "request"
        while kind == "request":
            progress = min(self.total_work, progress + max(0.0, at - segment_start))
            window = decision_window(
                self.interval, self.overhead, self.total_work - progress
            )
            if clear_until < at + window:
                break
            planned += 1
            segment_start = at
            kind, delay = self._delay_from(progress)
            at = segment_start + delay
        self.planned_skips = planned
        return kind, at

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def reach_request(self, now: float) -> None:
        """Advance progress to the request point firing at ``now``."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.total_work, self.progress + executed)
        self.segment_start = now

    def skip_checkpoint(self, now: float) -> None:
        """Record a skipped request; computation continues immediately."""
        self.skipped_since_checkpoint += 1
        self.checkpoints_skipped += 1
        self.segment_start = now

    def begin_checkpoint(self, now: float) -> None:
        """Pause computation for the overhead starting at ``now``."""
        if self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: checkpoint already in flight")
        self.checkpoint_begun_at = now

    def complete_checkpoint(self, now: float) -> float:
        """Make progress durable; the checkpoint that began earlier ends.

        Returns:
            The wall seconds the checkpoint took.
        """
        if not self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: no checkpoint in flight")
        took = max(0.0, now - self.checkpoint_begun_at)
        self.saved_progress = self.progress
        self.last_checkpoint_start = self.checkpoint_begun_at
        self.checkpoint_begun_at = None
        self.skipped_since_checkpoint = 0
        self.checkpoints_performed += 1
        self.segment_start = now
        return took

    def finish(self, now: float) -> None:
        """Advance to completion (the finish event fired at ``now``)."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.total_work, self.progress + executed)
        if self.remaining_work > 1e-6:
            raise RuntimeError(
                f"job {self.job_id}: finish with {self.remaining_work}s remaining"
            )
        self.progress = self.total_work

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def rollback_point(self) -> float:
        """Wall time work would roll back to if the partition failed now.

        The start of the last completed checkpoint of this run, or the run's
        start time — the ``c_{j_x}`` of the lost-work metric.
        """
        if self.last_checkpoint_start is not None:
            return self.last_checkpoint_start
        return self.start_time

    def kill(self, now: float) -> tuple:
        """Abort the run at ``now`` (node failure).

        In-flight checkpoints are lost.  Progress not covered by a completed
        checkpoint is discarded.

        Returns:
            ``(lost_wall_seconds, durable_progress)`` where the lost wall
            seconds are ``now - rollback_point()`` (multiply by the job size
            for node-seconds) and ``durable_progress`` seeds the next run.
        """
        # Progress accounting up to the failure instant (compute segments
        # only; checkpoint pauses contribute no progress).
        if not self.in_checkpoint:
            executed = max(0.0, now - self.segment_start)
            self.progress = min(self.total_work, self.progress + executed)
        lost_wall = max(0.0, now - self.rollback_point())
        return lost_wall, self.saved_progress


def decision_window(interval: float, overhead: float, remaining_work: float) -> float:
    """Length of the window a checkpoint request's ``p_f`` covers: perform
    now (C) + run one interval, or what remains (I) + perform (C)."""
    return overhead + min(interval, remaining_work) + overhead


def padded_remaining(
    remaining_work: float, interval: float, overhead: float
) -> float:
    """Reservation length for ``remaining_work`` assuming every future
    checkpoint is performed (the scheduler's conservative estimate E_j).

    Mirrors :meth:`repro.workload.job.Job.padded_runtime` but for restarts
    from a checkpoint.
    """
    if remaining_work <= 0:
        raise ValueError(f"remaining_work must be > 0, got {remaining_work}")
    requests = max(0, int(math.ceil(remaining_work / interval)) - 1)
    return remaining_work + overhead * requests
