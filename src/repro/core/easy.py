"""EASY (aggressive) backfilling — the no-guarantees comparator.

The paper's scheduler must quote a deadline at submission, which forces
*conservative* backfilling (every job booked on arrival).  The classical
alternative, EASY backfilling, keeps only one reservation — for the queue
head — and starts any other job that fits in the meantime without delaying
that head.  EASY typically achieves lower waits and equal-or-better
utilization, but it cannot promise anything: a job's start time depends on
future arrivals.

:class:`EasyBackfillSystem` is :class:`~repro.core.system.ProbabilisticQoSSystem`
with three hooks replaced: arrival enqueues instead of negotiating, a killed
job goes back to the FCFS queue instead of being rebooked, and every
capacity change runs the EASY pass.  Starts, checkpoints, finishes,
failures and recoveries run through the shared handlers, so the *price of
promises* — the utilization/wait gap between the two disciplines — is
measured on one simulator (see
``benchmarks/test_ablation_scheduler_discipline.py``).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.checkpointing.runtime import padded_remaining
from repro.cluster.nodeset import NodeSet
from repro.core.metrics import JobOutcome
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.failures.events import FailureTrace
from repro.sim.events import Event
from repro.workload.job import JobLog


class EasyBackfillSystem(ProbabilisticQoSSystem):
    """Replays a workload under EASY backfilling (no negotiation, no promises).

    Takes the arguments of :class:`ProbabilisticQoSSystem`.  The schedule
    depends only on the cluster and checkpoint fields of ``config``; EASY
    runs usually pick ``checkpoint_policy="periodic"`` or ``"never"``.  No
    ``negotiated`` record is ever emitted, so a live
    :class:`~repro.obs.audit.GuaranteeAudit` passed as ``recorder=``
    reports zero promises.
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: JobLog,
        failures: FailureTrace,
        **kwargs: Any,
    ) -> None:
        if config.proactive_evacuation:
            raise ValueError("EASY keeps no bookings to evacuate to")
        super().__init__(config, workload, failures, **kwargs)
        # The shadow time reads running jobs' progress between their own
        # events, which only per-request events keep current.
        self._plans_skips = False
        #: Waiting job ids in FCFS order of original arrival.
        self._queue: List[int] = []
        # Walltime estimates include checkpoint overhead unless none is written.
        self._pads = self.policy.name != "never"

    # ------------------------------------------------------------------
    # The three hooks
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        self._enqueue(event.payload["job_id"])
        self._easy_pass()

    def _requeue(self, job_id: int, state: JobOutcome, now: float) -> None:
        self._enqueue(job_id)
        if self.recorder is not None:
            self.recorder.record(now, "requeued", job_id=job_id)

    def _after_capacity_freed(self, now: float) -> None:
        self._easy_pass()

    # ------------------------------------------------------------------
    # The EASY pass
    # ------------------------------------------------------------------
    def _enqueue(self, job_id: int) -> None:
        self._queue.append(job_id)
        self._queue.sort(key=lambda jid: self._states[jid].job.arrival_time)

    def _easy_pass(self) -> None:
        """Start the head while it fits; otherwise backfill behind it."""
        queue = self._queue
        while queue and self._start_now(self._states[queue[0]]):
            queue.pop(0)
        if not queue:
            return
        now = self.loop.now
        shadow, spare = self._shadow_time(self._states[queue[0]].job.size)
        for job_id in queue[1:]:
            state = self._states[job_id]
            walltime = self._padded(state.job.runtime - state.saved_progress)
            fits_before_shadow = now + walltime <= shadow + 1e-9
            if not (fits_before_shadow or state.job.size <= spare):
                continue
            if self._start_now(state):
                queue.remove(job_id)
                if not fits_before_shadow:
                    spare -= state.job.size

    def _start_now(self, state: JobOutcome) -> bool:
        """Book the lowest-index idle nodes and start there, if enough exist."""
        idle = self.cluster.idle_nodes()
        if len(idle) < state.job.size:
            return False
        job_id = state.job.job_id
        now = self.loop.now
        nodes = NodeSet.from_sorted(idle[: state.job.size])
        end = now + padded_remaining(
            state.job.runtime - state.saved_progress,
            self.config.checkpoint_interval,
            self.config.checkpoint_overhead,
        )
        self.cluster.ledger.reserve(job_id, nodes, now, end)
        state.reserved_start, state.reserved_end, state.reserved_nodes = now, end, nodes
        self._try_start(job_id, state, now)
        return True

    def _padded(self, remaining: float) -> float:
        if not self._pads:
            return remaining
        return padded_remaining(
            remaining, self.config.checkpoint_interval, self.config.checkpoint_overhead
        )

    def _shadow_time(self, head_size: int) -> Tuple[float, int]:
        """When the queue head can start, and the spare nodes at that time.

        Walks the expected releases of running jobs, soonest first, until
        enough nodes accumulate for the head; the *extra* nodes beyond the
        head's need at that instant may be used by backfill jobs running
        past the shadow time.
        """
        now = self.loop.now
        available = len(self.cluster.idle_nodes())
        if available >= head_size:
            return now, available - head_size
        releases = []
        for job_id in self.cluster.running_jobs():
            state = self._states[job_id]
            walltime = self._padded(max(state.remaining_work, 1e-9))
            releases.append((now + walltime, state.job.size))
        for release_time, width in sorted(releases):
            available += width
            if available >= head_size:
                return release_time, available - head_size
        return float("inf"), 0
