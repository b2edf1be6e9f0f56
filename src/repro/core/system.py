"""The end-to-end simulated supercomputing system.

:class:`ProbabilisticQoSSystem` wires every component of the paper's design
into the event loop and replays a job log against a failure trace:

* arrivals trigger the **negotiation** dialogue (Section 3.5) and book a
  conservative-backfill reservation (Section 3.3);
* starts occupy real nodes, tolerating 120 s repair delays;
* running jobs reach **cooperative checkpointing** requests every ``I``
  seconds of execution, decided by the configured policy (Section 3.4);
  requests whose window sees no predicted failure are skipped by
  Equation 1, so with an exact predictor they are accounted without an
  event each, and only a request whose window reaches the partition's
  next predicted failure (or the finish) is scheduled;
* node **failures** kill the occupying job, charge the lost-work metric,
  and requeue the victim from its last completed checkpoint; **recoveries**
  bring nodes back after the fixed downtime;
* every promise is scored by the **QoS metric** at the end (Section 3.5).

Both traces are replayed lazily, one event ahead: the queue holds at most
one pending arrival and one pending failure, plus the live jobs' events.

The simulation is fully deterministic given (workload, failure trace,
seed, configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional

from repro.checkpointing.policies import (
    CheckpointDecision,
    CheckpointDecisionContext,
    CheckpointPolicy,
    policy_by_name,
)
from repro.checkpointing.runtime import padded_remaining
from repro.cluster.machine import Cluster
from repro.cluster.topology import Topology, topology_by_name
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.metrics import JobOutcome, SimulationMetrics, finalize
from repro.core.users import RiskThresholdUser, UserModel
from repro.failures.events import FailureTrace
from repro.obs.sampler import Sampler
from repro.obs.tracelog import TraceRecorder
from repro.prediction.base import Predictor
from repro.prediction.trace import TracePredictor
from repro.scheduling.fcfs import ConservativeBackfillScheduler
from repro.scheduling.placement import scorer_by_name
from repro.scheduling.queue import PendingStarts
from repro.sim.engine import EventLoop
from repro.sim.events import Event, EventKind
from repro.workload.job import JobLog


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of the simulated system (paper Table 2 defaults).

    Attributes:
        node_count: Cluster width ``N`` (paper: 128).
        downtime: Node repair time, seconds (paper: 120).
        checkpoint_overhead: ``C`` in seconds (paper: 720).
        checkpoint_interval: ``I`` in seconds (paper: 3600).
        recovery_time: ``R`` in seconds, charged when a restart restores
            from a checkpoint (paper: 0, arguing supercomputer downtime is
            aggressively minimised).
        accuracy: Predictor accuracy ``a`` in [0, 1].
        user_threshold: Risk threshold ``U`` in [0, 1] (Equation 3).
        seed: Seed for detectability assignment and any randomised policy.
        checkpoint_policy: ``"cooperative"`` (paper), ``"periodic"``,
            ``"never"`` or ``"risk-free"``.
        placement: ``"fault-aware"`` (paper), ``"first-fit"`` or
            ``"random"``.
        topology: ``"flat"`` (paper) or ``"ring"``.
        opportunistic_start: Enable the pull-forward extension (off matches
            the paper's frozen schedule).
        proactive_evacuation: Extension beyond the paper: immediately after
            a checkpoint completes, if a failure is predicted on the job's
            partition before the *next* checkpoint could complete, stop the
            job voluntarily (zero work is at risk at that instant) and
            requeue it on a safer slot instead of riding out the failure.
        evacuation_threshold: Minimum predicted failure probability that
            triggers an evacuation.
        max_offers: Negotiation dialogue cap.
        failure_jump_epsilon: Seconds the negotiation dialogue advances a
            candidate start past a predicted failure.
    """

    node_count: int = 128
    downtime: float = 120.0
    checkpoint_overhead: float = 720.0
    checkpoint_interval: float = 3600.0
    recovery_time: float = 0.0
    accuracy: float = 0.5
    user_threshold: float = 0.5
    seed: Optional[int] = None
    checkpoint_policy: str = "cooperative"
    placement: str = "fault-aware"
    topology: str = "flat"
    opportunistic_start: bool = False
    proactive_evacuation: bool = False
    evacuation_threshold: float = 0.0
    max_offers: int = 400
    failure_jump_epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_jump_epsilon <= 0:
            raise ValueError(
                "failure_jump_epsilon must be > 0, got "
                f"{self.failure_jump_epsilon}"
            )
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0,1], got {self.accuracy}")
        if not 0.0 <= self.user_threshold <= 1.0:
            raise ValueError(
                f"user_threshold must be in [0,1], got {self.user_threshold}"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be > 0")
        if self.checkpoint_overhead < 0:
            raise ValueError("checkpoint_overhead must be >= 0")
        if self.recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")


@dataclass(frozen=True)
class SimulationResult:
    """Output of one run: aggregates plus per-job detail.

    Attributes:
        outcomes: Each job's record (:class:`~repro.core.metrics.JobOutcome`),
            by job id: the objects the simulation updated in place.
        obs: Final observability snapshot: every component's counters and
            gauges by metric name (``{"counters": ..., "gauges": ...}``).
    """

    metrics: SimulationMetrics
    config: SystemConfig
    outcomes: list
    events_processed: int
    obs: Optional[dict] = None


class ProbabilisticQoSSystem:
    """Simulates the paper's system on a workload + failure trace.

    Args:
        config: System parameters.
        workload: The job log to replay.
        failures: The failure trace to replay (must extend past the
            expected makespan; late-truncated traces simply mean a
            failure-free tail).
        predictor: Optional override; defaults to the paper's
            :class:`TracePredictor` at ``config.accuracy`` over
            ``failures``.
        user: Optional override of the user model; defaults to
            :class:`RiskThresholdUser` at ``config.user_threshold``.
        recorder: Optional trace recorder capturing every semantic
            transition (see :mod:`repro.obs.tracelog`).  None (the
            default) records nothing and builds no record.  The folds over
            the records are recorders too: pass a
            :class:`~repro.obs.trace.SpanBuilder` and call its ``build()``
            after the run for the span timeline, or a
            :class:`~repro.obs.audit.GuaranteeAudit` and take
            ``audit.report(meta=...)`` for the calibration audit.
        sample_interval: Sim-seconds between samples of every counter and
            gauge; when set a :class:`~repro.obs.sampler.Sampler` records
            a time-series via recurring ``OBS_SAMPLE`` events, reachable
            afterwards as ``system.sampler``.

    Every component counts its own work as plain state; :meth:`counters`
    and :meth:`gauges` collect them by metric name, and the final values
    ride on :attr:`SimulationResult.obs`.
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: JobLog,
        failures: FailureTrace,
        predictor: Optional[Predictor] = None,
        user: Optional[UserModel] = None,
        recorder: Optional[TraceRecorder] = None,
        sample_interval: Optional[float] = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.failures = failures
        self.predictor: Predictor = (
            predictor
            if predictor is not None
            else TracePredictor(failures, config.accuracy, seed=config.seed)
        )
        self.user: UserModel = (
            user if user is not None else RiskThresholdUser(config.user_threshold)
        )

        self.cluster = Cluster(config.node_count, downtime=config.downtime)
        self.topology: Topology = topology_by_name(config.topology, config.node_count)
        # One shared evaluator answers every prediction-shaped query the
        # simulation makes — offer pricing, placement scoring, checkpoint
        # decisions, evacuation checks — so the live predictor is only
        # consulted where the evaluator cannot stand in (its values are
        # identical; see repro.core.fastpath).
        self.evaluator = AnalyticalEvaluator(self.predictor, config.node_count)
        scorer = scorer_by_name(config.placement, self.evaluator, config.seed)
        self.scheduler = ConservativeBackfillScheduler(
            self.cluster.ledger,
            self.topology,
            self.predictor,
            scorer,
            max_offers=config.max_offers,
            failure_jump_epsilon=config.failure_jump_epsilon,
            evaluator=self.evaluator,
        )
        self.policy: CheckpointPolicy = policy_by_name(config.checkpoint_policy)
        # Whether requests with a clear window may skip without an event
        # (see _schedule_run_event); the policy must commit to skipping them.
        self._plans_skips = (
            self.policy.clear_window_decision(
                1, config.checkpoint_interval, config.checkpoint_overhead
            )
            is not None
        )
        self.recorder: Optional[TraceRecorder] = recorder

        self.loop = EventLoop()
        self.sampler: Optional[Sampler] = None
        if sample_interval is not None:
            self.sampler = Sampler(self._sample_row, sample_interval)
        #: Each job's record, created at priming and updated in place.
        self._states: Dict[int, JobOutcome] = {}
        self._pending = PendingStarts()
        self._unfinished = len(workload)
        self._forced_negotiations = 0
        # Checkpoint-runtime totals across every run, in event order.
        self._checkpoint_overhead_s = 0.0
        self._lost_wall_s = 0.0
        self._lost_work = 0.0
        # The workload in arrival order (stable, so simultaneous arrivals
        # keep workload order), replayed one arrival at a time.
        self._arrivals = sorted(workload, key=attrgetter("arrival_time"))
        self._arrival_cursor = 0
        self._failure_cursor = 0
        self._register_handlers()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        register = self.loop.register
        register(EventKind.ARRIVAL, self._dispatch_arrival)
        register(EventKind.START, self._on_start)
        register(EventKind.FINISH, self._on_finish)
        register(EventKind.FAILURE, self._on_failure)
        register(EventKind.RECOVERY, self._on_recovery)
        register(EventKind.CHECKPOINT_REQUEST, self._on_checkpoint_request)
        register(EventKind.CHECKPOINT_START, self._on_checkpoint_start)
        register(EventKind.CHECKPOINT_FINISH, self._on_checkpoint_finish)
        register(EventKind.OBS_SAMPLE, self._on_obs_sample)

    def _prime(self) -> None:
        for job in self.workload:
            if job.size > self.config.node_count:
                raise ValueError(
                    f"job {job.job_id} needs {job.size} nodes on a "
                    f"{self.config.node_count}-node cluster; clip the log first"
                )
            self._states[job.job_id] = JobOutcome(job)
        self._schedule_next_arrival()
        self._schedule_next_failure(self.loop.now)

    def _schedule_next_arrival(self) -> None:
        """Lazily replay the workload: one arrival is queued at a time.

        Only arrivals share the ARRIVAL tie-break rank, so simultaneous
        arrivals still dispatch in workload order.
        """
        if self._arrival_cursor < len(self._arrivals):
            job = self._arrivals[self._arrival_cursor]
            self._arrival_cursor += 1
            self.loop.schedule(job.arrival_time, EventKind.ARRIVAL, job_id=job.job_id)

    def _schedule_next_failure(self, now: float) -> None:
        """Lazily replay the failure trace while work remains (``now`` is
        the current time)."""
        while self._failure_cursor < len(self.failures):
            event = self.failures[self._failure_cursor]
            self._failure_cursor += 1
            if event.node >= self.config.node_count:
                continue
            if event.time < now:
                continue  # trace began before the simulation origin
            self.loop.schedule(
                event.time, EventKind.FAILURE, node=event.node, event_id=event.event_id
            )
            return

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Replay the workload to completion and return the metrics."""
        self._prime()
        if self.sampler is not None:
            # First row at the origin, then one per interval; the chain
            # stops rescheduling itself once all jobs finished or nothing
            # else is queued, so the loop still drains.
            self.sampler.sample(self.loop.now)
            self.loop.schedule_in(self.sampler.interval, EventKind.OBS_SAMPLE)
        self.loop.run(max_events=max_events)
        if self.sampler is not None:
            self.sampler.sample(self.loop.now)
        outcomes = [self._states[k] for k in sorted(self._states)]
        return SimulationResult(
            metrics=finalize(
                outcomes,
                self.config.node_count,
                lost_work=self._lost_work,
                forced_negotiations=self._forced_negotiations,
            ),
            config=self.config,
            outcomes=outcomes,
            events_processed=self.loop.processed_events,
            obs={
                "counters": dict(sorted(self.counters().items())),
                "gauges": dict(sorted(self.gauges().items())),
            },
        )

    # ------------------------------------------------------------------
    # Arrival and negotiation
    # ------------------------------------------------------------------
    def _dispatch_arrival(self, event: Event) -> None:
        """Queue the next arrival, then run the (overridable) arrival hook."""
        self._schedule_next_arrival()
        self._on_arrival(event)

    def _on_arrival(self, event: Event) -> None:
        now = event.time
        state = self._states[event.payload["job_id"]]
        job = state.job
        padded = job.padded_runtime(
            self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        outcome = self.scheduler.schedule_arrival(
            job.job_id, job.size, padded, now, self.user
        )
        state.guarantee = outcome.guarantee
        state.reserved_start = outcome.start
        state.reserved_end = outcome.reserved_end
        state.reserved_nodes = outcome.nodes
        self._forced_negotiations += outcome.forced
        if self.recorder is not None:
            self.recorder.record(
                now,
                "negotiated",
                job_id=job.job_id,
                deadline=outcome.guarantee.deadline,
                probability=outcome.guarantee.probability,
                predicted_pf=outcome.guarantee.predicted_failure_probability,
                user_threshold=self.config.user_threshold,
                planned_start=outcome.start,
                planned_nodes=list(outcome.nodes),
                size=job.size,
                user_id=job.user_id,
                offers_made=outcome.offers_made,
                offers_declined=outcome.guarantee.offers_declined,
                forced=outcome.forced,
            )
        state.start_event = self.loop.schedule(
            outcome.start, EventKind.START, job_id=job.job_id
        )

    # ------------------------------------------------------------------
    # Starting
    # ------------------------------------------------------------------
    def _on_start(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        state.start_event = None
        self._try_start(job_id, state, event.time)

    def _try_start(self, job_id: int, state: JobOutcome, now: float) -> None:
        """Start at ``now`` if the reserved nodes are up and idle, else
        block until capacity frees: a finish, a kill, or the RECOVERY
        event of a node in repair retries the blocked starts."""
        if state.finish is not None or state.running:
            return
        if not self.cluster.try_start(job_id, state.reserved_nodes):
            self._pending.add(job_id)
            return

        self._pending.remove(job_id)
        if self.recorder is not None:
            self.recorder.record(
                now, "start", job_id=job_id, nodes=list(state.reserved_nodes)
            )
        remaining = state.job.runtime - state.saved_progress
        state.start(now, self.config.recovery_time)
        # A delayed start occupies nodes past the booked end; extend the
        # booking so later placement decisions see the truth.
        planned_end = now + padded_remaining(
            remaining, self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        if planned_end > state.reserved_end:
            self.cluster.ledger.extend(job_id, planned_end)
            state.reserved_end = planned_end
        self._schedule_run_event(state, now)

    def _schedule_run_event(self, state: JobOutcome, now: float) -> None:
        job_id = state.job.job_id
        interval = self.config.checkpoint_interval
        kind, delay = state.next_event_delay(interval)
        # Delays are execution time from the current segment start, which
        # sits past ``now`` while a restart is still restoring (R > 0).
        fire_at = max(now, state.segment_start) + delay
        if kind == "request" and self._plans_skips:
            # Requests whose window ends before the partition's next
            # predicted failure see p_f = 0 and are skipped: plan them and
            # schedule only the first request that can see the failure.
            # A running job occupies exactly its reserved nodes.
            clear_until = self.evaluator.first_failure_time(
                state.reserved_nodes, fire_at
            )
            if clear_until is not None:
                kind, fire_at = state.plan_skips(
                    fire_at, clear_until, interval, self.config.checkpoint_overhead
                )
        event_kind = (
            EventKind.FINISH if kind == "finish" else EventKind.CHECKPOINT_REQUEST
        )
        state.run_event = self.loop.schedule(fire_at, event_kind, job_id=job_id)

    def _settle_skips(self, state: JobOutcome, until: float) -> None:
        """Account the run's planned skips that fall before ``until``, at
        their own times and in order, as the request handler would have."""
        interval = self.config.checkpoint_interval
        while state.planned_skips:
            # segment_start is never before the planning time, so this is
            # the time _schedule_run_event computed for the request.
            at = state.segment_start + state.next_event_delay(interval)[1]
            if at >= until:
                return
            state.planned_skips -= 1
            state.reach_request(at)
            state.skip_checkpoint(at)
            if self.recorder is not None:
                # d counts this request, which the skip just added.
                decision = self.policy.clear_window_decision(
                    state.skipped_since_checkpoint,
                    self.config.checkpoint_interval,
                    self.config.checkpoint_overhead,
                )
                assert decision is not None
                self._record_skip(at, state.job.job_id, decision)

    def _record_skip(
        self, now: float, job_id: int, decision: CheckpointDecision
    ) -> None:
        assert self.recorder is not None
        self.recorder.record(
            now,
            "checkpoint_skipped",
            job_id=job_id,
            reason=decision.reason,
            p_f=decision.failure_probability,
            at_risk=decision.at_risk,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _on_checkpoint_request(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        if not state.running:
            return  # stale event for a killed run (should have been cancelled)
        state.run_event = None
        now = event.time
        self._settle_skips(state, math.inf)
        state.reach_request(now)
        ctx = CheckpointDecisionContext(
            now=now,
            job_id=job_id,
            nodes=self.cluster.nodes_of(job_id),
            interval=self.config.checkpoint_interval,
            overhead=self.config.checkpoint_overhead,
            skipped_since_checkpoint=state.skipped_since_checkpoint,
            remaining_work=state.remaining_work,
            deadline=state.guarantee.deadline if state.guarantee else None,
            predictor=self.evaluator,
        )
        decision = self.policy.decide(ctx)
        if decision.perform:
            state.pending_decision = decision
            state.run_event = self.loop.schedule(
                now, EventKind.CHECKPOINT_START, job_id=job_id
            )
        else:
            state.skip_checkpoint(now)
            if self.recorder is not None:
                self._record_skip(now, job_id, decision)
            self._schedule_run_event(state, now)

    def _on_checkpoint_start(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        if not state.running:
            return
        state.begin_checkpoint(event.time)
        state.run_event = self.loop.schedule_in(
            self.config.checkpoint_overhead, EventKind.CHECKPOINT_FINISH, job_id=job_id
        )

    def _on_checkpoint_finish(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        if not state.running:
            return
        state.run_event = None
        now = event.time
        self._checkpoint_overhead_s += state.complete_checkpoint(
            now, self.config.checkpoint_overhead
        )
        decision = state.pending_decision
        state.pending_decision = None
        if self.recorder is not None:
            self.recorder.record(
                now, "checkpoint_performed", job_id=job_id,
                saved_progress=state.saved_progress,
                began_at=state.last_checkpoint_start,
                reason=decision.reason if decision is not None else None,
                p_f=decision.failure_probability if decision is not None else None,
            )
        if self.config.proactive_evacuation and self._maybe_evacuate(state):
            return
        self._schedule_run_event(state, now)

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def _on_finish(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        if not state.running:
            return
        now = event.time
        self._settle_skips(state, math.inf)
        state.complete(now)
        self._unfinished -= 1
        self.cluster.remove_job(job_id)
        self.cluster.ledger.release(job_id)
        guarantee = state.guarantee
        if self.recorder is not None:
            self.recorder.record(
                now,
                "finish",
                job_id=job_id,
                deadline=guarantee.deadline if guarantee is not None else None,
                promised=guarantee.probability if guarantee is not None else None,
                met=guarantee.kept(now) if guarantee is not None else None,
                margin=guarantee.margin(now) if guarantee is not None else None,
            )
        self._after_capacity_freed(now)

    # ------------------------------------------------------------------
    # Failures and recovery
    # ------------------------------------------------------------------
    def _on_failure(self, event: Event) -> None:
        node = event.payload["node"]
        now = event.time
        victim_id, recovery = self.cluster.fail_node(node, now)
        self.loop.schedule(recovery, EventKind.RECOVERY, node=node)
        if self.recorder is not None:
            self.recorder.record(now, "failure", node=node, victim=victim_id)
            self.recorder.record(now, "node_down", node=node, until=recovery)

        if victim_id is not None:
            self._kill_job(victim_id, now)

        if self._unfinished > 0:
            self._schedule_next_failure(now)
        self._after_capacity_freed(now)

    def _kill_job(self, job_id: int, now: float) -> None:
        """Failure handling for the occupying job: charge, release, requeue."""
        state = self._states[job_id]
        assert state.running, f"victim {job_id} has no active run"
        # Failures order before requests at the same instant (tie-break),
        # so a request planned for ``now`` never happened.
        self._settle_skips(state, now)
        lost_wall = state.kill(now)
        self._lost_wall_s += lost_wall
        self._lost_work += lost_wall * state.job.size
        if self.recorder is not None:
            self.recorder.record(
                now, "killed", job_id=job_id,
                lost_node_seconds=lost_wall * state.job.size,
                lost_wall_seconds=lost_wall,
                durable_progress=state.saved_progress,
            )
        if state.run_event is not None:
            state.run_event.cancel()
            state.run_event = None
        self.cluster.remove_job(job_id)
        self.cluster.ledger.release(job_id)
        self._requeue(job_id, state, now)

    def _requeue(self, job_id: int, state: JobOutcome, now: float) -> None:
        """Back to the queue: earliest slot for the remaining work, fresh
        fault-aware placement, original deadline and promise retained."""
        remaining = state.job.runtime - state.saved_progress
        padded = padded_remaining(
            remaining, self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        booking = self.scheduler.schedule_restart(
            job_id, state.job.size, padded, now
        )
        state.reserved_start = booking.start
        state.reserved_end = booking.end
        state.reserved_nodes = booking.nodes
        if self.recorder is not None:
            self.recorder.record(
                now, "requeued", job_id=job_id, restart_at=booking.start,
                nodes=list(booking.nodes),
            )
        state.start_event = self.loop.schedule(
            booking.start, EventKind.START, job_id=job_id
        )

    def _maybe_evacuate(self, state: JobOutcome) -> bool:
        """Voluntarily stop a just-checkpointed job if its partition is
        predicted to fail before the next checkpoint could complete *and* a
        strictly safer slot exists for the remaining work.

        Nothing is at risk at this instant (the checkpoint just made all
        progress durable), so moving costs only queueing delay.  The safer
        slot is found with the negotiation offer machinery: the earliest
        offer whose predicted failure probability improves on the current
        partition's is taken; if no offer improves (e.g. a full-width job
        with failures everywhere), the job keeps running and the original
        booking is restored untouched.

        Returns True if the job was evacuated (caller must not schedule
        further run events for the old run).
        """
        now = self.loop.now
        job_id = state.job.job_id
        nodes = self.cluster.nodes_of(job_id)
        horizon = min(
            state.remaining_work + self.config.checkpoint_overhead,
            self.config.checkpoint_interval + 2 * self.config.checkpoint_overhead,
        )
        p_f = self.evaluator.failure_probability(nodes, now, now + horizon)
        if p_f <= self.config.evacuation_threshold:
            return False

        remaining = state.job.runtime - state.saved_progress
        padded = padded_remaining(
            remaining, self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        # Release our own booking so the offer scan can consider our nodes,
        # then look for a strictly safer slot.
        original = self.cluster.ledger.get(job_id)
        self.cluster.ledger.release(job_id)
        chosen = None
        for offer in self.scheduler.negotiator.iter_offers(
            state.job.size, padded, now
        ):
            if offer.failure_probability < p_f - 1e-12:
                chosen = offer
                break
        if chosen is None:
            # No safer slot anywhere: ride it out on the current partition.
            self.cluster.ledger.reserve(
                job_id, original.nodes, original.start, original.end,
                allow_overlap=True,
            )
            return False

        state.running = False
        state.evacuations += 1
        if state.run_event is not None:
            state.run_event.cancel()
            state.run_event = None
        self.cluster.remove_job(job_id)
        if self.recorder is not None:
            self.recorder.record(
                now, "evacuated", job_id=job_id, predicted_pf=p_f, nodes=list(nodes)
            )
        self.cluster.ledger.reserve(
            job_id, chosen.nodes, chosen.start, chosen.deadline
        )
        state.reserved_start = chosen.start
        state.reserved_end = chosen.deadline
        state.reserved_nodes = chosen.nodes
        if self.recorder is not None:
            self.recorder.record(
                now, "requeued", job_id=job_id, restart_at=chosen.start,
                nodes=list(chosen.nodes),
            )
        state.start_event = self.loop.schedule(
            chosen.start, EventKind.START, job_id=job_id
        )
        self._after_capacity_freed(now)
        return True

    def _on_recovery(self, event: Event) -> None:
        node = event.payload["node"]
        now = event.time
        self.cluster.recover_node(node, now)
        if self.recorder is not None and self.cluster.is_up(node):
            self.recorder.record(now, "node_up", node=node)
        self._after_capacity_freed(now)

    # ------------------------------------------------------------------
    # Blocked-start retries and opportunistic backfill
    # ------------------------------------------------------------------
    def _after_capacity_freed(self, now: float) -> None:
        """Resources changed: retry blocked starts, optionally pull forward."""
        for job_id in self._pending.snapshot():
            self._try_start(job_id, self._states[job_id], now)
        if self.config.opportunistic_start:
            self._opportunistic_pass(now)

    def _opportunistic_pass(self, now: float) -> None:
        """Pull the earliest future bookings toward freed capacity."""
        candidates = sorted(
            (
                s
                for s in self._states.values()
                if s.finish is None and not s.running and s.reserved_start > now
                and s.start_event is not None
            ),
            key=lambda s: s.reserved_start,
        )
        for state in candidates[:8]:  # bounded sweep per capacity change
            improved = self.scheduler.pull_forward(state.job.job_id, now)
            if improved is None:
                continue
            state.reserved_start = improved.start
            state.reserved_end = improved.end
            state.reserved_nodes = improved.nodes
            if state.start_event is not None:
                state.start_event.cancel()
            state.start_event = self.loop.schedule(
                improved.start, EventKind.START, job_id=state.job.job_id
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Every component's counters by metric name: totals since the
        system was built (the predictor's since it was built).  The
        ``checkpointing.runtime.*`` totals appear once a job has run.

        Planned skips up to ``now`` are accounted first: samples order
        last among simultaneous events, so those requests have happened.
        """
        until = math.nextafter(self.loop.now, math.inf)
        for job_id in self.cluster.running_jobs():
            state = self._states[job_id]
            if state.planned_skips:
                self._settle_skips(state, until)
        performed = skipped = evacuations = kills = 0
        started = False
        for state in self._states.values():
            performed += state.checkpoints_performed
            skipped += state.checkpoints_skipped
            evacuations += state.evacuations
            kills += state.failures
            started = started or state.first_start is not None
        counts: Dict[str, float] = {
            "core.system.jobs_completed": len(self.workload) - self._unfinished,
            "core.system.evacuations": evacuations,
        }
        if started:
            counts.update({
                "checkpointing.runtime.performed": performed,
                "checkpointing.runtime.skipped": skipped,
                "checkpointing.runtime.overhead_seconds": self._checkpoint_overhead_s,
                "checkpointing.runtime.kills": kills,
                "checkpointing.runtime.lost_wall_seconds": self._lost_wall_s,
            })
        for component in (
            self.loop,
            self.cluster.ledger,
            self.scheduler,
            self.scheduler.negotiator,
            self.evaluator,
            self.predictor,
        ):
            counts.update(component.counters())
        return counts

    def gauges(self) -> Dict[str, float]:
        """Every component's point-in-time levels by metric name."""
        levels = {
            "core.system.unfinished_jobs": float(self._unfinished),
            "core.system.pending_starts": float(len(self._pending.snapshot())),
            "core.system.running_jobs": float(len(self.cluster.running_jobs())),
        }
        for component in (self.loop, self.cluster.ledger, self.predictor):
            levels.update(component.gauges())
        return levels

    def _sample_row(self) -> Dict[str, float]:
        return {**self.counters(), **self.gauges()}

    def _on_obs_sample(self, event: Event) -> None:
        assert self.sampler is not None
        self.sampler.sample(self.loop.now)
        # Only while something else can still happen: with nothing else
        # queued, no job can finish, and the chain alone would never end.
        if self._unfinished > 0 and self.loop.pending_events > 0:
            self.loop.schedule_in(self.sampler.interval, EventKind.OBS_SAMPLE)


def simulate(
    config: SystemConfig,
    workload: JobLog,
    failures: FailureTrace,
    predictor: Optional[Predictor] = None,
    user: Optional[UserModel] = None,
    sample_interval: Optional[float] = None,
    recorder: Optional[TraceRecorder] = None,
) -> SimulationResult:
    """One-call convenience: build the system and run it to completion."""
    system = ProbabilisticQoSSystem(
        config, workload, failures, predictor=predictor, user=user,
        sample_interval=sample_interval, recorder=recorder,
    )
    return system.run()
