"""The end-to-end simulated supercomputing system.

:class:`ProbabilisticQoSSystem` wires every component of the paper's design
into the event loop and replays a job log against a failure trace:

* arrivals trigger the **negotiation** dialogue (Section 3.5) and book a
  conservative-backfill reservation (Section 3.3);
* starts occupy real nodes, tolerating 120 s repair delays;
* running jobs issue **cooperative checkpointing** requests every ``I``
  seconds of execution, decided by the configured policy (Section 3.4);
* node **failures** kill the occupying job, charge the lost-work metric,
  and requeue the victim from its last completed checkpoint; **recoveries**
  bring nodes back after the fixed downtime;
* every promise is scored by the **QoS metric** at the end (Section 3.5).

The simulation is fully deterministic given (workload, failure trace,
seed, configuration).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.tracelog import NullRecorder, TraceRecorder
from repro.checkpointing.policies import (
    CheckpointDecision,
    CheckpointDecisionContext,
    CheckpointPolicy,
    policy_by_name,
)
from repro.checkpointing.runtime import JobRun, padded_remaining
from repro.cluster.machine import Cluster
from repro.cluster.topology import Topology, topology_by_name
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import MetricsCollector, SimulationMetrics
from repro.core.users import RiskThresholdUser, UserModel
from repro.failures.events import FailureTrace
from repro.obs.audit import NULL_AUDIT, AuditReport, GuaranteeAudit
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.sampler import Sampler
from repro.obs.trace import SpanBuilder, SpanTimeline
from repro.prediction.base import Predictor
from repro.prediction.trace import TracePredictor
from repro.scheduling.fcfs import ConservativeBackfillScheduler
from repro.scheduling.placement import scorer_by_name
from repro.scheduling.queue import PendingStarts
from repro.sim.engine import EventLoop
from repro.sim.events import Event, EventKind
from repro.workload.job import Job, JobLog


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


@dataclass
class _JobState:
    """Mutable per-job simulation state."""

    job: Job
    guarantee: Optional[QoSGuarantee] = None
    reserved_start: float = 0.0
    reserved_end: float = 0.0
    reserved_nodes: Tuple[int, ...] = ()
    saved_progress: float = 0.0
    run: Optional[JobRun] = None
    done: bool = False
    #: The decision behind an in-flight checkpoint, so the performed record
    #: can carry the policy's rationale alongside the timing.
    pending_decision: Optional[CheckpointDecision] = None
    #: Cancellable handles for this job's in-flight events.
    start_event: Optional[Event] = None
    run_event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self.run is not None


@dataclass(frozen=True)
class SimulationResult:
    """Output of one run: aggregates plus per-job detail.

    Attributes:
        obs: Final observability snapshot (``registry.snapshot()``) when the
            system ran with a live registry; None otherwise.
        spans: Assembled :class:`~repro.obs.trace.SpanTimeline` when the
            system ran with a live :class:`~repro.obs.trace.SpanBuilder`;
            None otherwise.
        audit: Promise-vs-outcome :class:`~repro.obs.audit.AuditReport`
            when the system ran with a live
            :class:`~repro.obs.audit.GuaranteeAudit`; None otherwise.
        prof: Final profile snapshot (``profiler.snapshot()``) when the
            system ran with a live :class:`~repro.obs.prof.Profiler`; None
            otherwise.
    """

    metrics: SimulationMetrics
    config: SystemConfig
    outcomes: list
    events_processed: int
    obs: Optional[dict] = None
    spans: Optional[SpanTimeline] = None
    audit: Optional[AuditReport] = None
    prof: Optional[dict] = None


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
            transition (see :mod:`repro.analysis.tracelog`); defaults to a
            zero-cost null recorder.  Pass a
            :class:`~repro.obs.trace.SpanBuilder` to get the assembled
            span timeline on :attr:`SimulationResult.spans` as well.
        spans: Convenience alias: a :class:`~repro.obs.trace.SpanBuilder`
            to use as the recorder (mutually exclusive with ``recorder``).
        registry: Optional :class:`~repro.obs.registry.MetricsRegistry`;
            defaults to the shared null registry, which costs one boolean
            test per instrumented decision point.  A live registry threads
            through every layer (engine, ledger, scheduler, negotiator,
            runs, predictor) and the final snapshot rides on
            :attr:`SimulationResult.obs`.
        sample_interval: Sim-seconds between registry snapshots; when set
            (with a live registry) a :class:`~repro.obs.sampler.Sampler`
            records a time-series via recurring ``OBS_SAMPLE`` events,
            reachable afterwards as ``system.sampler``.
        audit: Optional :class:`~repro.obs.audit.GuaranteeAudit` fed every
            promise at negotiation time and every outcome at finish time;
            defaults to the shared zero-cost :data:`~repro.obs.audit.NULL_AUDIT`
            (one boolean test per promise/outcome).  A live audit's report
            rides on :attr:`SimulationResult.audit`.
        profiler: Optional :class:`~repro.obs.prof.Profiler`; defaults to
            the shared zero-cost :data:`~repro.obs.prof.NULL_PROFILER`.  A
            live profiler threads through the hot paths (event dispatch,
            ledger, negotiation, prediction, checkpoint decisions) and its
            snapshot rides on :attr:`SimulationResult.prof`.
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: JobLog,
        failures: FailureTrace,
        predictor: Optional[Predictor] = None,
        user: Optional[UserModel] = None,
        recorder: Optional[TraceRecorder] = None,
        registry: Optional[MetricsRegistry] = None,
        sample_interval: Optional[float] = None,
        spans: Optional[SpanBuilder] = None,
        audit: Optional[GuaranteeAudit] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        if spans is not None:
            if recorder is not None:
                raise ValueError("pass either recorder= or spans=, not both")
            recorder = spans
        self.config = config
        self.workload = workload
        self.failures = failures
        self.registry: MetricsRegistry = (
            registry if registry is not None else NULL_REGISTRY
        )
        self._obs = self.registry.enabled
        self.audit: GuaranteeAudit = audit if audit is not None else NULL_AUDIT
        self._audit_on = self.audit.enabled
        self.profiler: Profiler = (
            profiler if profiler is not None else NULL_PROFILER
        )
        self._prof = self.profiler.enabled
        self.predictor: Predictor = (
            predictor
            if predictor is not None
            else TracePredictor(failures, config.accuracy, seed=config.seed)
        )
        if self._obs:
            self.predictor.bind_registry(self.registry)
        if self._prof:
            self.predictor.bind_profiler(self.profiler)
        self.user: UserModel = (
            user if user is not None else RiskThresholdUser(config.user_threshold)
        )

        self.cluster = Cluster(
            config.node_count, downtime=config.downtime, registry=self.registry,
            profiler=self.profiler,
        )
        self.topology: Topology = topology_by_name(config.topology, config.node_count)
        # One shared evaluator answers every prediction-shaped query the
        # simulation makes — offer pricing, placement scoring, checkpoint
        # decisions, evacuation checks — so the live predictor is only
        # consulted where the evaluator cannot stand in (its values are
        # identical; see repro.core.fastpath).
        self.evaluator = AnalyticalEvaluator(
            self.predictor, config.node_count, registry=self.registry,
            profiler=self.profiler,
        )
        scorer = scorer_by_name(config.placement, self.evaluator, config.seed)
        self.scheduler = ConservativeBackfillScheduler(
            self.cluster.ledger,
            self.topology,
            self.predictor,
            scorer,
            max_offers=config.max_offers,
            registry=self.registry,
            failure_jump_epsilon=config.failure_jump_epsilon,
            evaluator=self.evaluator,
            profiler=self.profiler,
        )
        self.policy: CheckpointPolicy = policy_by_name(config.checkpoint_policy)
        self.metrics = MetricsCollector()
        self.recorder: TraceRecorder = recorder if recorder is not None else NullRecorder()
        self._span_builder: Optional[SpanBuilder] = (
            recorder if isinstance(recorder, SpanBuilder) else None
        )

        self.loop = EventLoop(registry=self.registry, profiler=self.profiler)
        if self._span_builder is not None:
            # Exported timelines carry the event-mix breakdown in their
            # metadata; counting costs one bool test per event otherwise.
            self.loop.enable_dispatch_counts()
        self.sampler: Optional[Sampler] = None
        if sample_interval is not None and self._obs:
            self.sampler = Sampler(self.registry, sample_interval)
        self._g_unfinished = self.registry.gauge("core.system.unfinished_jobs")
        self._g_pending = self.registry.gauge("core.system.pending_starts")
        self._g_running = self.registry.gauge("core.system.running_jobs")
        self._c_completed = self.registry.counter("core.system.jobs_completed")
        self._c_evacuations = self.registry.counter("core.system.evacuations")
        self._z_decide = self.profiler.zone("checkpointing.policy.decide")
        self._states: Dict[int, _JobState] = {}
        self._pending = PendingStarts()
        self._unfinished = 0
        self._failure_cursor = 0
        self._wakeup_scheduled = False
        self._register_handlers()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        register = self.loop.register
        register(EventKind.ARRIVAL, self._on_arrival)
        register(EventKind.START, self._on_start)
        register(EventKind.FINISH, self._on_finish)
        register(EventKind.FAILURE, self._on_failure)
        register(EventKind.RECOVERY, self._on_recovery)
        register(EventKind.CHECKPOINT_REQUEST, self._on_checkpoint_request)
        register(EventKind.CHECKPOINT_START, self._on_checkpoint_start)
        register(EventKind.CHECKPOINT_FINISH, self._on_checkpoint_finish)
        register(EventKind.WAKEUP, self._on_wakeup)
        register(EventKind.OBS_SAMPLE, self._on_obs_sample)

    def _prime(self) -> None:
        for job in self.workload:
            if job.size > self.config.node_count:
                raise ValueError(
                    f"job {job.job_id} needs {job.size} nodes on a "
                    f"{self.config.node_count}-node cluster; clip the log first"
                )
            self.loop.schedule(job.arrival_time, EventKind.ARRIVAL, job_id=job.job_id)
            self._states[job.job_id] = _JobState(job=job)
            self.metrics.register_job(job)
        self._unfinished = len(self.workload)
        self._schedule_next_failure()

    def _schedule_next_failure(self) -> None:
        """Lazily replay the failure trace while work remains."""
        while self._failure_cursor < len(self.failures):
            event = self.failures[self._failure_cursor]
            self._failure_cursor += 1
            if event.node >= self.config.node_count:
                continue
            if event.time < self.loop.now:
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
            # stops rescheduling itself once all jobs finished, so the
            # loop still drains.
            self._refresh_gauges()
            self.sampler.sample(self.loop.now)
            self.loop.schedule_in(self.sampler.interval, EventKind.OBS_SAMPLE)
        self.loop.run(max_events=max_events)
        if self._obs:
            self._refresh_gauges()
            if self.sampler is not None:
                self.sampler.sample(self.loop.now)
        spans: Optional[SpanTimeline] = None
        if self._span_builder is not None:
            spans = self._span_builder.build(
                end_time=self.loop.now,
                meta={
                    "workload_jobs": len(self.workload),
                    "events_processed": self.loop.processed_events,
                    "dispatch_counts": self.loop.dispatch_counts(),
                    "config": asdict(self.config),
                },
            )
        audit: Optional[AuditReport] = None
        if self._audit_on:
            audit = self.audit.report(
                meta={
                    "source": "live",
                    "workload_jobs": len(self.workload),
                    "events_processed": self.loop.processed_events,
                }
            )
        return SimulationResult(
            metrics=self.metrics.finalize(self.config.node_count),
            config=self.config,
            outcomes=self.metrics.outcomes(),
            events_processed=self.loop.processed_events,
            obs=self.registry.snapshot() if self._obs else None,
            spans=spans,
            audit=audit,
            prof=(
                self.profiler.snapshot(
                    meta={
                        "workload_jobs": len(self.workload),
                        "events_processed": self.loop.processed_events,
                    }
                )
                if self._prof
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Arrival and negotiation
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        state = self._states[event.payload["job_id"]]
        job = state.job
        padded = job.padded_runtime(
            self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        outcome = self.scheduler.schedule_arrival(
            job.job_id, job.size, padded, self.loop.now, self.user
        )
        state.guarantee = outcome.guarantee
        state.reserved_start = outcome.start
        state.reserved_end = outcome.reserved_end
        state.reserved_nodes = outcome.nodes
        self.metrics.record_guarantee(job.job_id, outcome.guarantee, outcome.forced)
        self.recorder.record(
            self.loop.now,
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
        if self._audit_on:
            self.audit.observe_promise(
                job_id=job.job_id,
                probability=outcome.guarantee.probability,
                deadline=outcome.guarantee.deadline,
                size=job.size,
                user_id=job.user_id,
                nodes=outcome.nodes,
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
        self._try_start(job_id, state)

    def _try_start(self, job_id: int, state: _JobState) -> None:
        """Start now if the reserved nodes are up and idle, else block."""
        if state.done or state.running:
            return
        now = self.loop.now
        if not self.cluster.nodes_available(state.reserved_nodes):
            self._pending.add(job_id)
            # If a node is mid-repair, make sure a retry fires at recovery.
            recovery = self.cluster.latest_recovery(state.reserved_nodes)
            if recovery > now:
                self._schedule_wakeup(recovery)
            return

        self._pending.remove(job_id)
        self.cluster.start_job(job_id, list(state.reserved_nodes))
        self.metrics.record_start(job_id, now)
        self.recorder.record(
            now, "start", job_id=job_id, nodes=list(state.reserved_nodes)
        )
        remaining = state.job.runtime - state.saved_progress
        state.run = JobRun(
            job_id=job_id,
            total_work=state.job.runtime,
            interval=self.config.checkpoint_interval,
            overhead=self.config.checkpoint_overhead,
            saved_progress=state.saved_progress,
            start_time=now,
            recovery_overhead=self.config.recovery_time,
            registry=self.registry,
        )
        # A delayed start occupies nodes past the booked end; extend the
        # booking so later placement decisions see the truth.
        planned_end = now + padded_remaining(
            remaining, self.config.checkpoint_interval, self.config.checkpoint_overhead
        )
        if planned_end > state.reserved_end:
            self.cluster.ledger.extend(job_id, planned_end)
            state.reserved_end = planned_end
        self._schedule_run_event(state)

    def _schedule_run_event(self, state: _JobState) -> None:
        run = state.run
        assert run is not None
        kind, delay = run.next_event_delay()
        event_kind = (
            EventKind.FINISH if kind == "finish" else EventKind.CHECKPOINT_REQUEST
        )
        # Delays are execution time from the current segment start, which
        # sits past ``now`` while a restart is still restoring (R > 0).
        fire_at = max(self.loop.now, run.segment_start) + delay
        state.run_event = self.loop.schedule(
            fire_at, event_kind, job_id=state.job.job_id
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _on_checkpoint_request(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        run = state.run
        if run is None:
            return  # stale event for a killed run (should have been cancelled)
        state.run_event = None
        now = self.loop.now
        run.reach_request(now)
        ctx = CheckpointDecisionContext(
            now=now,
            job_id=job_id,
            nodes=self.cluster.nodes_of(job_id),
            interval=self.config.checkpoint_interval,
            overhead=self.config.checkpoint_overhead,
            skipped_since_checkpoint=run.skipped_since_checkpoint,
            remaining_work=run.remaining_work,
            deadline=state.guarantee.deadline if state.guarantee else None,
            predictor=self.evaluator,
        )
        if not self._prof:
            decision = self.policy.decide(ctx)
        else:
            with self._z_decide:
                decision = self.policy.decide(ctx)
        if decision.perform:
            state.pending_decision = decision
            state.run_event = self.loop.schedule(
                now, EventKind.CHECKPOINT_START, job_id=job_id
            )
        else:
            run.skip_checkpoint(now)
            self.metrics.record_checkpoint(job_id, performed=False)
            self.recorder.record(
                now,
                "checkpoint_skipped",
                job_id=job_id,
                reason=decision.reason,
                p_f=decision.failure_probability,
                at_risk=decision.at_risk,
            )
            self._schedule_run_event(state)

    def _on_checkpoint_start(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        run = state.run
        if run is None:
            return
        now = self.loop.now
        run.begin_checkpoint(now)
        state.run_event = self.loop.schedule_in(
            self.config.checkpoint_overhead, EventKind.CHECKPOINT_FINISH, job_id=job_id
        )

    def _on_checkpoint_finish(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        run = state.run
        if run is None:
            return
        state.run_event = None
        run.complete_checkpoint(self.loop.now)
        state.saved_progress = run.saved_progress
        self.metrics.record_checkpoint(
            job_id, performed=True, overhead=self.config.checkpoint_overhead
        )
        decision = state.pending_decision
        state.pending_decision = None
        self.recorder.record(
            self.loop.now, "checkpoint_performed", job_id=job_id,
            saved_progress=run.saved_progress,
            began_at=run.last_checkpoint_start,
            reason=decision.reason if decision is not None else None,
            p_f=decision.failure_probability if decision is not None else None,
        )
        if self.config.proactive_evacuation and self._maybe_evacuate(state):
            return
        self._schedule_run_event(state)

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def _on_finish(self, event: Event) -> None:
        job_id = event.payload["job_id"]
        state = self._states[job_id]
        run = state.run
        if run is None:
            return
        now = self.loop.now
        run.finish(now)
        state.run = None
        state.run_event = None
        state.done = True
        self._unfinished -= 1
        self.cluster.remove_job(job_id)
        self.cluster.ledger.release(job_id)
        self.metrics.record_finish(job_id, now)
        if self._obs:
            self._c_completed.inc()
        guarantee = state.guarantee
        self.recorder.record(
            now,
            "finish",
            job_id=job_id,
            deadline=guarantee.deadline if guarantee is not None else None,
            promised=guarantee.probability if guarantee is not None else None,
            met=guarantee.kept(now) if guarantee is not None else None,
            margin=guarantee.margin(now) if guarantee is not None else None,
        )
        if self._audit_on:
            self.audit.observe_outcome(job_id=job_id, finish_time=now)
        self._after_capacity_freed(now)

    # ------------------------------------------------------------------
    # Failures and recovery
    # ------------------------------------------------------------------
    def _on_failure(self, event: Event) -> None:
        node = event.payload["node"]
        now = self.loop.now
        victim_id, recovery = self.cluster.fail_node(node, now)
        self.loop.schedule(recovery, EventKind.RECOVERY, node=node)
        self.recorder.record(now, "failure", node=node, victim=victim_id)
        self.recorder.record(now, "node_down", node=node, until=recovery)

        if victim_id is not None:
            self._kill_job(victim_id, now)

        if self._unfinished > 0:
            self._schedule_next_failure()
        self._after_capacity_freed(now)

    def _kill_job(self, job_id: int, now: float) -> None:
        """Failure handling for the occupying job: charge, requeue, rebook."""
        state = self._states[job_id]
        run = state.run
        assert run is not None, f"victim {job_id} has no active run"
        lost_wall, durable = run.kill(now)
        self.metrics.record_failure_hit(job_id, lost_wall * state.job.size)
        self.recorder.record(
            now, "killed", job_id=job_id,
            lost_node_seconds=lost_wall * state.job.size,
            lost_wall_seconds=lost_wall,
            durable_progress=durable,
        )
        state.saved_progress = durable
        state.pending_decision = None
        state.run = None
        if state.run_event is not None:
            state.run_event.cancel()
            state.run_event = None
        self.cluster.remove_job(job_id)
        self.cluster.ledger.release(job_id)

        # Back to the queue: earliest slot for the remaining work, fresh
        # fault-aware placement, original deadline and promise retained.
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
        self.recorder.record(
            now, "requeued", job_id=job_id, restart_at=booking.start,
            nodes=list(booking.nodes),
        )
        state.start_event = self.loop.schedule(
            booking.start, EventKind.START, job_id=job_id
        )

    def _maybe_evacuate(self, state: _JobState) -> bool:
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
        run = state.run
        assert run is not None
        now = self.loop.now
        job_id = state.job.job_id
        nodes = self.cluster.nodes_of(job_id)
        horizon = min(
            run.remaining_work + self.config.checkpoint_overhead,
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

        state.run = None
        if state.run_event is not None:
            state.run_event.cancel()
            state.run_event = None
        self.cluster.remove_job(job_id)
        self.metrics.record_evacuation(job_id)
        if self._obs:
            self._c_evacuations.inc()
        self.recorder.record(
            now, "evacuated", job_id=job_id, predicted_pf=p_f, nodes=list(nodes)
        )
        self.cluster.ledger.reserve(
            job_id, chosen.nodes, chosen.start, chosen.deadline
        )
        state.reserved_start = chosen.start
        state.reserved_end = chosen.deadline
        state.reserved_nodes = chosen.nodes
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
        self.cluster.recover_node(node, self.loop.now)
        if self.cluster.node(node).is_up:
            self.recorder.record(self.loop.now, "node_up", node=node)
        self._after_capacity_freed(self.loop.now)

    # ------------------------------------------------------------------
    # Blocked-start retries and opportunistic backfill
    # ------------------------------------------------------------------
    def _after_capacity_freed(self, now: float) -> None:
        """Resources changed: retry blocked starts, optionally pull forward."""
        for job_id in self._pending.snapshot():
            self._try_start(job_id, self._states[job_id])
        if self.config.opportunistic_start:
            self._opportunistic_pass(now)

    def _opportunistic_pass(self, now: float) -> None:
        """Pull the earliest future bookings toward freed capacity."""
        candidates = sorted(
            (
                s
                for s in self._states.values()
                if not s.done and not s.running and s.reserved_start > now
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

    def _schedule_wakeup(self, at_time: float) -> None:
        if self._wakeup_scheduled:
            return
        self._wakeup_scheduled = True
        self.loop.schedule(at_time, EventKind.WAKEUP)

    def _on_wakeup(self, event: Event) -> None:
        self._wakeup_scheduled = False
        self._after_capacity_freed(self.loop.now)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        """Bring point-in-time gauges up to date before a snapshot."""
        self._g_unfinished.set(self._unfinished)
        self._g_pending.set(len(self._pending.snapshot()))
        self._g_running.set(len(self.cluster.running_jobs()))
        self.loop.observe_gauges()

    def _on_obs_sample(self, event: Event) -> None:
        assert self.sampler is not None
        self._refresh_gauges()
        self.sampler.sample(self.loop.now)
        if self._unfinished > 0:
            self.loop.schedule_in(self.sampler.interval, EventKind.OBS_SAMPLE)


def simulate(
    config: SystemConfig,
    workload: JobLog,
    failures: FailureTrace,
    predictor: Optional[Predictor] = None,
    user: Optional[UserModel] = None,
    registry: Optional[MetricsRegistry] = None,
    sample_interval: Optional[float] = None,
    recorder: Optional[TraceRecorder] = None,
    audit: Optional[GuaranteeAudit] = None,
    profiler: Optional[Profiler] = None,
) -> SimulationResult:
    """One-call convenience: build the system and run it to completion."""
    system = ProbabilisticQoSSystem(
        config, workload, failures, predictor=predictor, user=user,
        registry=registry, sample_interval=sample_interval, recorder=recorder,
        audit=audit, profiler=profiler,
    )
    return system.run()
